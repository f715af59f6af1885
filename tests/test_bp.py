"""Tests for the min-sum belief propagation baseline and its OSD fallback."""

import math

import numpy as np
import pytest
from conftest import weight_one_check_code, with_zero_x_row
from reference_bp import reference_min_sum_bp

from lposd import (
    BinaryMatrix,
    BpConfig,
    CssCode,
    InvalidParameter,
    OsdConfig,
    bp_osd_decode,
    min_sum_bp,
    named_bb_code,
    rotated_surface_code,
    sample_random_hgp,
)

_CLAMP = 50.0


def reference_min_sum(code, s, channel_p, max_iterations):
    """Loop-based re-implementation of the scaled min-sum schedule."""
    n = code.n
    m = code.hx.n_rows
    s_arr = np.asarray(s, dtype=np.uint8) & 1
    prior = math.log((1.0 - channel_p) / channel_p)
    edges = [(q, j) for j in range(m) for q in code.hx.row_support(j)]
    by_check = {j: [e for e in edges if e[1] == j] for j in range(m)}
    by_qubit = {q: [e for e in edges if e[0] == q] for q in range(n)}
    c2v = {e: 0.0 for e in edges}
    posterior = np.full(n, prior)
    hard = np.zeros(n, dtype=np.uint8)
    for t in range(1, max_iterations + 1):
        alpha = 1.0 - 2.0 ** (-t)
        v2c = {}
        for (q, j) in edges:
            total = prior + sum(c2v[e] for e in by_qubit[q] if e != (q, j))
            v2c[(q, j)] = min(max(total, -_CLAMP), _CLAMP)
        new = {}
        for (q, j) in edges:
            others = [v2c[e] for e in by_check[j] if e != (q, j)]
            sign = 1.0
            for v in others:
                sign *= -1.0 if v < 0.0 else 1.0
            # min-sum's minimum over no other edges is +inf, clamped below
            mag = min((abs(v) for v in others), default=math.inf)
            msg = alpha * (1.0 - 2.0 * s_arr[j]) * sign * mag
            new[(q, j)] = min(max(msg, -_CLAMP), _CLAMP)
        c2v = new
        posterior = np.array(
            [prior + sum(c2v[e] for e in by_qubit[q]) for q in range(n)]
        )
        hard = (posterior < 0.0).astype(np.uint8)
        if np.array_equal(code.syndrome(hard), s_arr):
            return hard, posterior, True, t
    return hard, posterior, False, max_iterations


def twin_qubit_code():
    """Two qubits behind one check: BP cannot split the symmetric pair."""
    hx = BinaryMatrix.from_entries(1, 2, [(0, 0), (0, 1)])
    return CssCode(hx, BinaryMatrix([], 2), name="twin")


def test_config_validation():
    with pytest.raises(InvalidParameter):
        BpConfig(channel_p=0.0)
    with pytest.raises(InvalidParameter):
        BpConfig(channel_p=0.5)
    with pytest.raises(InvalidParameter):
        BpConfig(max_iterations=0)
    cfg = BpConfig()
    assert cfg.channel_p == 0.05
    assert cfg.max_iterations is None


def test_zero_syndrome_converges_immediately(surface3):
    code = surface3
    res = min_sum_bp(code, np.zeros(code.hx.n_rows, dtype=np.uint8), BpConfig())
    assert res.converged
    assert res.iterations == 1
    assert not res.hard.any()


def test_single_error_recovered_when_unambiguous(surface3):
    # Two weight-1 errors with the same syndrome (twin boundary qubits
    # hanging off one check) stall symmetric message passing; every other
    # single error must converge.  The fallback pipeline must fix the twins.
    code = surface3
    syndromes = [tuple(code.syndrome(np.eye(code.n, dtype=np.uint8)[q]))
                 for q in range(code.n)]
    ambiguous = 0
    for q in range(code.n):
        e = np.zeros(code.n, dtype=np.uint8)
        e[q] = 1
        s = code.syndrome(e)
        res = min_sum_bp(code, s, BpConfig())
        if syndromes.count(tuple(s)) == 1:
            assert res.converged
            assert np.array_equal(code.syndrome(res.hard), s)
        elif not res.converged:
            ambiguous += 1
            rescued = bp_osd_decode(code, s)
            assert np.array_equal(code.syndrome(rescued.correction), s)
    assert ambiguous >= 1


def test_convergence_flag_means_syndrome_match(surface5):
    code = surface5
    rng = np.random.default_rng(41)
    converged_seen = 0
    for _ in range(30):
        e = (rng.random(code.n) < 0.04).astype(np.uint8)
        s = code.syndrome(e)
        res = min_sum_bp(code, s, BpConfig())
        assert res.iterations <= code.n
        if res.converged:
            converged_seen += 1
            assert np.array_equal(code.syndrome(res.hard), s)
    assert converged_seen >= 20


def test_soft_output_tracks_hard_decision(surface3):
    code = surface3
    rng = np.random.default_rng(43)
    e = (rng.random(code.n) < 0.2).astype(np.uint8)
    res = min_sum_bp(code, code.syndrome(e), BpConfig())
    assert np.all(res.soft > 0.0)
    assert np.all(res.soft < 1.0)
    assert np.array_equal(res.hard, (res.soft > 0.5).astype(np.uint8))


def test_matches_reference_implementation(surface3):
    # the padded codes carry an all-zero X check in the middle or at the end
    for code in (surface3, with_zero_x_row(surface3, 1), with_zero_x_row(surface3, 4),
                 weight_one_check_code()):
        rng = np.random.default_rng(47)
        for trial in range(10):
            e = (rng.random(code.n) < 0.25).astype(np.uint8)
            s = code.syndrome(e)
            cfg = BpConfig(channel_p=0.08, max_iterations=8)
            res = min_sum_bp(code, s, cfg)
            hard, posterior, converged, iterations = reference_min_sum(
                code, s, 0.08, 8
            )
            assert res.converged == converged, code.name
            assert res.iterations == iterations, code.name
            assert np.array_equal(res.hard, hard), code.name
            np.testing.assert_allclose(
                res.soft, 1.0 / (1.0 + np.exp(posterior)), atol=1e-12
            )


def test_matches_frozen_kernel_bitwise(surface3, bb72):
    # every code family, with a zero X row in the middle or at the end and
    # a weight-1 check.  Syndrome 3 of each setting is pushed off the coset;
    # syndrome 4 sets a zero row's bit, which no decision can satisfy.
    codes = [(surface3, None), (rotated_surface_code(7), None), (bb72, None),
             (named_bb_code("bb144"), None), (sample_random_hgp(2, 0), None),
             (with_zero_x_row(surface3, 1), 1), (with_zero_x_row(surface3, 4), 4),
             (weight_one_check_code(), None)]
    rng = np.random.default_rng(61)
    for code, zero_row in codes:
        for p in (0.03, 0.06, 0.1):
            for cap in (None, 8):
                cfg = BpConfig(channel_p=p, max_iterations=cap)
                for trial in range(4 if zero_row is None else 5):
                    s = code.syndrome((rng.random(code.n) < p).astype(np.uint8))
                    if trial == 3:
                        s[rng.integers(s.size)] ^= 1
                    if trial == 4:
                        s[zero_row] = 1
                    res = min_sum_bp(code, s, cfg)
                    ref = reference_min_sum_bp(code, s, cfg)
                    assert res.converged == ref.converged, code.name
                    assert res.iterations == ref.iterations, code.name
                    assert res.hard.dtype == np.uint8
                    assert np.array_equal(res.hard, ref.hard), code.name
                    assert res.soft.tobytes() == ref.soft.tobytes(), code.name
                    if trial == 4:
                        assert not res.converged and res.iterations == (cap or code.n)


def test_syndrome_length_is_checked(surface3):
    code = surface3
    m_x = code.hx.n_rows
    bad = [np.ones(m_x + 1, dtype=np.uint8), np.ones(m_x - 1, dtype=np.uint8),
           np.ones((1, m_x), dtype=np.uint8)]
    for s in bad:
        with pytest.raises(ValueError, match=f"syndrome must have length {m_x}"):
            min_sum_bp(code, s, BpConfig())
    with pytest.raises(ValueError, match=f"syndrome must have length {m_x}"):
        bp_osd_decode(code, bad[0])


def test_symmetric_pair_stalls_and_osd_rescues():
    code = twin_qubit_code()
    s = np.array([1], dtype=np.uint8)
    res = min_sum_bp(code, s, BpConfig(max_iterations=32))
    assert not res.converged
    assert res.iterations == 32
    decoded = bp_osd_decode(code, s, BpConfig(max_iterations=32))
    assert decoded.stage in ("osd-0", "osd-cs")
    assert decoded.diagnostics["bp_converged"] is False
    assert np.array_equal(code.syndrome(decoded.correction), s)
    assert decoded.correction.sum() == 1


def test_bp_osd_converged_path(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[2] = 1
    s = code.syndrome(e)
    res = bp_osd_decode(code, s)
    assert res.stage == "bp-converged"
    assert res.diagnostics["bp_converged"] is True
    assert np.array_equal(code.syndrome(res.correction), s)


def test_bp_osd_deterministic_with_seeded_rng(surface5):
    code = surface5
    rng = np.random.default_rng(53)
    e = (rng.random(code.n) < 0.12).astype(np.uint8)
    s = code.syndrome(e)
    cfg = BpConfig(max_iterations=4)
    osd_cfg = OsdConfig(tie_break="random")
    a = bp_osd_decode(code, s, cfg, osd_cfg, rng=np.random.default_rng(7))
    b = bp_osd_decode(code, s, cfg, osd_cfg, rng=np.random.default_rng(7))
    assert np.array_equal(a.correction, b.correction)
    assert a.stage == b.stage
    c = bp_osd_decode(code, s, cfg, OsdConfig(tie_break="random"),
                      rng=np.random.default_rng(11))
    d = bp_osd_decode(code, s, cfg, OsdConfig(tie_break="random"),
                      rng=np.random.default_rng(11))
    assert np.array_equal(c.correction, d.correction)


def test_iteration_budget_respected(surface5):
    code = surface5
    rng = np.random.default_rng(59)
    e = (rng.random(code.n) < 0.3).astype(np.uint8)
    s = code.syndrome(e)
    res = min_sum_bp(code, s, BpConfig(max_iterations=1))
    assert res.iterations == 1


def test_error_probability_matches_expit_records(monkeypatch):
    # Soft output used to come from scipy.special.expit(-posterior).  The
    # numpy form must leave whole bb144 records unchanged, timing aside.
    from scipy.special import expit

    import lposd.bp as bp_mod
    from lposd import named_bb_code, run_point

    code = named_bb_code("bb144")
    pipelines = ["bp", "bp-osd0", "bp-osdcs"]

    def records():
        out = []
        for res in run_point(code, pipelines, p=0.06, trials=300, seed=7):
            record = res.to_record()
            record.pop("mean_decode_seconds")
            out.append(record)
        return out

    numpy_form = records()
    monkeypatch.setattr(bp_mod, "_error_probability", lambda post: expit(-post))
    assert records() == numpy_form
    assert numpy_form[0]["stage_counts"].get("bp-stalled", 0) > 0

    posterior = np.array([-800.0, -50.0, -1.0, 0.0, 1e-300, 2.5, 50.0, 800.0])
    assert np.array_equal(bp_mod._error_probability(posterior), expit(-posterior))
