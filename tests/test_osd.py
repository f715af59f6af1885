"""Tests for ordered-statistics post-processing and the LP decode pipelines."""

import numpy as np
import pytest
from conftest import weight_one_check_code, with_zero_x_row

from lposd import (
    BinaryMatrix,
    CssCode,
    InvalidParameter,
    OsdConfig,
    QubitOrdering,
    SingularSubmatrix,
    hgp_layout,
    build_overlap_pattern,
    lp_osd_decode,
    lp_round_decode,
    named_bb_code,
    order_qubits,
    osd_postprocess,
    rotated_surface_code,
    sample_random_hgp,
)
from lposd.gf2 import rank
from lposd.osd import _eliminate, osd0, osd_cs


@pytest.fixture(scope="module")
def toy_pattern(toy22):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dense_hz = code.hz.to_dense()
    return code, build_overlap_pattern(
        code, dense_hz[lay.z_check(0, 1)], dense_hz[lay.z_check(1, 1)]
    )


def committed_submatrix_rank(code, committed):
    dense = code.hx.to_dense()
    return rank(BinaryMatrix.from_dense(dense[:, committed]))


# ---------------------------------------------------------------------------
# configuration and ordering
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParameter):
        OsdConfig(order="osd7")
    with pytest.raises(InvalidParameter):
        OsdConfig(lam=-1)
    with pytest.raises(InvalidParameter):
        OsdConfig(tie_break="alphabetical")
    cfg = OsdConfig()
    assert cfg.order == "osd_cs"
    assert cfg.lam == 60
    assert cfg.tie_break == "distance"


def test_ordering_structure(surface3):
    code = surface3
    rng = np.random.default_rng(1)
    soft = rng.random(code.n)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[0] = 1
    ordering = order_qubits(soft, code, s, OsdConfig())
    assert sorted(ordering.permutation) == list(range(code.n))
    r = rank(code.hx)
    assert ordering.committed.size == r
    assert committed_submatrix_rank(code, ordering.committed) == r
    together = np.concatenate([ordering.committed, ordering.remainder])
    assert sorted(together) == list(range(code.n))
    # descending soft value along the permutation
    values = soft[ordering.permutation]
    assert np.all(np.diff(np.round(values / 1e-9)) <= 0)


def test_ordering_deterministic_with_distance_ties(surface3):
    code = surface3
    soft = np.full(code.n, 0.5)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[2] = 1
    cfg = OsdConfig(tie_break="distance")
    first = order_qubits(soft, code, s, cfg)
    second = order_qubits(soft, code, s, cfg)
    assert np.array_equal(first.permutation, second.permutation)
    # all-tied soft values: the first qubit must sit on the flipped check
    assert first.permutation[0] in code.tanner.x_supports[2]


def test_ordering_random_ties_reproducible(surface3):
    code = surface3
    soft = np.full(code.n, 0.25)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[1] = 1
    a = order_qubits(soft, code, s, OsdConfig(tie_break="random"),
                     rng=np.random.default_rng(5))
    b = order_qubits(soft, code, s, OsdConfig(tie_break="random"),
                     rng=np.random.default_rng(5))
    assert np.array_equal(a.permutation, b.permutation)
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    c = order_qubits(soft, code, s, OsdConfig(tie_break="random"), rng=rng1)
    d = order_qubits(soft, code, s, OsdConfig(tie_break="random"), rng=rng2)
    assert np.array_equal(c.permutation, d.permutation)


def test_random_ties_without_generator_draw_from_seed_zero(surface5):
    code = surface5
    soft = np.full(code.n, 0.25)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    cfg = OsdConfig(tie_break="random")
    first = order_qubits(soft, code, s, cfg)
    again = order_qubits(soft, code, s, cfg)
    seeded = order_qubits(soft, code, s, cfg, rng=np.random.default_rng(0))
    assert np.array_equal(first.permutation, again.permutation)
    assert np.array_equal(first.permutation, seeded.permutation)


def test_soft_noise_below_quantum_cannot_reorder(surface3):
    code = surface3
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[0] = 1
    base = np.full(code.n, 0.5)
    jitter = base + np.linspace(0, 1e-12, code.n)
    cfg = OsdConfig(tie_break="distance")
    assert np.array_equal(
        order_qubits(base, code, s, cfg).permutation,
        order_qubits(jitter, code, s, cfg).permutation,
    )


# ---------------------------------------------------------------------------
# the two OSD stages
# ---------------------------------------------------------------------------


def test_osd0_reproduces_syndrome(surface3):
    code = surface3
    rng = np.random.default_rng(17)
    for _ in range(25):
        e = (rng.random(code.n) < 0.15).astype(np.uint8)
        s = code.syndrome(e)
        soft = rng.random(code.n)
        ordering = order_qubits(soft, code, s, OsdConfig())
        out = osd0(code, s, ordering)
        assert np.array_equal(code.syndrome(out), s)


def test_osd_cs_never_heavier_than_osd0(surface3):
    code = surface3
    rng = np.random.default_rng(19)
    for _ in range(25):
        e = (rng.random(code.n) < 0.2).astype(np.uint8)
        s = code.syndrome(e)
        soft = rng.random(code.n)
        ordering = order_qubits(soft, code, s, OsdConfig())
        zero_order = osd0(code, s, ordering)
        sweep = osd_cs(code, s, ordering, lam=60)
        assert np.array_equal(code.syndrome(sweep), s)
        assert sweep.sum() <= zero_order.sum()


def test_osd_cs_small_lambda_still_consistent(surface3):
    code = surface3
    rng = np.random.default_rng(23)
    e = (rng.random(code.n) < 0.3).astype(np.uint8)
    s = code.syndrome(e)
    soft = rng.random(code.n)
    ordering = order_qubits(soft, code, s, OsdConfig())
    for lam in (0, 1, 2):
        out = osd_cs(code, s, ordering, lam=lam)
        assert np.array_equal(code.syndrome(out), s)


def test_perfect_soft_information_recovers_error(surface3):
    code = surface3
    dense = code.hx.to_dense()
    rng = np.random.default_rng(29)
    recovered = 0
    for _ in range(20):
        support = rng.choice(code.n, size=2, replace=False)
        e = np.zeros(code.n, dtype=np.uint8)
        e[support] = 1
        if rank(BinaryMatrix.from_dense(dense[:, support])) != 2:
            continue
        s = code.syndrome(e)
        ordering = order_qubits(e.astype(float), code, s, OsdConfig())
        out = osd0(code, s, ordering)
        assert np.array_equal(out, e)
        recovered += 1
    assert recovered >= 10


def test_unreachable_syndrome_raises(surface3):
    hx = BinaryMatrix.from_entries(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    code = CssCode(hx, BinaryMatrix([], 3), name="dup-check")
    s = np.array([1, 0], dtype=np.uint8)
    ordering = order_qubits(np.zeros(3), code, s, OsdConfig())
    with pytest.raises(SingularSubmatrix):
        osd0(code, s, ordering)


def reference_eliminate(code, ordering, s):
    """The dense numpy pivot loop that ``_eliminate`` replaced, kept verbatim
    as a bitwise oracle for the packed-row reduction."""
    tan = code.tanner
    m = code.hx.n_rows
    r = ordering.committed.size
    t_cols = ordering.remainder
    s_arr = np.asarray(s, dtype=np.uint8) & 1
    dense = np.zeros((m, code.n), dtype=np.uint8)
    dense[tan.x_edge_check, tan.x_edge_qubit] = 1
    aug = np.empty((m, r + 1 + t_cols.size), dtype=np.uint8)
    aug[:, :r] = dense[:, ordering.committed]
    aug[:, r] = s_arr
    aug[:, r + 1:] = dense[:, t_cols]

    pivot_row_of = np.empty(r, dtype=np.int64)
    next_row = 0
    for col in range(r):
        hit = np.flatnonzero(aug[next_row:, col])
        if hit.size == 0:
            raise SingularSubmatrix(f"committed column {col} became dependent")
        piv = next_row + hit[0]
        if piv != next_row:
            aug[[next_row, piv]] = aug[[piv, next_row]]
        others = np.flatnonzero(aug[:, col])
        others = others[others != next_row]
        aug[others] ^= aug[next_row]
        pivot_row_of[col] = next_row
        next_row += 1
    if next_row < m and aug[next_row:, r:].any():
        raise SingularSubmatrix("syndrome outside the check-matrix column space")
    base = aug[pivot_row_of, r].astype(np.uint8)
    reach = aug[pivot_row_of, r + 1:].astype(np.uint8)
    return base, reach


def eliminate_both(code, ordering, s):
    """(base, reach) or the SingularSubmatrix message, from both eliminations."""
    out = []
    for eliminate in (_eliminate, reference_eliminate):
        try:
            out.append(eliminate(code, ordering, s))
        except SingularSubmatrix as exc:
            out.append(str(exc))
    return out


def test_elimination_matches_dense_reference(surface3, bb72):
    codes = [surface3, rotated_surface_code(7), bb72, named_bb_code("bb144"),
             sample_random_hgp(2, 0), with_zero_x_row(surface3, 1),
             with_zero_x_row(surface3, 4), weight_one_check_code()]
    rng = np.random.default_rng(67)
    off_coset = 0
    for code in codes:
        for trial in range(12):
            s = code.syndrome((rng.random(code.n) < 0.08).astype(np.uint8))
            if trial % 4 == 3:
                s[rng.integers(s.size)] ^= 1
            # coarse soft values leave ties for the tie-break to settle
            soft = rng.integers(0, 4, size=code.n) / 3.0
            tie_break = "distance" if trial % 2 else "random"
            ordering = order_qubits(soft, code, s, OsdConfig(tie_break=tie_break),
                                    rng=np.random.default_rng(trial))
            got, want = eliminate_both(code, ordering, s)
            if isinstance(want, str):
                assert got == want == "syndrome outside the check-matrix column space"
                off_coset += 1
                continue
            for g, w in zip(got, want):
                assert g.dtype == np.uint8 and g.shape == w.shape, code.name
                assert np.array_equal(g, w), code.name
    assert off_coset >= 3


def test_elimination_errors_match_dense_reference(surface3):
    # the zero X row's bit set: no correction reproduces the syndrome
    code = with_zero_x_row(surface3, 4)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[[0, 4]] = 1
    ordering = order_qubits(np.zeros(code.n), code, s, OsdConfig())
    got, want = eliminate_both(code, ordering, s)
    assert got == want == "syndrome outside the check-matrix column space"

    # a committed set whose second column repeats its first
    code = surface3
    cols = code.hx.transpose().rows
    a, b = next((a, b) for a in range(code.n) for b in range(a + 1, code.n)
                if cols[a] and cols[a] == cols[b])
    soft = np.zeros(code.n)
    soft[a] = 1.0
    ordering = order_qubits(soft, code, np.zeros(code.hx.n_rows), OsdConfig())
    assert ordering.committed[0] == a and b in ordering.remainder
    committed = ordering.committed.copy()
    displaced = committed[1]
    committed[1] = b
    remainder = np.where(ordering.remainder == b, displaced, ordering.remainder)
    bad = QubitOrdering(ordering.permutation, committed, remainder)
    s = code.syndrome(np.eye(code.n, dtype=np.uint8)[a])
    got, want = eliminate_both(code, bad, s)
    assert got == want == "committed column 1 became dependent"

    # independent committed columns, one short of rank(H_X): s reduces, but
    # the dropped column, now first in the remainder, does not
    short = QubitOrdering(ordering.permutation, ordering.committed[:-1],
                          np.concatenate((ordering.committed[-1:], ordering.remainder)))
    assert committed_submatrix_rank(code, short.committed) == short.committed.size
    assert short.committed.size < rank(code.hx)
    got, want = eliminate_both(code, short, s)
    assert got == want == "syndrome outside the check-matrix column space"


def test_postprocess_dispatches_on_order(surface3):
    code = surface3
    rng = np.random.default_rng(31)
    e = (rng.random(code.n) < 0.2).astype(np.uint8)
    s = code.syndrome(e)
    soft = rng.random(code.n)
    zero, stage0 = osd_postprocess(code, s, soft, OsdConfig(order="osd0"))
    sweep, stage_cs = osd_postprocess(code, s, soft, OsdConfig(order="osd_cs"))
    assert stage0 == "osd-0"
    assert stage_cs == "osd-cs"
    ordering = order_qubits(soft, code, s, OsdConfig())
    assert np.array_equal(zero, osd0(code, s, ordering))
    assert np.array_equal(sweep, osd_cs(code, s, ordering, lam=60))


# ---------------------------------------------------------------------------
# full decode pipelines
# ---------------------------------------------------------------------------


def test_zero_syndrome_short_circuits(surface3):
    code = surface3
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    for decode in (lp_osd_decode, lp_round_decode):
        res = decode(code, s)
        assert res.stage == "integral-lp"
        assert not res.correction.any()
        assert res.diagnostics["objective"] == 0.0
        assert res.diagnostics["lp_iterations"] == 0


@pytest.mark.parametrize("solver", ["scipy", "cuts", "embedded"])
def test_zero_syndrome_under_a_negative_weight_is_solved(solver):
    # on the path code, flipping every qubit costs -1.5 and explains the
    # zero syndrome, so the zero correction is not optimal
    code = CssCode(BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]]), BinaryMatrix([], 3))
    s = np.zeros(2, dtype=np.uint8)
    for decode in (lp_osd_decode, lp_round_decode):
        res = decode(code, s, solver=solver, weights=[-1.0, 0.5, -1.0])
        assert res.stage == "integral-lp"
        assert res.correction.tolist() == [1, 1, 1]
        assert res.diagnostics["objective"] == -1.5
        # under nonnegative weights the zero syndrome still settles without a solve
        res = decode(code, s, solver=solver, weights=[1.0, 0.0, 2.0])
        assert not res.correction.any()
        assert (res.diagnostics["objective"], res.diagnostics["lp_iterations"]) == (0.0, 0)


def test_integral_lp_decodes_directly(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[4] = 1
    s = code.syndrome(e)
    res = lp_osd_decode(code, s)
    assert res.stage == "integral-lp"
    assert res.diagnostics["fractional"] is False
    assert np.array_equal(code.syndrome(res.correction), s)
    assert res.correction.sum() == 1


def test_fractional_pattern_goes_to_osd(toy_pattern):
    code, pattern = toy_pattern
    s = pattern.syndrome
    sweep = lp_osd_decode(code, s, solver="scipy")
    assert sweep.stage == "osd-cs"
    assert sweep.diagnostics["fractional"] is True
    assert np.array_equal(code.syndrome(sweep.correction), s)
    zero = lp_osd_decode(code, s, OsdConfig(order="osd0"), solver="scipy")
    assert zero.stage == "osd-0"
    assert np.array_equal(code.syndrome(zero.correction), s)
    assert sweep.correction.sum() <= zero.correction.sum()


def test_fractional_pattern_rounding_has_no_guarantee(toy_pattern):
    code, pattern = toy_pattern
    res = lp_round_decode(code, pattern.syndrome, solver="scipy")
    assert res.stage == "rounded-lp"
    assert res.diagnostics["fractional"] is True
    assert res.diagnostics["objective"] == pytest.approx(4.0, abs=1e-7)


def test_decode_is_deterministic(toy_pattern):
    code, pattern = toy_pattern
    a = lp_osd_decode(code, pattern.syndrome, solver="scipy")
    b = lp_osd_decode(code, pattern.syndrome, solver="scipy")
    assert np.array_equal(a.correction, b.correction)
    assert a.stage == b.stage



@pytest.mark.parametrize("solver", ["scipy", "embedded"])
def test_weighted_osd_cs_ranks_candidates_by_weight(solver):
    # The weighted LP optimum is fractional.  Among the sweep's candidates,
    # flipping the reliable qubit 0 alone is the lightest by count (cost
    # 4.60), but flipping qubits 1 and 3 costs 4.39, the least of any
    # error with this syndrome.
    import itertools
    import math

    from lposd import build_syndrome_lp, solve_lp

    dense = [[0, 1, 0, 1, 0, 1], [1, 0, 1, 1, 0, 1], [0, 1, 1, 1, 1, 1],
             [0, 1, 0, 1, 1, 0], [1, 0, 1, 1, 1, 1]]
    probs = [0.01, 0.1, 0.2, 0.1, 0.1, 0.2]
    code = CssCode(BinaryMatrix.from_dense(np.array(dense, dtype=np.uint8)),
                   BinaryMatrix([], 6), name="detector")
    weights = np.array([math.log((1.0 - p) / p) for p in probs])
    s = np.array([0, 1, 0, 0, 1], dtype=np.uint8)

    sol = solve_lp(build_syndrome_lp(code, s, weights), solver=solver)
    ordering = order_qubits(sol.x(), code, s, OsdConfig())
    assert osd_cs(code, s, ordering).tolist() == [1, 0, 0, 0, 0, 0]
    assert osd_cs(code, s, ordering, weights=weights).tolist() == [0, 1, 0, 1, 0, 0]

    res = lp_osd_decode(code, s, solver=solver, weights=weights)
    assert res.stage == "osd-cs"
    assert res.correction.tolist() == [0, 1, 0, 1, 0, 0]
    best = min(
        float(weights @ np.array(bits))
        for bits in itertools.product((0, 1), repeat=code.n)
        if np.array_equal(code.syndrome(np.array(bits, dtype=np.uint8)), s))
    assert float(weights @ res.correction) == pytest.approx(best, abs=1e-12)


def test_weights_are_checked_before_use(surface3):
    # a weights vector one entry too long was once read by its first n entries,
    # and a one-shot decode of the zero syndrome returned before reading it
    from lposd import build_syndrome_lp, lp_osd_decode, lp_round_decode

    code = surface3
    zeros = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s = code.syndrome(np.eye(1, code.n, 4, dtype=np.uint8)[0])
    ordering = order_qubits(np.zeros(code.n), code, s, OsdConfig())
    bad = [(np.ones(code.n + 1), f"weights must have length {code.n}$"),
           (np.r_[np.nan, np.ones(code.n - 1)], "weights must be finite$")]
    for weights, message in bad:
        with pytest.raises(ValueError, match=message):
            osd_cs(code, s, ordering, weights=weights)
        with pytest.raises(ValueError, match=message):
            build_syndrome_lp(code, s, weights)
        for decode in (lp_osd_decode, lp_round_decode):
            with pytest.raises(ValueError, match=message):
                decode(code, zeros, weights=weights)


def test_order_qubits_rejects_a_soft_vector_of_the_wrong_length(surface3):
    s = np.zeros(surface3.hx.n_rows, dtype=np.uint8)
    with pytest.raises(ValueError, match="soft vector must have length 9"):
        order_qubits(np.zeros(surface3.n - 1), surface3, s, OsdConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_order_qubits_rejects_a_non_finite_soft_vector(surface3, bad):
    s = np.zeros(surface3.hx.n_rows, dtype=np.uint8)
    soft = np.zeros(surface3.n)
    soft[4] = bad
    with pytest.raises(ValueError, match="soft vector must be finite"):
        order_qubits(soft, surface3, s, OsdConfig())
