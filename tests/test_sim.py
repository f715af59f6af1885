"""Tests for the Monte Carlo harness: sampling, tallies, determinism."""

import itertools
import math

import numpy as np
import pytest
from conftest import with_zero_x_row

from lposd import (
    DECODER_NAMES,
    DEFAULT_SOLVER,
    DecoderSpec,
    EnumerationTooLarge,
    InvalidParameter,
    OsdConfig,
    SimConfig,
    bp_osd_decode,
    decode_syndrome,
    exhaustive_sweep,
    is_success,
    lp_osd_decode,
    lp_round_decode,
    run_ensemble,
    run_point,
    sample_error,
    wilson_interval,
)
from lposd.codes import named_bb_code, rotated_surface_code, sample_random_hgp
from lposd.gf2 import in_rowspace, kernel_basis
from lposd.sim import _score, as_decoder, read_results, write_results


def point_fingerprint(res):
    """Everything in a point record except wall-clock timing."""
    record = res.to_record()
    record.pop("mean_decode_seconds")
    return record


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


def test_wilson_interval_basics():
    low, high = wilson_interval(5, 100)
    assert 0.0 < low < 0.05 < high < 1.0
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 1) == (0.0, pytest.approx(0.7934, abs=5e-4))
    with pytest.raises(InvalidParameter):
        wilson_interval(2, 1)
    with pytest.raises(InvalidParameter):
        wilson_interval(-1, 10)
    with pytest.raises(InvalidParameter):
        wilson_interval(0, 0)


def test_wilson_interval_tightens_with_trials():
    narrow = wilson_interval(50, 1000)
    wide = wilson_interval(5, 100)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_sample_error_statistics():
    rng = np.random.default_rng(2024)
    draws = np.stack([sample_error(50, 0.1, rng) for _ in range(2000)])
    assert draws.mean() == pytest.approx(0.1, abs=0.01)
    a = sample_error(100, 0.2, np.random.default_rng(7))
    b = sample_error(100, 0.2, np.random.default_rng(7))
    assert np.array_equal(a, b)
    with pytest.raises(InvalidParameter):
        sample_error(10, 0.0, rng)


def test_is_success_judged_modulo_stabilizers(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[3] = 1
    assert is_success(code, e, e.copy())
    stab = code.hz.to_dense()[0]
    assert is_success(code, e, e ^ stab)
    assert not is_success(code, e, np.zeros(code.n, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"correction must have length {code.n}"):
        is_success(code, e, np.zeros(code.n - 1, dtype=np.uint8))


@pytest.mark.parametrize("name", ["surface5", "bb72", "bb144", "random-hgp", "toy22"])
def test_success_test_matches_rowspace_and_syndrome(name, request):
    code = {"surface5": lambda: request.getfixturevalue("surface5"),
            "bb72": lambda: request.getfixturevalue("bb72"),
            "bb144": lambda: named_bb_code("bb144"),
            "random-hgp": lambda: sample_random_hgp(2, 0),
            "toy22": lambda: request.getfixturevalue("toy22")[0]}[name]()
    rng = np.random.default_rng(71)
    hz = code.hz.to_dense()
    ker_hx = np.array(kernel_basis(code.hx))  # stabilizers and logicals
    residuals = [np.zeros(code.n, dtype=np.uint8)]
    for _ in range(60):
        stabilizer = (rng.integers(0, 2, len(hz)) @ hz % 2).astype(np.uint8)
        undetected = (rng.integers(0, 2, len(ker_hx)) @ ker_hx % 2).astype(np.uint8)
        noise = (rng.random(code.n) < 0.05).astype(np.uint8)
        residuals += [stabilizer, undetected, noise, stabilizer ^ noise]
    seen = set()
    for r in residuals:
        failed, wrong = not in_rowspace(code.hz, r), bool(code.syndrome(r).any())
        assert _score(code, r) == (failed, wrong)
        e = (rng.random(code.n) < 0.1).astype(np.uint8)
        assert is_success(code, e, e ^ r) == (not failed)
        seen.add((failed, wrong))
    # stabilizers, logicals and detected residuals all occur
    assert seen == {(False, False), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# decoder specs
# ---------------------------------------------------------------------------


def test_decoder_spec_validation_and_defaults():
    assert set(DECODER_NAMES) == {
        "lp-round", "lp-osd0", "lp-osdcs", "bp", "bp-osd0", "bp-osdcs"
    }
    with pytest.raises(InvalidParameter):
        DecoderSpec(name="turbo")
    with pytest.raises(InvalidParameter):
        DecoderSpec(name="lp-osd0", tie_break="alphabetical")
    lp = DecoderSpec(name="lp-osdcs")
    assert lp.resolved_tie_break() == "distance"
    assert lp.osd_config() == OsdConfig(order="osd_cs", lam=60,
                                        tie_break="distance")
    bp = DecoderSpec(name="bp-osd0")
    assert bp.resolved_tie_break() == "random"
    assert bp.osd_config().order == "osd0"
    assert DecoderSpec(name="lp-round").osd_config() is None
    assert DecoderSpec(name="bp").osd_config() is None
    labeled = DecoderSpec(name="lp-osd0", label="osd0-random",
                          tie_break="random")
    assert labeled.key == "osd0-random"
    assert labeled.tag == DecoderSpec(name="lp-osd0").tag
    # settings a pipeline cannot run with fail when the spec is made
    for bad in (dict(name="lp-osdcs", solver="simplex"), dict(name="bp", solver="nonsense"),
                dict(name="lp-osdcs", lam=-1), dict(name="bp-osd0", lam=-1),
                dict(name="lp-round", lam=-1), dict(name="bp", lam=-1),
                dict(name="bp", solver="embedded"), dict(name="bp-osdcs", solver="scipy"),
                dict(name="bp", bp_iteration_cap=0), dict(name="bp-osdcs", bp_iteration_cap=0),
                dict(name="bp", bp_channel_p=0.7), dict(name="bp-osd0", bp_channel_p=0.0),
                dict(name="lp-round", bp_iteration_cap=5), dict(name="lp-osdcs", bp_channel_p=0.1)):
        with pytest.raises(InvalidParameter):
            DecoderSpec(**bad)
    for ok in (dict(name="lp-round", lam=0), dict(name="lp-round", solver="embedded"),
               dict(name="lp-osdcs", solver="scipy"), dict(name="lp-osd0", solver="cuts"),
               dict(name="bp", bp_iteration_cap=1, bp_channel_p=0.49)):
        DecoderSpec(**ok)
    # a BP pipeline runs no LP, so its record names no solver
    assert DecoderSpec(name="bp-osdcs").to_record()["solver"] is None
    assert DecoderSpec(name="lp-osd0").to_record()["solver"] == DEFAULT_SOLVER


def test_sim_config_validation():
    dec = (DecoderSpec(name="bp"),)
    with pytest.raises(InvalidParameter):
        SimConfig(code="x", decoders=dec, ps=(0.6,), trials=10)
    with pytest.raises(InvalidParameter):
        SimConfig(code="x", decoders=dec, ps=(0.1,), trials=0)
    with pytest.raises(InvalidParameter):
        SimConfig(code="x", decoders=dec, ps=(0.1,), trials=10, workers=0)
    with pytest.raises(InvalidParameter):
        SimConfig(code="x", decoders=dec, ps=(), trials=10)


# ---------------------------------------------------------------------------
# run_point
# ---------------------------------------------------------------------------


def test_point_invariants(surface3):
    code = surface3
    res = run_point(code, "lp-osdcs", p=0.1, trials=200, seed=3)
    assert res.trials == 200
    assert 0 <= res.failures <= res.trials
    assert res.p_l == res.failures / res.trials
    assert res.ci_low <= res.p_l <= res.ci_high
    assert sum(res.stage_counts.values()) == res.trials
    assert res.wrong_syndrome == 0  # OSD output always reproduces s
    assert res.p_ws == 0.0
    assert res.solver_faults == 0
    assert res.pipeline == "lp-osdcs"
    assert res.mean_decode_seconds >= 0.0
    record = res.to_record()
    assert record["decoder"] == "lp-osdcs"
    assert record["ws_ratio"] is None or 0.0 <= record["ws_ratio"] <= 1.0


def test_point_is_reproducible(surface3):
    first = run_point(surface3, "bp-osdcs", p=0.08, trials=150, seed=11)
    second = run_point(surface3, "bp-osdcs", p=0.08, trials=150, seed=11)
    assert point_fingerprint(first) == point_fingerprint(second)
    shifted = run_point(surface3, "bp-osdcs", p=0.08, trials=150, seed=12)
    assert shifted.seed != first.seed


def test_joint_run_matches_standalone(surface3):
    code = surface3
    names = ["lp-round", "lp-osdcs", "bp-osd0"]
    joint = run_point(code, names, p=0.1, trials=120, seed=5)
    assert [r.decoder for r in joint] == names
    for name, joint_res in zip(names, joint):
        alone = run_point(code, name, p=0.1, trials=120, seed=5)
        assert point_fingerprint(alone) == point_fingerprint(joint_res)


def test_workers_do_not_change_results(surface3):
    serial = run_point(surface3, "bp-osd0", p=0.1, trials=60, seed=9)
    parallel = run_point(surface3, "bp-osd0", p=0.1, trials=60, seed=9,
                         workers=2)
    assert point_fingerprint(serial) == point_fingerprint(parallel)


@pytest.mark.parametrize("name", ["lp-osdcs", "bp-osd0"])
def test_workers_merge_an_uneven_split(surface3, name):
    serial = run_point(surface3, name, p=0.1, trials=61, seed=9)
    parallel = run_point(surface3, name, p=0.1, trials=61, seed=9, workers=3)
    assert point_fingerprint(serial) == point_fingerprint(parallel)
    assert parallel.trials == 61

def test_workers_with_a_persistent_solver_model(surface3):
    import pickle

    import lposd.lp as lp_mod
    import lposd.sim as sim_mod
    from lposd import lp_round_decode

    s = np.zeros(surface3.hx.n_rows, dtype=np.uint8)
    s[0] = 1
    # each HiGHS-backed solver keeps its own persistent model on the code
    for solver in ("scipy", "cuts"):
        lp_round_decode(surface3, s, solver=solver)
        assert (lp_mod._CutsModel if solver == "cuts" else lp_mod._HighsModel) in surface3._derived
        assert surface3._derived[sim_mod._memos][solver]  # the integral outcome is remembered
    clone = pickle.loads(pickle.dumps(surface3))
    assert not clone._derived  # neither a model nor a memo came with the pickle
    for solver in ("scipy", "cuts"):
        lp_round_decode(clone, s, solver=solver)
        assert len(clone._derived[sim_mod._memos][solver]) == 1  # no entry came with the pickle
        spec = DecoderSpec("lp-osdcs", solver=solver)
        serial = run_point(surface3, spec, p=0.1, trials=60, seed=9)
        parallel = run_point(surface3, spec, p=0.1, trials=60, seed=9, workers=2)
        assert point_fingerprint(serial) == point_fingerprint(parallel)


def test_a_code_keeps_its_derived_values_in_one_cache_that_never_travels():
    import copy
    import gc
    import pickle
    import weakref

    from conftest import make_toy22

    from lposd import is_reduced, search_patterns
    from lposd.patterns import pattern_to_record

    specs = [DecoderSpec("lp-osdcs"), DecoderSpec("lp-osd0", solver="scipy"),
             DecoderSpec("lp-round", solver="embedded"), DecoderSpec("bp-osdcs")]

    def workout(code):
        """Fingerprints of a joint run and the records of a pattern search."""
        points = run_point(code, specs, p=0.08, trials=40, seed=5)
        patterns = search_patterns(code, max_cycle_len=8, limit=2, rng_seed=1)
        return ([point_fingerprint(res) for res in points],
                [pattern_to_record(pattern) for pattern in patterns])

    code = make_toy22()[0]
    e = np.zeros(code.n, dtype=np.uint8)
    e[[3, 8]] = 1
    s = code.syndrome(e)
    for solver in ("cuts", "scipy", "embedded"):
        assert is_success(code, e, lp_round_decode(code, s, solver=solver).correction)
    assert is_success(code, e, bp_osd_decode(code, s).correction)
    assert is_reduced(code, e).status == "yes"
    warm = workout(code)
    assert warm[1]  # the search found patterns

    assert set(vars(code)) == {"hx", "hz", "name", "metadata", "_derived"}
    assert {build.__name__ for build in code._derived} == {
        "_tanner_graph", "_LpTemplate", "_HighsModel", "_CutsModel", "_memos",
        "_success_columns", "_row_screen", "_ring_table"}
    loaded, copied = pickle.loads(pickle.dumps(code)), copy.copy(code)
    assert loaded._derived == {} and copied._derived == {}
    assert workout(code) == workout(loaded) == workout(make_toy22()[0]) == warm
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None  # nothing derived refers back to its code


def test_solver_errors_are_counted_not_raised(surface3, monkeypatch):
    import pickle

    import lposd.sim as sim_mod
    from lposd import LposdError

    code = pickle.loads(pickle.dumps(surface3))  # a memo filled elsewhere would answer first
    real_solve = sim_mod._solve_syndrome
    calls = []

    def flaky_solve(*args):
        calls.append(1)
        if len(calls) == 2:
            raise LposdError("numerical")
        return real_solve(*args)

    monkeypatch.setattr(sim_mod, "_solve_syndrome", flaky_solve)
    res = run_point(code, "lp-osdcs", p=0.1, trials=40, seed=3)
    assert len(calls) >= 2
    assert res.trials == 40
    assert res.solver_faults == 1
    assert res.stage_counts["solver-fault"] == 1


def test_one_shot_decoders_raise_solver_errors(surface3, monkeypatch):
    import pickle

    import lposd.sim as sim_mod
    from lposd import LposdError, lp_round_decode

    code = pickle.loads(pickle.dumps(surface3))  # a memo filled elsewhere would answer first

    def failing_solve(*args):
        raise LposdError("numerical")

    monkeypatch.setattr(sim_mod, "_solve_syndrome", failing_solve)
    s = np.zeros(surface3.hx.n_rows, dtype=np.uint8)
    s[0] = 1
    for decode in (lp_osd_decode, lp_round_decode,
                   lambda code, s: decode_syndrome(code, "lp-osd0", s)):
        with pytest.raises(LposdError, match="numerical"):
            decode(code, s)
    assert not code._derived[sim_mod._memos][DEFAULT_SOLVER]  # a fault is never remembered


@pytest.mark.parametrize("name", ["surface7", "bb72"])
def test_a_memo_entry_stays_small(name):
    import lposd.sim as sim_mod
    from lposd import lp_round_decode, rotated_surface_code

    code = rotated_surface_code(7) if name == "surface7" else named_bb_code(name)
    rng = np.random.default_rng(11)
    memo = code._cached(sim_mod._memos)[DEFAULT_SOLVER]
    while len(memo) < 2000:
        lp_round_decode(code, code.syndrome((rng.random(code.n) < 0.03).view(np.uint8)))
    assert any(len(v) > sim_mod._MEMO_HEAD.size + 4 * sim_mod._MEMO_HEAD.unpack_from(v)[2]
               for v in memo.values())  # fractional outcomes are in the count
    # 140-175 B an entry; a tuple of the correction's bytes and a
    # diagnostics dict, the earlier layout, measures over 800 B here
    assert footprint(memo) / len(memo) <= 200


def footprint(obj) -> int:
    """``sys.getsizeof`` of obj plus, through dicts, tuples and lists, that of
    everything it holds."""
    import sys

    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        return size + sum(footprint(k) + footprint(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return size + sum(map(footprint, obj))
    return size


@pytest.mark.parametrize("solver", ["scipy", "embedded", "cuts"])
def test_warm_code_re_solves_nothing(solver, monkeypatch):
    import pickle

    import lposd.sim as sim_mod
    from lposd import rotated_surface_code

    calls = []
    real_solve = sim_mod._solve_syndrome
    monkeypatch.setattr(sim_mod, "_solve_syndrome",
                        lambda *args: calls.append(1) or real_solve(*args))
    code = rotated_surface_code(5)
    blob = pickle.dumps(code)
    spec = DecoderSpec("lp-osdcs", solver=solver)
    first = run_point(code, spec, p=0.12, trials=150, seed=2)
    assert first.fractional > 0 and calls
    del calls[:]
    warm = run_point(code, spec, p=0.12, trials=150, seed=2)
    assert not calls  # fractional outcomes are answered by the memo too
    assert warm.fractional == first.fractional
    fresh = run_point(pickle.loads(blob), spec, p=0.12, trials=150, seed=2)
    assert point_fingerprint(warm) == point_fingerprint(fresh) == point_fingerprint(first)


def test_decoder_rngs_built_only_for_random_tie_breaks(surface3, monkeypatch):
    import lposd.sim as sim_mod

    real_rng = sim_mod._decoder_rng
    built = []

    def counting_rng(*key):
        built.append(key)
        return real_rng(*key)

    monkeypatch.setattr(sim_mod, "_decoder_rng", counting_rng)
    run_point(surface3, ["lp-round", "lp-osdcs", "bp"], p=0.12, trials=60, seed=5)
    assert built == []
    res = run_point(surface3, "bp-osd0", p=0.12, trials=60, seed=5)
    assert len(built) == res.stage_counts["osd-0"] > 0


def test_lp_iterations_recorded(surface3):
    lp_res, bp_res = run_point(surface3, ["lp-round", "bp"], p=0.1, trials=30,
                               seed=4)
    assert lp_res.lp_iterations > 0
    assert bp_res.lp_iterations == 0
    assert lp_res.to_record()["lp_iterations"] == lp_res.lp_iterations


def test_osd_pipelines_never_miss_syndrome(surface3):
    for name in ("lp-osd0", "lp-osdcs", "bp-osd0", "bp-osdcs"):
        res = run_point(surface3, name, p=0.12, trials=80, seed=21)
        assert res.wrong_syndrome == 0


def test_labels_allow_ab_comparison(surface3):
    specs = [
        DecoderSpec(name="lp-osd0", label="osd0-distance",
                    tie_break="distance"),
        DecoderSpec(name="lp-osd0", label="osd0-random", tie_break="random"),
    ]
    results = run_point(surface3, specs, p=0.1, trials=50, seed=2)
    assert {r.decoder for r in results} == {"osd0-distance", "osd0-random"}
    assert all(r.pipeline == "lp-osd0" for r in results)
    with pytest.raises(InvalidParameter):
        run_point(surface3, ["lp-osd0", "lp-osd0"], p=0.1, trials=10)


@pytest.mark.parametrize("at", [1, 4], ids=["middle", "end"])
def test_all_zero_check_row_decodes_like_the_original(surface3, at):
    padded = with_zero_x_row(surface3, at)
    specs = ["bp", "bp-osdcs", "lp-osdcs"]
    got = run_point(padded, specs, p=0.1, trials=80, seed=21)
    want = run_point(surface3, specs, p=0.1, trials=80, seed=21)
    for res, ref in zip(got, want):
        record, expected = point_fingerprint(res), point_fingerprint(ref)
        assert record.pop("code") == padded.name
        # the LP gains a row for the empty check, so its pivot count moves
        for key in ("code", "lp_iterations"):
            expected.pop(key)
        record.pop("lp_iterations")
        assert record == expected


def test_point_rejects_bad_arguments(surface3):
    with pytest.raises(InvalidParameter):
        run_point(surface3, "lp-osd0", p=0.7, trials=10)
    with pytest.raises(InvalidParameter):
        run_point(surface3, "lp-osd0", p=0.1, trials=0)


@pytest.mark.parametrize("size", ["n_codes", "trials_per_code"])
def test_ensemble_sizes_share_one_rule(surface3, size, capsys):
    # SimConfig, run_ensemble and the CLI reject an empty ensemble with one message
    from lposd.cli import main

    sizes = {"n_codes": 2, "trials_per_code": 5, size: 0}
    message = f"^{size} must be >= 1$"
    with pytest.raises(InvalidParameter, match=message):
        SimConfig(code="random-hgp:2", decoders=(DecoderSpec(name="bp"),), ps=(0.1,),
                  trials=10, **sizes)
    with pytest.raises(InvalidParameter, match=message):
        run_ensemble(2, "bp", p=0.1, **sizes, code_factory=lambda s, seed: surface3)
    flags = [arg for key, value in sizes.items()
             for arg in (f"--{key.replace('_', '-')}", str(value))]
    assert main(["simulate", "--code", "random-hgp:2", "--decoder", "bp", "--p", "0.1",
                 "--trials", "10", "--out", "-", *flags]) == 2
    assert capsys.readouterr().err.endswith(f"error: {size} must be >= 1\n")


@pytest.mark.parametrize("workers", [0, -2])
def test_runs_reject_workers_below_one(surface3, workers):
    with pytest.raises(InvalidParameter, match="workers must be >= 1"):
        run_point(surface3, "lp-osd0", p=0.1, trials=10, workers=workers)
    with pytest.raises(InvalidParameter, match="workers must be >= 1"):
        run_ensemble(2, "lp-osd0", p=0.1, n_codes=2, trials_per_code=5, workers=workers,
                     code_factory=lambda s, seed: surface3)


def test_one_shot_decodes_repeat_without_generator(surface5, ring108):
    """Without ``rng`` a random tie-break draws from ``default_rng(0)``, so a
    one-shot decode gives the same correction on every call."""
    def lp_random(code, s, **kw):
        return lp_osd_decode(code, s, OsdConfig(tie_break="random"), **kw)

    # syndromes on which the correction depends on the tie-break's draws
    for decode, code in ((lp_random, ring108[0]), (bp_osd_decode, surface5)):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = code.syndrome((rng.random(code.n) < 0.1).astype(np.uint8))
            first, again = decode(code, s), decode(code, s)
            seeded = decode(code, s, rng=np.random.default_rng(0))
            assert np.array_equal(first.correction, again.correction)
            assert np.array_equal(first.correction, seeded.correction)


def test_one_shot_decoders_check_the_syndrome_length(surface3):
    # a zero syndrome of the wrong length is rejected like a nonzero one
    m_x = surface3.hx.n_rows
    decoders = [lp_osd_decode, lp_round_decode, bp_osd_decode,
                lambda code, s: decode_syndrome(code, "lp-osdcs", s)]
    for length in (m_x - 1, m_x + 1):
        for s in (np.zeros(length, dtype=np.uint8), np.ones(length, dtype=np.uint8)):
            for decode in decoders:
                with pytest.raises(ValueError, match=f"syndrome must have length {m_x}"):
                    decode(surface3, s)


def test_decode_syndrome_matches_pipeline(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[[1, 5]] = 1
    s = code.syndrome(e)
    via_harness = decode_syndrome(code, "lp-osdcs", s)
    direct = lp_osd_decode(code, s, OsdConfig(order="osd_cs",
                                              tie_break="distance"))
    assert np.array_equal(via_harness, direct.correction)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_pools_over_codes(surface3):
    res = run_ensemble(2, "bp-osd0", p=0.08, n_codes=3, trials_per_code=20,
                       seed=4, code_factory=lambda s, seed: surface3)
    assert res.n_codes == 3
    assert len(res.per_code_failures) == 3
    assert res.trials == 60
    assert res.failures == sum(res.per_code_failures)
    assert res.p_l == res.failures / res.trials
    assert res.ci_low <= res.p_l <= res.ci_high


def test_ensemble_single_code_uses_wilson(surface3):
    res = run_ensemble(2, "bp-osd0", p=0.08, n_codes=1, trials_per_code=40,
                       seed=4, code_factory=lambda s, seed: surface3)
    assert (res.ci_low, res.ci_high) == wilson_interval(res.failures, 40)


def test_ensemble_zero_failures_clamps_to_zero(surface3):
    res = run_ensemble(2, "lp-osdcs", p=0.001, n_codes=2, trials_per_code=10,
                       seed=4, code_factory=lambda s, seed: surface3)
    assert res.failures == 0
    assert res.ci_low == 0.0


def test_ensemble_reproducible_with_random_codes():
    a = run_ensemble(2, "bp-osd0", p=0.05, n_codes=2, trials_per_code=10,
                     seed=6)
    b = run_ensemble(2, "bp-osd0", p=0.05, n_codes=2, trials_per_code=10,
                     seed=6)
    assert a.to_record() == b.to_record()


# ---------------------------------------------------------------------------
# exhaustive sweep
# ---------------------------------------------------------------------------


def test_sweep_clean_below_half_distance(surface3):
    rows = exhaustive_sweep(surface3, "lp-osdcs", max_weight=1)
    assert [row.weight for row in rows] == [0, 1]
    assert rows[0].n_errors == 1
    assert rows[1].n_errors == surface3.n
    assert all(row.n_failures == 0 for row in rows)


def test_sweep_counts_failures_by_the_success_test(surface3):
    rows = exhaustive_sweep(surface3, "lp-round", max_weight=2)
    expected = 0
    for support in itertools.combinations(range(surface3.n), 2):
        e = np.zeros(surface3.n, dtype=np.uint8)
        e[list(support)] = 1
        correction = decode_syndrome(surface3, "lp-round", surface3.syndrome(e))
        expected += not in_rowspace(surface3.hz, e ^ correction)
    assert rows[2].n_errors == math.comb(surface3.n, 2)
    assert rows[2].n_failures == expected > 0


def test_sweep_guard_blocks_huge_enumerations(bb72):
    total = sum(math.comb(bb72.n, w) for w in range(6))
    assert total > 10_000_000
    with pytest.raises(EnumerationTooLarge):
        exhaustive_sweep(bb72, "bp-osd0", max_weight=5)
    with pytest.raises(InvalidParameter):
        exhaustive_sweep(bb72, "bp-osd0", max_weight=-1)


# (weight, n_errors, n_failures) rows recorded while exhaustive_sweep decoded
# and scored through its own loop.  The two BP sweeps break OSD ties at random
# (56 and 256 draws), so their rows pin the decoder streams' keys
# (seed, weight, index, tag).
@pytest.mark.parametrize("build, decoder, seed, max_weight, rows", [
    (lambda: rotated_surface_code(3), "bp-osdcs", 5, 3,
     [(0, 1, 0), (1, 9, 0), (2, 36, 18), (3, 84, 56)]),
    (lambda: sample_random_hgp(1, 0), "bp-osd0", 5, 2,
     [(0, 1, 0), (1, 25, 21), (2, 300, 294)]),
    (lambda: rotated_surface_code(5), "lp-osdcs", 0, 3,
     [(0, 1, 0), (1, 25, 0), (2, 300, 0), (3, 2300, 292)]),
], ids=["surface3-bp-osdcs", "random-hgp-bp-osd0", "surface5-lp-osdcs"])
def test_exhaustive_sweep_rows_unchanged(build, decoder, seed, max_weight, rows):
    swept = exhaustive_sweep(build(), decoder, max_weight, seed=seed)
    assert [(row.weight, row.n_errors, row.n_failures) for row in swept] == rows


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------


def test_results_round_trip(tmp_path, surface3):
    res = run_point(surface3, ["lp-osd0", "bp"], p=0.1, trials=30, seed=8)
    path = tmp_path / "results.jsonl"
    write_results(path, [r.to_record() for r in res])
    loaded = read_results(path)
    assert loaded == [r.to_record() for r in res]


def test_default_run_point_never_assembles_the_matrix(surface3, monkeypatch):
    from lposd.lp import LpModel

    def refuse(self):
        raise AssertionError("constraint matrix assembled on the HiGHS path")

    monkeypatch.setattr(LpModel, "a", property(refuse))
    results = run_point(surface3, ["lp-round", "lp-osd0", "lp-osdcs"], p=0.1,
                        trials=40, seed=6)
    for res in results:
        assert res.solver_faults == 0
        assert res.lp_iterations > 0


# ---------------------------------------------------------------------------
# equivalence with the decoders before they shared one decode path
# ---------------------------------------------------------------------------


def _digest(obj) -> str:
    import hashlib
    import json

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of run_point records and one-shot (correction, stage) pairs.  The
# 'scipy' entries were recorded while lp_osd_decode, lp_round_decode and
# bp_osd_decode each carried their own copy of the stage logic; the 'cuts'
# entries when adaptive LP decoding became the default solver.
_EQUIVALENCE_DIGESTS = {
    ("surface5", "scipy"): {
        "records": "958e8457a624b1b3813f8d6247fce3c1bb4b3b502e4868b7f7f67f353ca06680",
        "unweighted": "aed8b64147cd29515d2dc2398d27150e5e746a59db70440875832bf9183db7d5",
        "weighted": "0a70251ea92240050744735dae6d138128e5ad8e4addf01769e3bd2ebc53c075",
    },
    ("bb72", "scipy"): {
        "records": "fe263e1009459fb3a8a7da27231e96ded88b5101569575e9444e217141630662",
        "unweighted": "59334ec6bc261cdeb611e9aab604363f6f25cc4452e4792d61aff898db80cac9",
        "weighted": "6a2aa3e7ecb8fa3d088e8e098a20aaece561f948b384ccdf0bbdbe9f5b209c36",
    },
    ("surface5", "cuts"): {
        "records": "c08c3b51fb17935da02211db66db542e0a8f5fd1f34cc485c26ee98508551fb1",
        "unweighted": "ff62eac398b11a580d193a87f0b8f87034f7d40231631449501305ea5c066217",
        "weighted": "fd0324c32fdea34662f1e0afbbe5a0f8ec21982d30c524d279c01ab788bc2469",
    },
    ("bb72", "cuts"): {
        "records": "486d17038ad74f39a612e14be22f5b3e54aafb3ae967eb6b676c6630d7931011",
        "unweighted": "91c7e3334a649bfdf0c7dd575f5e6b8799b435fb3d01dc1bd3e4d0670cfc6e47",
        "weighted": "a2871b421793f4489f4794a2e100855c1d41cd7971515dbf799ce2b4f7328090",
    },
}


# a bare fixture id names the 'scipy' case
_FIXTURE_SOLVERS = pytest.mark.parametrize("fixture, solver", [
    ("surface5", "scipy"), ("bb72", "scipy"), ("surface5", "cuts"), ("bb72", "cuts"),
], ids=["surface5", "bb72", "surface5-cuts", "bb72-cuts"])


@_FIXTURE_SOLVERS
def test_run_point_records_unchanged(fixture, solver, request):
    code = request.getfixturevalue(fixture)
    specs = [DecoderSpec(name, solver=solver) if name.startswith("lp") else name
             for name in DECODER_NAMES] + [
        DecoderSpec("lp-osd0", tie_break="random", solver=solver, label="lp-osd0-random"),
        DecoderSpec("bp-osdcs", tie_break="random", label="bp-osdcs-random"),
    ]
    results = run_point(code, specs, p=0.05, trials=200, seed=11)
    records = [point_fingerprint(res) for res in results]
    assert _digest(records) == _EQUIVALENCE_DIGESTS[fixture, solver]["records"]


@_FIXTURE_SOLVERS
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_one_shot_decoders_unchanged(fixture, weighted, solver, request):
    from lposd import BpConfig, bp_osd_decode, lp_round_decode

    code = request.getfixturevalue(fixture)
    err_rng = np.random.default_rng(17)
    weights = (np.random.default_rng(18).integers(1, 3, code.n).astype(float)
               if weighted else None)
    syndromes = [np.zeros(code.hx.n_rows, dtype=np.uint8)] + [
        code.syndrome((err_rng.random(code.n) < 0.12).astype(np.uint8))
        for _ in range(49)]
    rows = []
    for s in syndromes:
        results = [
            lp_osd_decode(code, s, solver=solver, weights=weights),
            lp_osd_decode(code, s, OsdConfig(order="osd0"), solver=solver, weights=weights),
            lp_osd_decode(code, s, OsdConfig(tie_break="random"), solver=solver,
                          weights=weights, rng=np.random.default_rng(5)),
            lp_osd_decode(code, s, OsdConfig(lam=4), solver=solver, weights=weights,
                          rng=np.random.default_rng(6)),
            lp_round_decode(code, s, solver=solver, weights=weights),
        ]
        if not weighted:  # bp_osd_decode takes no weights
            results += [
                bp_osd_decode(code, s, BpConfig(max_iterations=4),
                              rng=np.random.default_rng(7)),
                bp_osd_decode(code, s, BpConfig(channel_p=0.08),
                              OsdConfig(order="osd0", tie_break="random"),
                              rng=np.random.default_rng(8)),
                bp_osd_decode(code, s, BpConfig(max_iterations=2),
                              OsdConfig(tie_break="distance")),
            ]
        rows.append([(res.correction.tolist(), res.stage) for res in results])
    kind = "weighted" if weighted else "unweighted"
    assert _digest(rows) == _EQUIVALENCE_DIGESTS[fixture, solver][kind]


# sha256 of run_ensemble records, recorded on the 'scipy' solver while
# run_point and run_ensemble assembled their results from a separate
# per-point tally
_ENSEMBLE_DIGESTS = {
    "surface3-factory": "5f18fb337f21b29024a1a729bd7d684edc013dff6f3b49f00e0236fa3233a48d",
    "random-hgp": "04e2ef6182416a6b2ff5fcf7322a0cd26e53ddff0246432723e12ff1b9cf0c23",
}


def test_run_ensemble_records_unchanged(surface3):
    specs = [DecoderSpec("lp-round", solver="scipy"), DecoderSpec("lp-osdcs", solver="scipy"),
             "bp-osd0", DecoderSpec("bp-osdcs", tie_break="random", label="bp-osdcs-random")]
    records = []
    for n_codes in (1, 3):  # Wilson interval, then the bootstrap over codes
        results = run_ensemble(2, specs, p=0.08, n_codes=n_codes, trials_per_code=20,
                               seed=4, code_factory=lambda s, seed: surface3)
        records += [res.to_record() for res in results]
    assert _digest(records) == _ENSEMBLE_DIGESTS["surface3-factory"]
    # codes are sampled in the parent, so a lambda factory works on a pool too
    pooled = run_ensemble(2, specs, p=0.08, n_codes=3, trials_per_code=20, seed=4,
                          workers=2, code_factory=lambda s, seed: surface3)
    assert [res.to_record() for res in pooled] == records[len(specs):]
    for workers in (1, 2):  # one pool for the whole ensemble
        results = run_ensemble(2, [DecoderSpec("lp-osd0", solver="scipy"), "bp-osdcs"],
                               p=0.05, n_codes=3, trials_per_code=10, seed=6,
                               workers=workers)
        assert (_digest([res.to_record() for res in results])
                == _ENSEMBLE_DIGESTS["random-hgp"])


def test_as_decoder_rejects_anything_but_a_name_or_spec():
    with pytest.raises(InvalidParameter, match="cannot interpret 3 as a decoder"):
        as_decoder(3)
