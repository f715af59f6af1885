"""End-to-end acceptance checks for the decoder toolkit.

Each numbered test exercises one acceptance criterion at its stated
tolerance and prints a single summary line with the measured values
(visible under ``pytest -s`` or on failure).  Shared expensive
computations live in module-scoped fixtures so the suite stays under a
few minutes on one CPU.

Check 7b (interval separation between the rounding and OSD-CS pipelines
on the [[72,12,6]] bicycle code at p=0.03 with 2e4 trials) is expected
to fail and is kept red deliberately: both LP backends return basic
solutions, so degenerate minimum-weight ties resolve to integral
vertices and fractional solutions appear in only ~0.6% of trials at
this noise level, while plain weight-3 tie failures run at ~3.3%.  The
measured gap between the extreme pipelines is 0.00045 (9 of 20000
trials) against interval half-widths of ~0.0025; separating the intervals
would need roughly 120 times more trials (hours of runtime).  The per-trial paired
comparison on the same run does confirm the ordering: the pipelines
share error streams and LP solutions, and OSD-CS strictly improves on
rounding in 9 trials of 20000 while never doing worse.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lposd import (
    BinaryMatrix,
    DecoderSpec,
    OsdConfig,
    build_cycle_pattern,
    build_dual_lp,
    build_error_lp,
    build_overlap_pattern,
    build_syndrome_lp,
    exhaustive_sweep,
    hgp_layout,
    hypergraph_product,
    in_rowspace,
    is_integral,
    is_success,
    lp_osd_decode,
    lp_round_decode,
    reflect_to_error_solution,
    reflect_to_syndrome_solution,
    repetition_parity_check,
    rotated_surface_code,
    round_independent,
    run_point,
    sample_random_hgp,
    solve_lp,
    stabilizers_within,
    verify_certificate,
)

DUALITY_TOL = 1e-6
FEAS_TOL = 1e-8


def equality_residual(sol) -> float:
    """Largest equality-constraint violation of a solution in its model."""
    model = sol.model
    assert (model.row_sense == 0).all()
    return float(np.abs(model.a @ sol.values - model.b).max())


def min_weight_table(code):
    """Exact minimum error weight per syndrome, by enumerating all 2^n errors."""
    n = code.n
    hxd = code.hx.to_dense()
    errors = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    syndromes = (errors @ hxd.T % 2).astype(np.uint8)
    weights = errors.sum(axis=1)
    table: dict[bytes, int] = {}
    for syn, w in zip(map(bytes, syndromes), weights):
        if syn not in table or w < table[syn]:
            table[syn] = int(w)
    return table


def reachable_syndromes(code, max_weight):
    hxd = code.hx.to_dense()
    seen = set()
    for w in range(max_weight + 1):
        for supp in itertools.combinations(range(code.n), w):
            e = np.zeros(code.n, dtype=np.uint8)
            e[list(supp)] = 1
            seen.add(bytes((hxd @ e % 2).astype(np.uint8)))
    return sorted(seen)


def test_01_integral_lp_matches_exhaustive_minimum(surface3):
    """Integral LP optima equal exhaustive minimum-weight corrections."""
    started = time.time()
    rep3 = repetition_parity_check(3)
    hgp13 = hypergraph_product(rep3, rep3, name="hgp13")
    checked = integral = 0
    for code in (surface3, hgp13):
        hxd = code.hx.to_dense()
        table = min_weight_table(code)
        for syn in reachable_syndromes(code, 2):
            s = np.frombuffer(syn, dtype=np.uint8)
            sol = solve_lp(build_syndrome_lp(code, s))
            checked += 1
            assert sol.objective <= table[syn] + 1e-9
            if not is_integral(sol):
                continue
            integral += 1
            x = round_independent(sol.x())
            assert (hxd @ x % 2 == s).all()
            assert int(x.sum()) == table[syn]
    elapsed = time.time() - started
    assert integral >= 40
    assert elapsed < 300
    print(f"ACCEPTANCE 1 PASS: {integral} integral optima of {checked} "
          f"syndromes all match the exhaustive minimum ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def anchored_instances(surface3, surface5, bb72):
    """200 random (code, error) instances across the three code families.

    Each record carries the anchored primal solve, the matching dual
    solve, and the plain syndrome-formulation solve for the same error.
    """
    plan = [
        (surface3, "embedded", 30),
        (surface5, "embedded", 30),
        (sample_random_hgp(1, 0), "scipy", 35),
        (sample_random_hgp(1, 1), "scipy", 35),
        (bb72, "scipy", 70),
    ]
    rng = np.random.default_rng(20260819)
    started = time.time()
    records = []
    for code, solver, count in plan:
        for _ in range(count):
            e = (rng.random(code.n) < 0.08).astype(np.uint8)
            records.append({
                "code": code,
                "e": e,
                "primal": solve_lp(build_error_lp(code, e), solver=solver),
                "dual": solve_lp(build_dual_lp(code, e), solver=solver),
                "syndrome": solve_lp(build_syndrome_lp(code, code.syndrome(e)),
                                     solver=solver),
            })
    return records, time.time() - started


def test_02_anchored_primal_and_dual_objectives_agree(anchored_instances):
    """Strong duality holds on every random instance within 1e-6."""
    records, elapsed = anchored_instances
    assert len(records) >= 200
    worst = max(abs(r["primal"].objective - r["dual"].objective) for r in records)
    for r in records:
        assert r["primal"].status == "optimal"
        assert r["dual"].status == "optimal"
    assert worst <= DUALITY_TOL
    assert elapsed < 600
    print(f"ACCEPTANCE 2 PASS: {len(records)} instances, worst duality gap "
          f"{worst:.2e} ({elapsed:.1f}s)")


def test_03_reflection_maps_solutions_exactly(anchored_instances):
    """Reflected solutions stay feasible, shift by the reference weight, and
    decode to bit-identical corrections."""
    records, _ = anchored_instances
    worst_residual = worst_drift = worst_offset = 0.0
    for r in records:
        e, s_sol = r["e"], r["syndrome"]
        refl = reflect_to_error_solution(s_sol, e)
        worst_residual = max(worst_residual, equality_residual(refl))
        assert float(refl.values.min()) >= -1e-9
        assert refl.objective == s_sol.objective - float(e.sum())
        back = reflect_to_syndrome_solution(refl, e)
        worst_drift = max(worst_drift,
                          float(np.abs(back.values - s_sol.values).max()))
        assert np.array_equal(round_independent(back.x()),
                              round_independent(s_sol.x()))
        worst_offset = max(worst_offset,
                           abs(s_sol.objective - e.sum() - r["primal"].objective))
    assert worst_residual <= FEAS_TOL
    assert worst_drift <= 1e-12
    assert worst_offset <= DUALITY_TOL
    print(f"ACCEPTANCE 3 PASS: {len(records)} reflections feasible "
          f"(residual {worst_residual:.2e}), exact offset, outputs "
          f"bit-identical (value drift {worst_drift:.2e})")


def test_04_half_integral_certificates_beat_the_error_weight(toy22, ring108):
    """The two reference geometries admit certified fractional optima of
    exactly 4 and 8, strictly below the error weights 5 and 9."""
    code_a, h1, h2 = toy22
    lay_a = hgp_layout(h1, h2)
    dz_a = code_a.hz.to_dense()
    pat_a = build_overlap_pattern(code_a, dz_a[lay_a.z_check(0, 1)],
                                  dz_a[lay_a.z_check(1, 1)])
    rep_a = verify_certificate(code_a, pat_a)
    assert rep_a.ok, rep_a.violations
    assert pat_a.certificate.objective == Fraction(4)
    assert pat_a.weight == 5
    opts = [solve_lp(build_syndrome_lp(code_a, pat_a.syndrome), solver=sv).objective
            for sv in ("embedded", "scipy")]
    for opt in opts:
        assert opt <= 4 + 1e-9
        assert opt < 5

    code_b, h_ring, h_c9 = ring108
    lay_b = hgp_layout(h_ring, h_c9)
    dz_b = code_b.hz.to_dense()
    pat_b = build_cycle_pattern(code_b, [dz_b[lay_b.z_check(b, 0)] for b in range(4)])
    rep_b = verify_certificate(code_b, pat_b)
    assert rep_b.ok, rep_b.violations
    assert pat_b.certificate.objective == Fraction(8)
    assert pat_b.weight == 9
    opt_b = solve_lp(build_syndrome_lp(code_b, pat_b.syndrome), solver="scipy").objective
    assert opt_b <= 8 + 1e-9
    assert opt_b < 9
    print(f"ACCEPTANCE 4 PASS: certified objectives 4 and 8; LP optima "
          f"{min(opts):.6f} and {opt_b:.6f}, strictly below weights 5 and 9")


def test_05_constructed_patterns_need_osd(ring108):
    """On >= 20 constructed patterns over codes with n >= 100, OSD-CS always
    succeeds while independent rounding almost always fails."""
    started = time.time()
    h_window = BinaryMatrix.from_entries(2, 6, [(0, 0), (0, 1), (0, 2), (0, 3),
                                                (1, 2), (1, 3), (1, 4), (1, 5)])
    rep15 = repetition_parity_check(15)
    code_a = hypergraph_product(h_window, rep15, name="overlap118")
    lay_a = hgp_layout(h_window, rep15)
    dz_a = code_a.hz.to_dense()
    patterns = [(code_a, build_overlap_pattern(code_a, dz_a[lay_a.z_check(0, b)],
                                               dz_a[lay_a.z_check(1, b)]))
                for b in range(1, 14)]

    code_b, h_ring, h_c9 = ring108
    lay_b = hgp_layout(h_ring, h_c9)
    dz_b = code_b.hz.to_dense()
    patterns += [(code_b, build_cycle_pattern(
        code_b, [dz_b[lay_b.z_check(b, a2)] for b in range(4)]))
        for a2 in range(9)]

    assert len(patterns) >= 20
    cs_cfg = OsdConfig(order="osd_cs", tie_break="distance")
    round_failures = 0
    for code, pat in patterns:
        assert code.n >= 100
        assert verify_certificate(code, pat).ok
        assert pat.reduced_verified != "no"
        union = np.zeros(code.n, dtype=np.uint8)
        entries = []
        for i, supp in enumerate(pat.generators):
            union[list(supp)] = 1
            entries.extend((i, q) for q in supp)
        genmat = BinaryMatrix.from_entries(len(pat.generators), code.n, entries)
        extraneous = [v for v in stabilizers_within(code, union)
                      if not in_rowspace(genmat, v)]
        assert not extraneous

        cs = lp_osd_decode(code, pat.syndrome, cs_cfg, solver="scipy")
        assert is_success(code, pat.error, cs.correction)
        rnd = lp_round_decode(code, pat.syndrome, solver="scipy")
        round_failures += not is_success(code, pat.error, rnd.correction)
    assert round_failures >= math.ceil(0.9 * len(patterns))
    print(f"ACCEPTANCE 5 PASS: {len(patterns)} patterns, OSD-CS recovered all, "
          f"rounding failed {round_failures}/{len(patterns)} "
          f"({time.time()-started:.1f}s)")


def test_06_wrong_syndrome_dominates_rounding_failures():
    """Among rounding failures on the distance-11 surface code at p=0.05,
    most corrections do not even reproduce the syndrome."""
    started = time.time()
    code = rotated_surface_code(11)
    res = run_point(code, DecoderSpec("lp-round", solver="scipy"),
                    0.05, 2500, seed=3)
    elapsed = time.time() - started
    assert res.failures >= 200
    ratio = res.wrong_syndrome / res.failures
    assert ratio > 0.5
    assert elapsed < 1800
    print(f"ACCEPTANCE 6 PASS: {res.failures} failures, wrong-syndrome "
          f"fraction {ratio:.3f} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def ordering_results(bb72):
    """One joint 20000-trial run of the four LP pipelines on bb72 at p=0.03."""
    specs = [
        DecoderSpec("lp-round", solver="scipy"),
        DecoderSpec("lp-osd0", tie_break="distance", solver="scipy", label="dist"),
        DecoderSpec("lp-osd0", tie_break="random", solver="scipy", label="rand"),
        DecoderSpec("lp-osdcs", tie_break="distance", solver="scipy"),
    ]
    results = run_point(bb72, specs, 0.03, 20000, seed=0)
    return {r.decoder: r for r in results}


def test_07a_osd_stage_ordering_and_tie_break_direction(ordering_results):
    """OSD-CS <= OSD-0 <= rounding in failure rate, and distance tie-breaking
    does not lose to random tie-breaking."""
    res = ordering_results
    cs, osd0, rnd0, rounding = (res["lp-osdcs"], res["dist"], res["rand"],
                                res["lp-round"])
    assert cs.trials == 20000
    assert cs.p_l <= osd0.p_l <= rounding.p_l
    separated = osd0.ci_high < rnd0.ci_low
    if separated:
        assert osd0.p_l < rnd0.p_l
        note = "tie-break intervals separated"
    else:
        assert osd0.p_l <= rnd0.p_l
        note = ("tie-break gap statistically indistinguishable at this "
                "sample size; direction favors distance")
    print(f"ACCEPTANCE 7a PASS: failures cs={cs.failures} osd0={osd0.failures} "
          f"round={rounding.failures}; distance={osd0.failures} <= "
          f"random={rnd0.failures}; {note}")


def test_07b_extreme_pipelines_interval_separation(ordering_results):
    """95% intervals of the extreme pipelines must not overlap.

    Known red: see the module docstring.  Basic-solution LP backends
    resolve degenerate ties integrally, so at this code and noise level
    the fractional-solution rate (~0.6%) is far below the plain tie
    failure rate (~3.3%) and the extreme pipelines sit 0.00045 apart (9 of
    20000 trials) against ~0.0025 interval half-widths.
    """
    res = ordering_results
    cs, rounding = res["lp-osdcs"], res["lp-round"]
    print(f"ACCEPTANCE 7b: osd-cs ci=({cs.ci_low:.5f},{cs.ci_high:.5f}) "
          f"rounding ci=({rounding.ci_low:.5f},{rounding.ci_high:.5f}) "
          f"fractional={rounding.fractional}/20000")
    # half-widths shrink as 1/sqrt(trials): the intervals part once their
    # sum falls below the gap
    gap = rounding.p_l - cs.p_l
    half_widths = (cs.ci_high - cs.ci_low + rounding.ci_high - rounding.ci_low) / 2
    need = f"~{(half_widths / gap) ** 2:.0f}x more trials" if gap > 0 else "a better decoder"
    assert cs.ci_high < rounding.ci_low, (
        f"intervals overlap: separating a gap of {gap:.5f} from half-widths "
        f"summing to {half_widths:.5f} needs {need}"
    )


def test_08_exhaustive_low_weight_sweep_is_clean(surface5):
    """No failures up to the guaranteed correction radius."""
    started = time.time()
    clean = []
    for code, spec, bound in (
        (surface5, DecoderSpec("lp-osdcs"), 5),
        (sample_random_hgp(2, 0), DecoderSpec("lp-osdcs", solver="scipy"), None),
    ):
        d = bound if bound is not None else code.metadata["distance_floor"]
        radius = (d - 1) // 2
        rows = exhaustive_sweep(code, spec, radius)
        assert [r.weight for r in rows] == list(range(radius + 1))
        for r in rows:
            assert r.n_errors == math.comb(code.n, r.weight)
            assert r.n_failures == 0
        clean.append((code.name, radius, sum(r.n_errors for r in rows)))
    elapsed = time.time() - started
    assert elapsed < 1200
    print(f"ACCEPTANCE 8 PASS: zero failures in {clean} ({elapsed:.1f}s)")


def test_09_records_carry_everything_needed_for_rate_comparison(surface3):
    """Absolute failure-rate curves are implementation- and budget-relative,
    so there are no numeric rate targets to pin; instead every simulation
    record is self-describing enough to reproduce and compare runs."""
    res = run_point(surface3, DecoderSpec("lp-round"), 0.05, 20, seed=1)
    record = res.to_record()
    needed = {"code", "decoder", "pipeline", "p", "trials", "failures",
              "p_l", "ci_low", "ci_high", "p_ws", "fractional", "seed"}
    assert needed <= set(record)
    again = run_point(surface3, DecoderSpec("lp-round"), 0.05, 20, seed=1)
    a, b = res.to_record(), again.to_record()
    a.pop("mean_decode_seconds"), b.pop("mean_decode_seconds")
    assert a == b
    print("ACCEPTANCE 9 PASS: no absolute rate targets exist; records are "
          "self-describing and reruns with one seed are identical")
