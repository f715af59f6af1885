"""Tests for LP construction, solving, duality, reflection, and rounding."""

import itertools

import numpy as np
import pytest

from lposd import (
    BinaryMatrix,
    CheckWeightTooLarge,
    CssCode,
    DecoderSpec,
    Infeasible,
    LposdError,
    LpSolution,
    as_dual_solution,
    build_dual_lp,
    build_error_lp,
    build_overlap_pattern,
    build_syndrome_lp,
    dump_lp,
    hgp_layout,
    hypergraph_product,
    is_integral,
    named_bb_code,
    parity_subsets,
    repetition_parity_check,
    reflect_to_error_solution,
    reflect_to_syndrome_solution,
    rotated_surface_code,
    round_independent,
    sample_random_hgp,
    solve_lp,
)

from conftest import weight_limited_errors, with_zero_x_row


def brute_force_min_weight(code, s, cap):
    """Smallest weight of any error with the given syndrome, or None."""
    for w in range(cap + 1):
        for support in itertools.combinations(range(code.n), w):
            e = np.zeros(code.n, dtype=np.uint8)
            e[list(support)] = 1
            if np.array_equal(code.syndrome(e), s):
                return w
    return None


def residual(sol):
    """Largest equality-constraint violation of a solution."""
    model = sol.model
    r = model.a @ sol.values - model.b
    return float(np.abs(r).max()) if r.size else 0.0


def single_x_check_code(weight):
    hx = BinaryMatrix.from_entries(1, weight, [(0, q) for q in range(weight)])
    return CssCode(hx, BinaryMatrix([], weight), name=f"one-check-{weight}")


# ---------------------------------------------------------------------------
# subset enumeration and model shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("parity", [0, 1])
def test_parity_subsets_enumeration(width, parity):
    support = tuple(range(10, 10 + width))
    subs = parity_subsets(support, parity)
    assert len(subs) == 2 ** (width - 1)
    assert len(set(subs)) == len(subs)
    for sub in subs:
        assert set(sub) <= set(support)
        assert len(sub) % 2 == parity
        assert sub == tuple(sorted(sub))
    if parity == 0:
        assert () in subs


def test_single_check_mixture_enumeration():
    code = single_x_check_code(3)
    model = build_syndrome_lp(code, [1])
    assert sorted(model.mixture_subsets(0)) == [(0,), (1,), (2,), (0, 1, 2)] or \
        set(model.mixture_subsets(0)) == {(0,), (1,), (2,), (0, 1, 2)}
    even = build_syndrome_lp(code, [0])
    assert set(even.mixture_subsets(0)) == {(), (0, 1), (0, 2), (1, 2)}


def test_syndrome_model_shape(surface3):
    code = surface3
    m = code.hx.n_rows
    edges = sum(code.hx.row_weight(j) for j in range(m))
    aux = sum(2 ** (code.hx.row_weight(j) - 1) for j in range(m))
    s = np.zeros(m, dtype=np.uint8)
    s[0] = 1
    model = build_syndrome_lp(code, s)
    assert model.kind == "syndrome"
    assert model.n_qubits == code.n
    assert model.n_vars == code.n + aux
    assert model.a.shape == (m + edges, model.n_vars)
    assert np.array_equal(model.b[:m], np.ones(m))
    assert np.array_equal(model.b[m:], np.zeros(edges))
    assert np.all(model.row_sense == 0)
    assert not model.free_vars.any()
    assert np.array_equal(model.c[: code.n], np.ones(code.n))
    assert not model.c[code.n:].any()
    assert np.array_equal(model.meta["syndrome"], s)


def test_check_weight_cap_enforced():
    code = single_x_check_code(13)
    with pytest.raises(CheckWeightTooLarge):
        build_syndrome_lp(code, [1])
    with pytest.raises(CheckWeightTooLarge):
        build_error_lp(code, np.zeros(13, dtype=np.uint8))
    with pytest.raises(CheckWeightTooLarge):
        build_dual_lp(code, np.zeros(13, dtype=np.uint8))


def wide_tree_code():
    """A weight-13 check and two weight-2 checks in a tree: the LP is exact."""
    rows = [range(13), (12, 13), (13, 14)]
    hx = BinaryMatrix.from_entries(3, 15, [(j, q) for j, row in enumerate(rows) for q in row])
    return CssCode(hx, BinaryMatrix([], 15), name="wide-tree")


def test_default_decodes_take_checks_above_the_cap():
    import lposd.lp as lp_mod
    from lposd import lp_osd_decode, lp_round_decode, run_point

    code = wide_tree_code()
    for bits in itertools.product((0, 1), repeat=3):
        s = np.array(bits, dtype=np.uint8)
        for decode in (lp_osd_decode, lp_round_decode):
            res = decode(code, s)
            assert np.array_equal(code.syndrome(res.correction), s), (decode, bits)
            assert res.correction.sum() == brute_force_min_weight(code, s, 3), (decode, bits)
    res = run_point(code, "lp-osdcs", p=0.1, trials=60, seed=4)
    # an integral optimum is a minimum-weight correction of its syndrome
    assert res.stage_counts == {"integral-lp": 60}
    assert res.solver_faults == res.wrong_syndrome == 0
    assert lp_mod._LpTemplate not in code._derived  # the explicit model is never built


@pytest.mark.parametrize("solver", ["scipy", "embedded"])
def test_explicit_solvers_keep_the_check_weight_cap(solver):
    from lposd import lp_osd_decode, lp_round_decode, run_point

    code = wide_tree_code()
    s = np.array([1, 0, 0], dtype=np.uint8)
    for decode in (lp_osd_decode, lp_round_decode):
        with pytest.raises(CheckWeightTooLarge, match="weight 13 > 12"):
            decode(code, s, solver=solver)
    res = run_point(code, DecoderSpec("lp-osdcs", solver=solver), p=0.1, trials=30, seed=4)
    nonzero = res.trials - res.stage_counts.get("integral-lp", 0)
    assert res.solver_faults == res.stage_counts["solver-fault"] == nonzero > 0


def test_persistent_models_are_neither_pickled_nor_kept_alive():
    import gc
    import pickle
    import weakref

    import lposd.lp as lp_mod
    from lposd import lp_round_decode

    code = rotated_surface_code(3)
    s = code.syndrome(np.eye(code.n, dtype=np.uint8)[4])
    for solver in ("scipy", "cuts"):
        lp_round_decode(code, s, solver=solver)
    assert {lp_mod._HighsModel, lp_mod._CutsModel} <= set(code._derived)
    blob = pickle.dumps(code)
    for name in (b"_highspy", b"_HighsModel", b"_CutsModel"):
        assert name not in blob  # no HiGHS handle or model travels with the code
    assert not pickle.loads(blob)._derived
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None  # no model refers back to its code


# ---------------------------------------------------------------------------
# solving the syndrome formulation
# ---------------------------------------------------------------------------


def test_zero_syndrome_solves_to_zero(surface3):
    code = surface3
    model = build_syndrome_lp(code, np.zeros(code.hx.n_rows, dtype=np.uint8))
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert not sol.x().any()
    for j in range(code.hx.n_rows):
        assert sol.mixture_value(j, ()) == pytest.approx(1.0, abs=1e-9)


def test_integral_optimum_matches_brute_force(surface3):
    code = surface3
    integral_seen = 0
    for support, e in weight_limited_errors(code.n, 2):
        s = code.syndrome(e)
        sol = solve_lp(build_syndrome_lp(code, s))
        assert sol.status == "optimal"
        assert residual(sol) <= 1e-8
        best = brute_force_min_weight(code, s, cap=len(support))
        assert sol.objective <= best + 1e-9
        if is_integral(sol):
            integral_seen += 1
            assert round(sol.objective) == best
            rounded = round_independent(sol.x())
            assert np.array_equal(code.syndrome(rounded), s)
    assert integral_seen > 10


def test_fractional_optimum_beats_every_error(toy22):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dense_hz = code.hz.to_dense()
    g = dense_hz[lay.z_check(0, 1)]
    g2 = dense_hz[lay.z_check(1, 1)]
    pattern = build_overlap_pattern(code, g, g2)
    assert pattern.weight == 5
    sol = solve_lp(build_syndrome_lp(code, pattern.syndrome), solver="scipy")
    assert not is_integral(sol)
    assert sol.objective == pytest.approx(4.0, abs=1e-7)
    assert brute_force_min_weight(code, pattern.syndrome, cap=5) == 5


def test_weighted_objective_steers_solution():
    code = single_x_check_code(2)
    heavy_second = solve_lp(build_syndrome_lp(code, [1], weights=[1.0, 3.0]))
    assert np.array_equal(heavy_second.x(), [1, 0])
    assert heavy_second.objective == pytest.approx(1.0)
    heavy_first = solve_lp(build_syndrome_lp(code, [1], weights=[3.0, 1.0]))
    assert np.array_equal(heavy_first.x(), [0, 1])
    assert heavy_first.objective == pytest.approx(1.0)


@pytest.mark.parametrize("solver", ["embedded", "scipy", "cuts"])
def test_conflicting_unit_checks_are_infeasible(solver):
    hx = BinaryMatrix.from_entries(2, 1, [(0, 0), (1, 0)])
    code = CssCode(hx, BinaryMatrix([], 1), name="conflict")
    model = build_syndrome_lp(code, [1, 0])
    with pytest.raises(Infeasible):
        solve_lp(model, solver=solver)


def test_unreachable_syndrome_can_still_relax_fractionally():
    # s = (1, 0) on duplicate checks has no binary solution, yet the
    # relaxation admits x = (1/2, 1/2, 0); relaxation feasibility does not
    # imply syndrome reachability.
    hx = BinaryMatrix.from_entries(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    code = CssCode(hx, BinaryMatrix([], 3), name="dup-check")
    sol = solve_lp(build_syndrome_lp(code, [1, 0]))
    assert sol.status == "optimal"
    assert not is_integral(sol)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert brute_force_min_weight(code, np.array([1, 0], dtype=np.uint8), 3) is None


def test_backends_agree_on_random_syndromes(surface3):
    code = surface3
    rng = np.random.default_rng(7)
    for _ in range(12):
        e = (rng.random(code.n) < 0.2).astype(np.uint8)
        model = build_syndrome_lp(code, code.syndrome(e))
        a = solve_lp(model, solver="embedded")
        b = solve_lp(model, solver="scipy")
        assert a.objective == pytest.approx(b.objective, abs=1e-7)
        assert residual(a) <= 1e-8
        assert residual(b) <= 1e-8


# ---------------------------------------------------------------------------
# error-anchored formulation and duality
# ---------------------------------------------------------------------------


def test_error_lp_zero_reference_matches_zero_syndrome(surface3):
    code = surface3
    sol = solve_lp(build_error_lp(code, np.zeros(code.n, dtype=np.uint8)))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_error_lp_stabilizer_reference_hits_negative_weight(surface3):
    code = surface3
    stab = code.hz.to_dense()[0]
    assert not code.syndrome(stab).any()
    sol = solve_lp(build_error_lp(code, stab))
    assert sol.objective == pytest.approx(-float(stab.sum()), abs=1e-8)


def test_strong_duality_on_random_references(surface3, toy22):
    codes = [surface3, toy22[0]]
    rng = np.random.default_rng(11)
    for code in codes:
        for _ in range(8):
            e = (rng.random(code.n) < 0.25).astype(np.uint8)
            primal = solve_lp(build_error_lp(code, e), solver="scipy")
            dual = solve_lp(build_dual_lp(code, e), solver="scipy")
            assert abs(primal.objective - dual.objective) <= 1e-6


def test_dual_solution_satisfies_dual_constraints(surface3):
    code = surface3
    rng = np.random.default_rng(3)
    e = (rng.random(code.n) < 0.3).astype(np.uint8)
    sol = solve_lp(build_dual_lp(code, e), solver="scipy")
    dual = as_dual_solution(sol)
    assert len(dual.check_values) == code.hx.n_rows
    tan = code.tanner
    assert set(dual.edge_values) == set(tan.x_edges)
    assert dual.objective == pytest.approx(sum(dual.check_values), abs=1e-9)
    for q in range(code.n):
        total = sum(dual.edge_values[(q, j)] for j in tan.x_checks_of_qubit[q])
        assert total <= (1.0 - 2.0 * e[q]) + 1e-7
    for j in range(code.hx.n_rows):
        for subset in parity_subsets(tan.x_supports[j], 0):
            lhs = dual.check_values[j] - sum(
                dual.edge_values[(q, j)] for q in subset
            )
            assert lhs <= 1e-7


@pytest.mark.parametrize("solver", ["scipy", "embedded"])
def test_the_dual_prices_the_bound_of_a_qubit_no_check_touches(solver):
    """The primal boxes such a qubit at 1; the dual's price for that bound
    gives both the same optimum, and ``as_dual_solution`` leaves it out."""
    e = [1, 0, 1]
    for hx, optimum in ((BinaryMatrix.from_dense([[1, 1, 0]]), -1.0), (BinaryMatrix([], 3), -2.0)):
        code = CssCode(hx, BinaryMatrix([], 3))
        assert solve_lp(build_error_lp(code, e), solver="scipy").objective == optimum
        sol = solve_lp(build_dual_lp(code, e), solver=solver)
        assert sol.objective == pytest.approx(optimum, abs=1e-9)
        dual = as_dual_solution(sol)
        assert dual.check_values.size == hx.n_rows
        assert set(dual.edge_values) == set(code.tanner.x_edges)


def test_weak_duality_against_primal(surface3):
    code = surface3
    rng = np.random.default_rng(5)
    e = (rng.random(code.n) < 0.3).astype(np.uint8)
    primal = solve_lp(build_error_lp(code, e), solver="scipy")
    dual = solve_lp(build_dual_lp(code, e), solver="scipy")
    assert dual.objective <= primal.objective + 1e-7


# ---------------------------------------------------------------------------
# reflection between the two primal formulations
# ---------------------------------------------------------------------------


def test_reflection_round_trip_is_exact(surface3):
    code = surface3
    rng = np.random.default_rng(23)
    for _ in range(10):
        e = (rng.random(code.n) < 0.25).astype(np.uint8)
        s = code.syndrome(e)
        sol = solve_lp(build_syndrome_lp(code, s))
        mirrored = reflect_to_error_solution(sol, e)
        assert mirrored.model.kind == "error"
        assert mirrored.objective == sol.objective - float(e.sum())
        assert residual(mirrored) <= 1e-8
        back = reflect_to_syndrome_solution(mirrored)
        assert np.array_equal(back.values, sol.values)
        assert back.objective == pytest.approx(sol.objective, abs=1e-12)


def test_reflection_with_zero_reference_is_identity(surface3):
    code = surface3
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    sol = solve_lp(build_syndrome_lp(code, s))
    mirrored = reflect_to_error_solution(sol, np.zeros(code.n, dtype=np.uint8))
    assert np.array_equal(mirrored.values, sol.values)
    assert mirrored.objective == sol.objective


def test_reflection_objective_offsets_match_optima(surface3):
    code = surface3
    rng = np.random.default_rng(29)
    for _ in range(6):
        e = (rng.random(code.n) < 0.25).astype(np.uint8)
        syn_opt = solve_lp(build_syndrome_lp(code, code.syndrome(e)))
        err_opt = solve_lp(build_error_lp(code, e))
        assert syn_opt.objective - err_opt.objective == pytest.approx(
            float(e.sum()), abs=1e-7
        )


def test_reflection_rejects_mismatched_reference(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[0] = 1
    sol = solve_lp(build_syndrome_lp(code, code.syndrome(e)))
    wrong = np.zeros(code.n, dtype=np.uint8)
    with pytest.raises(LposdError):
        reflect_to_error_solution(sol, wrong)
    with pytest.raises(LposdError):
        reflect_to_syndrome_solution(sol)
    # an error-anchored solution reflects only through its own reference
    err_sol = solve_lp(build_error_lp(code, e))
    own = reflect_to_syndrome_solution(err_sol)
    assert np.array_equal(reflect_to_syndrome_solution(err_sol, e.copy()).values, own.values)
    with pytest.raises(LposdError, match="does not match the model's reference"):
        reflect_to_syndrome_solution(err_sol, wrong)
    other = np.zeros(code.n, dtype=np.uint8)
    other[1] = 1
    with pytest.raises(LposdError, match="does not match the model's reference"):
        reflect_to_syndrome_solution(err_sol, other)


# ---------------------------------------------------------------------------
# integrality tests and rounding
# ---------------------------------------------------------------------------


def test_is_integral_on_vectors():
    assert is_integral(np.array([0.0, 1.0, 0.0]))
    assert not is_integral(np.array([0.5, 0.0]))
    assert is_integral(np.array([1.0 - 5e-7, 3e-7]))
    assert not is_integral(np.array([1.0 - 2e-6]))


def test_is_integral_ignores_mixture_variables(surface3):
    code = surface3
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    sol = solve_lp(build_syndrome_lp(code, s))
    values = sol.values.copy()
    values[code.n] = 0.37
    perturbed = LpSolution(
        model=sol.model,
        values=values,
        objective=sol.objective,
        status=sol.status,
        iterations=sol.iterations,
        solver=sol.solver,
    )
    assert is_integral(perturbed)


def test_round_independent_conventions():
    out = round_independent([0.2, 0.8, 0.5, 1.0, 0.0])
    assert out.dtype == np.uint8
    assert np.array_equal(out, [0, 1, 1, 1, 0])


# ---------------------------------------------------------------------------
# interchange dump
# ---------------------------------------------------------------------------


def test_dump_lp_layout(tmp_path, surface3):
    code = surface3
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[1] = 1
    model = build_syndrome_lp(code, s)
    path = tmp_path / "model.lp"
    dump_lp(model, path)
    text = path.read_text()
    assert text.splitlines()[1] == "Minimize"
    assert "Subject To" in text
    assert text.rstrip().endswith("End")
    rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("r")]
    assert len(rows) == model.a.shape[0]
    names = model.var_names()
    assert len(set(names)) == model.n_vars
    assert names[0] in text


def test_dump_lp_names_the_empty_block_of_a_zero_check(tmp_path):
    from lposd import rotated_surface_code

    code = with_zero_x_row(rotated_surface_code(3), 1)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[1] = 1
    model = build_syndrome_lp(code, s)
    names = model.var_names()
    assert len(names) == len(set(names)) == model.n_vars == 30
    assert "w1_none" in names
    path = tmp_path / "zero-check.lp"
    dump_lp(model, path)
    assert path.read_text().rstrip().endswith("End")


# ---------------------------------------------------------------------------
# persistent HiGHS model behind solver="scipy"
# ---------------------------------------------------------------------------


def linprog_objective(model):
    from scipy.optimize import linprog

    res = linprog(model.c, A_eq=model.a, b_eq=model.b, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def random_syndromes(code, count, p, seed):
    rng = np.random.default_rng(seed)
    return [code.syndrome((rng.random(code.n) < p).astype(np.uint8))
            for _ in range(count)]


@pytest.fixture(scope="module")
def persistent_codes(surface5, bb72):
    from lposd import sample_random_hgp

    return [surface5, bb72, sample_random_hgp(2, 0)]


def test_persistent_model_matches_linprog(persistent_codes):
    for code in persistent_codes:
        models = [build_syndrome_lp(code, s)
                  for s in random_syndromes(code, 6, 0.05, 31)]
        rng = np.random.default_rng(37)
        models.append(build_syndrome_lp(
            code, models[0].meta["syndrome"], weights=rng.uniform(0.5, 2.0, code.n)))
        models.append(build_error_lp(code, (rng.random(code.n) < 0.1).astype(np.uint8)))
        # mixture costs take the one-off HiGHS model instead of the persistent one
        mixed = build_syndrome_lp(code, models[1].meta["syndrome"])
        picked = rng.choice(np.arange(code.n, mixed.n_vars), size=code.n, replace=False)
        mixed.c[picked] = rng.uniform(0.1, 1.0, picked.size)
        models.append(mixed)
        for model in models:
            sol = solve_lp(model, solver="scipy")
            assert sol.values.shape == (model.n_vars,)
            assert residual(sol) <= 1e-8
            assert abs(sol.objective - linprog_objective(model)) <= 1e-9


def test_persistent_model_is_order_independent(bb72):
    syndromes = random_syndromes(bb72, 8, 0.04, 41)
    forward = [solve_lp(build_syndrome_lp(bb72, s), solver="scipy").x()
               for s in syndromes]
    backward = [solve_lp(build_syndrome_lp(bb72, s), solver="scipy").x()
                for s in reversed(syndromes)]
    for a, b in zip(forward, reversed(backward)):
        assert np.array_equal(a, b)


def memo_of(code, solver="scipy"):
    """The decode path's memo of LP outcomes for one code and solver, keyed
    by ``memo_key``."""
    import lposd.sim as sim_mod

    return code._derived[sim_mod._memos][solver]


def memo_key(s):
    """The memo's key of a 0/1 syndrome: its packed bits."""
    return np.packbits(s).tobytes()


@pytest.fixture
def counted_solves(monkeypatch):
    """The syndrome of every LP solve the decode path makes, appended to a list."""
    import lposd.sim as sim_mod

    calls = []
    real_solve = sim_mod._solve_syndrome
    monkeypatch.setattr(sim_mod, "_solve_syndrome",
                        lambda code, s, *args: calls.append(s) or real_solve(code, s, *args))
    return calls


def same_outcome(a, b):
    return (np.array_equal(a.correction, b.correction) and a.stage == b.stage
            and a.diagnostics == b.diagnostics)


def test_memo_hits_match_cold_solves(persistent_codes, counted_solves):
    import pickle

    from lposd import lp_round_decode

    for shared, solver in itertools.product(persistent_codes, ("scipy", "cuts")):
        blob = pickle.dumps(shared)
        code = pickle.loads(blob)  # starts with an empty memo
        syndromes = random_syndromes(code, 6, 0.05, 43)
        weights = np.random.default_rng(47).uniform(0.5, 2.0, code.n)
        stored = set()
        # weighted decodes in the middle always solve and leave the memo alone
        for w in (None, weights, None):
            for s in syndromes + syndromes[::-1]:
                before = len(counted_solves)
                res = lp_round_decode(code, s, solver=solver, weights=w)
                solved = s.any() and not (w is None and memo_key(s) in stored)
                assert len(counted_solves) - before == solved
                if solved and w is None:  # fractional outcomes are kept too
                    stored.add(memo_key(s))
                cold = lp_round_decode(pickle.loads(blob), s, solver=solver, weights=w)
                assert same_outcome(res, cold)
            assert stored and set(memo_of(code, solver)) == stored


@pytest.mark.parametrize("solver", ["scipy", "cuts", "embedded"])
def test_fractional_hits_match_cold_solves(toy22, solver, counted_solves):
    import pickle

    import lposd.sim as sim_mod
    from lposd import OsdConfig, lp_osd_decode, lp_round_decode

    shared, h1, h2 = toy22
    blob = pickle.dumps(shared)
    code = pickle.loads(blob)
    lay = hgp_layout(h1, h2)
    dense_hz = code.hz.to_dense()
    s = build_overlap_pattern(code, dense_hz[lay.z_check(0, 1)],
                              dense_hz[lay.z_check(1, 1)]).syndrome
    first = lp_round_decode(code, s, solver=solver)
    assert first.diagnostics["fractional"] and first.stage == "rounded-lp"
    assert list(memo_of(code, solver)) == [memo_key(s)]
    before = len(counted_solves)
    correction, soft, stage, diag = sim_mod._lp_front(code, s, solver, None)
    assert len(counted_solves) == before  # answered by the memo
    cold = sim_mod._lp_front(pickle.loads(blob), s, solver, None)
    assert np.array_equal(correction, cold[0]) and stage is cold[2] is None
    assert diag == cold[3] and diag["fractional"]
    assert soft.dtype == cold[1].dtype and soft.tobytes() == cold[1].tobytes()
    for order in ("osd0", "osd_cs"):
        cfg = OsdConfig(order=order)
        warm = lp_osd_decode(code, s, cfg, solver=solver)
        assert same_outcome(warm, lp_osd_decode(pickle.loads(blob), s, cfg, solver=solver))
    assert len(counted_solves) == before + 3  # only the fresh codes solved


def test_error_lp_and_weighted_decodes_leave_the_memo_exact(surface5, counted_solves):
    import pickle

    from lposd import lp_round_decode

    blob = pickle.dumps(surface5)
    code = pickle.loads(blob)
    e = np.zeros(code.n, dtype=np.uint8)
    e[[4, 17]] = 1
    s = code.syndrome(e)
    other = code.syndrome(np.eye(code.n, dtype=np.uint8)[9])
    first = lp_round_decode(code, s, solver="scipy")
    assert first.stage == "integral-lp"
    assert list(memo_of(code)) == [memo_key(s)]
    # both put other costs on the code's persistent HiGHS model
    anchored = solve_lp(build_error_lp(code, e), solver="scipy")
    lp_round_decode(code, s, solver="scipy", weights=np.linspace(0.5, 2.0, code.n))
    assert list(memo_of(code)) == [memo_key(s)]
    before = len(counted_solves)
    again = lp_round_decode(code, s, solver="scipy")
    assert len(counted_solves) == before  # answered by the memo
    miss = lp_round_decode(code, other, solver="scipy")
    assert len(counted_solves) == before + 1
    fresh = pickle.loads(blob)
    assert same_outcome(again, lp_round_decode(fresh, s, solver="scipy"))
    assert same_outcome(miss, lp_round_decode(fresh, other, solver="scipy"))
    cold = solve_lp(build_error_lp(pickle.loads(blob), e), solver="scipy")
    assert np.array_equal(anchored.values, cold.values)
    assert (anchored.objective, anchored.iterations) == (cold.objective, cold.iterations)


def test_memo_is_bounded_and_least_recently_used_goes_first(monkeypatch):
    import lposd.sim as sim_mod
    from lposd import lp_round_decode

    monkeypatch.setattr(sim_mod, "_MEMO_ENTRIES", 3)
    code = rotated_surface_code(5)
    unique = {}
    for q in range(code.n):
        s = code.syndrome(np.eye(code.n, dtype=np.uint8)[q])
        unique.setdefault(memo_key(s), s)
    syndromes = list(unique.items())
    keys = []
    for key, s in syndromes[:8]:
        assert lp_round_decode(code, s, solver="scipy").stage == "integral-lp"
        keys = (keys + [key])[-3:]
        assert list(memo_of(code)) == keys
    # a hit makes its entry the most recently used, so the next one drops another
    hit = lp_round_decode(code, syndromes[5][1], solver="scipy")
    lp_round_decode(code, syndromes[8][1], solver="scipy")
    assert list(memo_of(code)) == [keys[2], keys[0], syndromes[8][0]]
    # a hit hands out its own array: changing it leaves the memo as it was
    hit.correction[:] = 1
    again = lp_round_decode(code, syndromes[5][1], solver="scipy")
    assert again.correction.sum() == 1


def test_solve_lp_runs_its_backend_on_every_call(surface5, monkeypatch):
    import lposd.lp as lp_mod

    runs = []
    real_run = lp_mod._run_highs
    monkeypatch.setattr(lp_mod, "_run_highs",
                        lambda core, highs: runs.append(1) or real_run(core, highs))
    model = build_syndrome_lp(surface5, surface5.syndrome(np.eye(surface5.n, dtype=np.uint8)[7]))
    first = solve_lp(model, solver="scipy")
    second = solve_lp(model, solver="scipy")
    assert len(runs) == 2
    assert is_integral(first) and np.array_equal(first.values, second.values)
    assert (first.objective, first.iterations) == (second.objective, second.iterations)


def test_blocked_highs_extension_is_a_solver_error(monkeypatch):
    import sys

    import lposd.lp as lp_mod
    from lposd import rotated_surface_code, run_point

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    code = rotated_surface_code(3)
    s = np.zeros(code.hx.n_rows, dtype=np.uint8)
    s[0] = 1
    with pytest.raises(LposdError):
        solve_lp(build_syndrome_lp(code, s), solver="scipy")
    res = run_point(code, "lp-osdcs", p=0.1, trials=40, seed=3)
    # only a zero syndrome, which needs no solve, escapes the fault
    assert set(res.stage_counts) == {"integral-lp", "solver-fault"}
    nonzero = res.trials - res.stage_counts["integral-lp"]
    assert res.solver_faults == res.stage_counts["solver-fault"] == nonzero > 0
    assert not {lp_mod._HighsModel, lp_mod._CutsModel} & set(code._derived)  # none was built


# ---------------------------------------------------------------------------
# adaptive LP decoding behind solver="cuts"
# ---------------------------------------------------------------------------


def violated_forbidden_sets(code, s, x):
    """Every forbidden-set inequality of the syndrome polytope that x
    violates by more than 1e-9, enumerated subset by subset."""
    out = []
    for j, support in enumerate(code.tanner.x_supports):
        for subset in parity_subsets(support, 1 - int(s[j])):
            inside = sum(x[q] for q in subset)
            outside = sum(x[q] for q in support if q not in subset)
            if inside - outside > len(subset) - 1 + 1e-9:
                out.append((j, subset))
    return out


@pytest.fixture(scope="module")
def cuts_codes(surface5, bb72):
    return [surface5, rotated_surface_code(7), bb72, named_bb_code("bb144"),
            sample_random_hgp(2, 0), with_zero_x_row(surface5, 3)]


def cuts_models(code, count, seed):
    """Syndrome models of random errors, unweighted and weighted, each
    followed by the model anchored at its error."""
    rng = np.random.default_rng(seed)
    models = []
    for k in range(count):
        e = (rng.random(code.n) < 0.06).astype(np.uint8)
        weights = None if k % 2 else rng.uniform(0.2, 3.0, code.n)
        models.append(build_syndrome_lp(code, code.syndrome(e), weights))
        models.append(build_error_lp(code, e))
    return models


def reference_cuts(code, x, s):
    """The most violated forbidden-set inequality of each check x violates,
    check by check: (check, subset) pairs."""
    out = []
    for j, support in enumerate(code.tanner.x_supports):
        if not support:
            continue
        subset = {q for q in support if x[q] > 0.5}
        if len(subset) % 2 == s[j]:  # move the first qubit nearest 1/2 across
            subset ^= {min(support, key=lambda q: abs(2 * x[q] - 1))}
        slack = sum(1 - x[q] if q in subset else x[q] for q in support)
        if slack < 1 - 1e-6:
            out.append((j, tuple(sorted(subset))))
    return out


@pytest.mark.parametrize("make", [lambda: rotated_surface_code(5),
                                  lambda: named_bb_code("bb72"),
                                  lambda: with_zero_x_row(rotated_surface_code(3), 1)])
def test_cut_separation_matches_a_check_by_check_loop(make):
    import lposd.lp as lp_mod

    code = make()
    model = code._cached(lp_mod._CutsModel)
    rng = np.random.default_rng(67)
    for _ in range(40):
        # quarters, so every sum is exact and ties for the member nearest
        # 1/2 are common
        x = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], code.n, p=[0.3, 0.1, 0.2, 0.1, 0.3])
        s = rng.integers(0, 2, code.hx.n_rows).astype(np.int8)
        expected = reference_cuts(code, x, s)
        cuts = model._cuts(x, s[code.tanner.x_segment_check])
        if not expected:
            assert cuts is None
            continue
        rows, lower, upper, nnz, starts, index, value = cuts
        assert rows == len(expected) and nnz == index.size == value.size
        assert (lower == -np.inf).all()
        ends = np.append(starts[1:], nnz)
        for (j, subset), lo, hi, bound in zip(expected, starts, ends, upper):
            assert index[lo:hi].tolist() == list(code.tanner.x_supports[j])
            assert [q for q, v in zip(index[lo:hi], value[lo:hi]) if v == 1.0] == list(subset)
            assert bound == len(subset) - 1


def test_cuts_objectives_match_the_explicit_lp(cuts_codes):
    for code in cuts_codes:
        for model in cuts_models(code, 6, 53):
            explicit = solve_lp(model, solver="scipy")
            cuts = solve_lp(model, solver="cuts")
            assert cuts.solver == "cuts" and cuts.values.shape == (code.n,)
            assert abs(cuts.objective - explicit.objective) <= 1e-9
            x = cuts.x()
            assert ((x >= 0.0) & (x <= 1.0)).all()
            assert cuts.objective == pytest.approx(float(model.c[: code.n] @ x), abs=1e-9)
            parities = model.meta["parities"]
            if max(map(len, code.tanner.x_supports)) <= 8:
                assert violated_forbidden_sets(code, parities, x) == []


def test_cuts_honours_negative_costs(surface5):
    rng = np.random.default_rng(59)
    for _ in range(5):
        s = surface5.syndrome((rng.random(surface5.n) < 0.1).astype(np.uint8))
        model = build_syndrome_lp(surface5, s, rng.uniform(-1.0, 2.0, surface5.n))
        cuts = solve_lp(model, solver="cuts")
        assert cuts.x().max() <= 1.0  # the box, not a row, bounds each qubit
        assert abs(cuts.objective - solve_lp(model, solver="scipy").objective) <= 1e-9


def test_cuts_is_order_independent_and_survives_pickling(cuts_codes):
    import pickle

    for code in cuts_codes[:4]:
        blob = pickle.dumps(code)
        models = cuts_models(code, 8, 61)
        forward = [solve_lp(m, solver="cuts") for m in models]
        backward = [solve_lp(m, solver="cuts") for m in reversed(models)][::-1]
        fresh = pickle.loads(blob)
        assert not fresh._derived  # no model came with the pickle
        cold = [solve_lp(m, solver="cuts") for m in cuts_models(fresh, 8, 61)]
        for a, b, c in zip(forward, backward, cold):
            for other in (b, c):
                assert np.array_equal(a.values, other.values)
                assert (a.objective, a.iterations) == (other.objective, other.iterations)


@pytest.mark.parametrize("solver", ["embedded", "scipy", "cuts"])
def test_a_flipped_check_without_qubits_is_infeasible(surface5, solver):
    padded = with_zero_x_row(surface5, 3)
    e = np.zeros(surface5.n, dtype=np.uint8)
    e[[4, 17]] = 1
    s = padded.syndrome(e)
    assert solve_lp(build_syndrome_lp(padded, s), solver=solver).objective \
        == pytest.approx(2.0, abs=1e-9)
    s[3] = 1
    with pytest.raises(Infeasible):
        solve_lp(build_syndrome_lp(padded, s), solver=solver)


def test_cuts_solutions_carry_qubit_values_only(surface5):
    e = np.zeros(surface5.n, dtype=np.uint8)
    e[[4, 17]] = 1
    sol = solve_lp(build_syndrome_lp(surface5, surface5.syndrome(e)), solver="cuts")
    assert sol.values.shape == (surface5.n,) and is_integral(sol)
    subset = sol.model.mixture_subsets(0)[0]
    with pytest.raises(LposdError, match="qubit values only"):
        sol.mixture_value(0, subset)
    with pytest.raises(LposdError, match="qubit values only"):
        reflect_to_error_solution(sol, e)
    anchored = solve_lp(build_error_lp(surface5, e), solver="cuts")
    with pytest.raises(LposdError, match="qubit values only"):
        reflect_to_syndrome_solution(anchored)


def test_cuts_rejects_dual_and_mixture_cost_models(surface5):
    e = np.zeros(surface5.n, dtype=np.uint8)
    e[[4, 17]] = 1
    with pytest.raises(LposdError, match="mixture costs"):
        solve_lp(build_dual_lp(surface5, e), solver="cuts")
    mixed = build_syndrome_lp(surface5, surface5.syndrome(e))
    mixed.c[surface5.n + 2] = 0.5
    with pytest.raises(LposdError, match="mixture costs"):
        solve_lp(mixed, solver="cuts")


def test_cuts_round_cap_raises_iteration_limit(monkeypatch):
    import lposd.lp as lp_mod
    from lposd import IterationLimit, lp_osd_decode, run_point

    code = rotated_surface_code(5)  # a code no other test has warmed
    e = np.zeros(code.n, dtype=np.uint8)
    e[[4, 17]] = 1
    model = build_syndrome_lp(code, code.syndrome(e))
    assert 0 < solve_lp(model, solver="cuts").iterations
    monkeypatch.setattr(lp_mod, "_CUT_ROUNDS_PER_QUBIT", 0)
    with pytest.raises(IterationLimit, match="after 0 rounds"):
        solve_lp(model, solver="cuts")
    with pytest.raises(IterationLimit):
        lp_osd_decode(code, model.meta["syndrome"], solver="cuts")
    res = run_point(code, "lp-osdcs", p=0.1, trials=30, seed=3)
    nonzero = res.trials - res.stage_counts.get("integral-lp", 0)
    assert res.solver_faults == res.stage_counts["solver-fault"] == nonzero > 0


def test_cuts_non_optimal_round_is_a_solver_fault(monkeypatch):
    import lposd.lp as lp_mod
    import lposd.sim as sim_mod
    from lposd import lp_round_decode, run_point

    code = rotated_surface_code(5)
    s = code.syndrome(np.eye(code.n, dtype=np.uint8)[7])
    code._cached(lp_mod._CutsModel)._highs.setOptionValue("time_limit", 0.0)
    with pytest.raises(LposdError, match="Time limit"):
        lp_round_decode(code, s, solver="cuts")
    res = run_point(code, DecoderSpec("lp-round", solver="cuts"), p=0.1, trials=30, seed=3)
    assert res.solver_faults == res.stage_counts["solver-fault"] > 0
    assert not code._derived[sim_mod._memos]["cuts"]  # a fault is never remembered


# ---------------------------------------------------------------------------
# default backend, lazy constraint matrix, lean import
# ---------------------------------------------------------------------------


def eager_matrix(code, parities):
    """A model's constraint matrix, assembled entry by entry from the Tanner graph."""
    m_x = code.hx.n_rows
    edge_row = {edge: m_x + p for p, edge in enumerate(code.tanner.x_edges)}
    entries = {}
    col = code.n
    for j, support in enumerate(code.tanner.x_supports):
        for q in support:
            entries[edge_row[(q, j)], q] = -1.0
        for t, subset in enumerate(parity_subsets(support, parities[j])):
            entries[j, col + t] = 1.0
            for q in subset:
                entries[edge_row[(q, j)], col + t] = 1.0
        col += 1 << max(len(support) - 1, 0)
    dense = np.zeros((m_x + len(edge_row), col))
    for (r, c), v in entries.items():
        dense[r, c] = v
    return dense


@pytest.mark.parametrize("fixture", ["surface5", "bb72"])
def test_lazy_matrix_matches_eager_assembly(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    e = (rng.random(code.n) < 0.05).astype(np.uint8)
    models = [build_syndrome_lp(code, code.syndrome(e)),
              build_syndrome_lp(code, code.syndrome(e), weights=rng.uniform(0.5, 2, code.n)),
              build_error_lp(code, e)]
    for model in models:
        assert model._a is None
        eager = eager_matrix(code, model.meta["parities"])
        assert model.a.shape == eager.shape == (model.b.size, model.n_vars)
        assert np.array_equal(model.a.toarray(), eager)
        assert model.a is model.a  # assembled once


# sha256 of dump_lp output, recorded while build_syndrome_lp and
# build_error_lp still assembled the matrix eagerly
_DUMP_DIGESTS = {
    "surface5": {
        "syndrome": "f94e26fcbc0dadc01a94cf49497731d1976dd4dd3418cbe30baf30cf0521e493",
        "weighted": "b6f6d9d412cf08f82cb3aebeedbaad1e1741e1c3e81e31a485662f4f6b1cc800",
        "error": "154260772ff0db36f277dedb4a4b18e1bb5b3085d6205c5450efddfab927c6da",
        "dual": "a545a7374f0c0e10c78700859ed2cc2350f765312ea2ecc4d115ba8a6bd2059e",
    },
    "bb72": {
        "syndrome": "86de551a13d7fd7860570f402a5f36ab7ec6356561290da553445b3d45fa7044",
        "weighted": "035dfe973ea82c36e49dcc1d46573858647b0ea746e231b864e40e813270846a",
        "error": "a83fea07626629479fe9d4de9e0738847ce9de7c67ce8caf54f05df991821ed9",
        "dual": "3a405cfde179b0d1c74677dec44d47d25a945d27b42e1a1d458478f92dec7e22",
    },
}


@pytest.mark.parametrize("fixture", ["surface5", "bb72"])
def test_dump_lp_output_unchanged(fixture, request, tmp_path):
    import hashlib

    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    e = (rng.random(code.n) < 0.05).astype(np.uint8)
    s = code.syndrome(e)
    models = {"syndrome": build_syndrome_lp(code, s),
              "weighted": build_syndrome_lp(code, s, rng.uniform(0.5, 2.0, code.n)),
              "error": build_error_lp(code, e),
              "dual": build_dual_lp(code, e)}
    for kind, model in models.items():
        path = tmp_path / f"{kind}.lp"
        dump_lp(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _DUMP_DIGESTS[fixture][kind], kind



def hand_dual(code, e):
    """The dual LP's (a, b, c), assembled row by row from the Tanner graph.

    One row per qubit (its edge weights sum to at most 1 - 2 e_q), then one
    per even subset of each check's support (the check's score is at most
    the subset's edge weights); variables are the check scores, then the
    edge weights in the template's edge order.
    """
    import scipy.sparse as sp

    tan = code.tanner
    m_x = code.hx.n_rows
    edge_col = {edge: m_x + p for p, edge in enumerate(tan.x_edges)}
    rows, cols, vals, b = [], [], [], []
    for q in range(code.n):
        for j in tan.x_checks_of_qubit[q]:
            rows.append(len(b))
            cols.append(edge_col[q, j])
            vals.append(1.0)
        b.append(1.0 - 2.0 * float(e[q]))
    for j in range(m_x):
        for subset in parity_subsets(tan.x_supports[j], 0):
            rows.append(len(b))
            cols.append(j)
            vals.append(1.0)
            for q in subset:
                rows.append(len(b))
                cols.append(edge_col[q, j])
                vals.append(-1.0)
            b.append(0.0)
    c = np.zeros(m_x + len(edge_col))
    c[:m_x] = 1.0
    a = sp.coo_matrix((vals, (rows, cols)), shape=(len(b), c.size)).tocsc()
    return a, np.asarray(b), c


@pytest.mark.parametrize("make", [
    lambda: rotated_surface_code(5), lambda: named_bb_code("bb72"),
    lambda: sample_random_hgp(2, 0),
    lambda: with_zero_x_row(rotated_surface_code(3), 1),
    lambda: with_zero_x_row(rotated_surface_code(3), 4),
], ids=["surface5", "bb72", "random-hgp", "zero-row-middle", "zero-row-end"])
def test_dual_matches_hand_assembly(make):
    code = make()
    rng = np.random.default_rng(9)
    for _ in range(3):
        e = (rng.random(code.n) < 0.2).astype(np.uint8)
        model = build_dual_lp(code, e)
        a, b, c = hand_dual(code, e)
        assert model.a.shape == a.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(model.a, name), getattr(a, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        for got, want in ((model.b, b), (model.c, c)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.all(model.row_sense == -1) and model.row_sense.size == b.size
        assert model.free_vars.all() and model.free_vars.size == c.size


# sha256 of (values, objective, iterations) and the edge prices of four dual
# solves per code, recorded while build_dual_lp assembled its matrix by hand
_DUAL_SOLUTION_DIGESTS = {
    ("surface3", "scipy"): "8a1557e9248f6268972122c92fb86658f91b4e855cc6addc16374fd238a5aad7",
    ("surface3", "embedded"): "6ea379795c8222b108472a1653557faf276c0fd3f9cd98188c4d504d9f7aa323",
    ("toy22", "scipy"): "bf1d40599be0b4e5df5bdd771da5272006f24d7a9d767bcb1bab1c1290f58672",
    ("toy22", "embedded"): "f4dea91d54bfbe36b9a10f2fed83bafb925bbbe12be8c7497355c4d146145669",
}


@pytest.mark.parametrize("fixture,solver", sorted(_DUAL_SOLUTION_DIGESTS))
def test_dual_solutions_unchanged(fixture, solver, request):
    import hashlib

    code = request.getfixturevalue(fixture)
    if fixture == "toy22":
        code = code[0]
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for _ in range(4):
        e = (rng.random(code.n) < 0.25).astype(np.uint8)
        sol = solve_lp(build_dual_lp(code, e), solver=solver)
        digest.update(sol.values.tobytes())
        digest.update(repr((sol.objective, sol.iterations)).encode())
        digest.update(repr(sorted(as_dual_solution(sol).edge_values.items())).encode())
    assert digest.hexdigest() == _DUAL_SOLUTION_DIGESTS[fixture, solver]

def template_triplets(code):
    """The template's entries as (vals, rows, cols) and its shape, from the Tanner graph."""
    m_x = code.hx.n_rows
    edge_row = {edge: m_x + p for p, edge in enumerate(code.tanner.x_edges)}
    rows, cols = [], []
    col = code.n
    for j, support in enumerate(code.tanner.x_supports):
        for q in support:
            rows.append(edge_row[q, j])
            cols.append(q)
        for parity in (0, 1):
            for t, subset in enumerate(parity_subsets(support, parity)):
                for r in (j, *(edge_row[q, j] for q in subset)):
                    rows.append(r)
                    cols.append(col + t)
            col += 1 << max(len(support) - 1, 0)
    rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
    return np.where(cols < code.n, -1.0, 1.0), rows, cols, (m_x + len(edge_row), col)


@pytest.mark.parametrize("make", [
    lambda: rotated_surface_code(5), lambda: named_bb_code("bb72"),
    lambda: sample_random_hgp(2, 0),
    lambda: with_zero_x_row(rotated_surface_code(3), 1),
    lambda: with_zero_x_row(rotated_surface_code(3), 4),
], ids=["surface5", "bb72", "random-hgp", "zero-row-middle", "zero-row-end"])
def test_template_arrays_match_scipy_csc(make):
    import scipy.sparse as sp

    from lposd.lp import _LpTemplate

    code = make()
    tpl = code._cached(_LpTemplate)
    vals, rows, cols, shape = template_triplets(code)
    ref = sp.csc_matrix((vals, (rows, cols)), shape=shape)
    assert tpl.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(tpl, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_lean_import_keeps_scipy_optimize_out():
    # Importing lposd and decoding with LP or BP load neither scipy.sparse
    # nor scipy.optimize, only scipy's HiGHS extension.  The matrix view,
    # the dump, dual models and the embedded simplex load scipy.sparse
    # when first used; a dual solve reuses the loaded extension.
    import os
    import subprocess
    import sys
    import textwrap

    import lposd

    script = textwrap.dedent("""
        import os
        import sys
        import tempfile
        import numpy as np
        import lposd
        from lposd import (bp_osd_decode, build_dual_lp, build_syndrome_lp, dump_lp,
                           lp_osd_decode, rotated_surface_code, run_point, solve_lp)

        def assert_absent(*names):
            loaded = [m for m in names if m in sys.modules]
            assert not loaded, loaded

        assert_absent("scipy.sparse", "scipy.optimize")
        code = rotated_surface_code(5)
        e = np.zeros(code.n, dtype=np.uint8)
        e[[3, 11]] = 1
        s = code.syndrome(e)
        res = lp_osd_decode(code, s)
        assert res.diagnostics["solver"] == "cuts", res.diagnostics
        assert lposd.lp._CutsModel in code._derived
        assert lposd.lp._HighsModel not in code._derived
        assert lposd.lp._LpTemplate not in code._derived  # the explicit model is never built
        assert_absent("scipy.sparse", "scipy.optimize", "scipy.special")
        bp_osd_decode(code, s)
        assert_absent("scipy.sparse")
        run_point(code, ["lp-round", "lp-osdcs", "bp-osd0"], p=0.05, trials=30, seed=1)
        assert_absent("scipy.sparse", "scipy.optimize", "scipy.special")
        core = sys.modules["scipy.optimize._highspy._core"]

        model = build_syndrome_lp(code, s)
        assert model.a.shape == (model.b.size, model.n_vars)
        with tempfile.TemporaryDirectory() as tmp:
            dump_lp(model, os.path.join(tmp, "model.lp"))
        embedded = solve_lp(model, solver="embedded")
        assert embedded.objective == res.diagnostics["objective"]
        sol = solve_lp(build_dual_lp(code, e))
        assert sol.status == "optimal" and sol.solver == "scipy"
        assert "scipy.optimize" not in sys.modules
        assert sys.modules["scipy.optimize._highspy._core"] is core
        print("ok", sol.objective)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lposd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("ok")


def test_a_qubit_no_check_touches_is_boxed_at_one():
    """Such a qubit's column meets no row of the explicit model, so only its
    upper bound of 1 keeps a negative cost from running off to -inf."""
    from lposd import lp_osd_decode

    no_checks = CssCode(BinaryMatrix([], 3), BinaryMatrix([], 3))
    model = build_error_lp(no_checks, [1, 0, 1])
    for solver in ("scipy", "cuts"):
        sol = solve_lp(model, solver=solver)
        assert sol.objective == -2.0
        assert np.array_equal(sol.x(), [1.0, 0.0, 1.0])
    one_check = CssCode(BinaryMatrix.from_dense([[1, 1, 0]]), BinaryMatrix([], 3))
    weights = [1.0, 1.0, -0.5]
    for solver in ("scipy", "cuts"):
        res = lp_osd_decode(one_check, [1], solver=solver, weights=weights)
        assert res.diagnostics["objective"] == pytest.approx(0.5)
        assert np.array_equal(one_check.syndrome(res.correction), [1])
    # mixture costs send the model to a one-off HiGHS model, which boxes it too
    model = build_syndrome_lp(one_check, [1], weights=weights)
    model.c[one_check.n:] = 0.25
    assert solve_lp(model).objective == pytest.approx(0.75)
    # the embedded simplex has no column bounds: it reports the ray, never an optimum
    with pytest.raises(LposdError):
        solve_lp(build_error_lp(no_checks, [1, 0, 1]), solver="embedded")
    with pytest.raises(LposdError):
        lp_osd_decode(one_check, [1], solver="embedded", weights=weights)


def _surface3_lp(kind):
    """The surface-3 LP of ``kind`` around the error on qubit 4."""
    code = rotated_surface_code(3)
    e = np.zeros(code.n, dtype=np.uint8)
    e[4] = 1
    if kind == "syndrome":
        return build_syndrome_lp(code, code.syndrome(e))
    return {"error": build_error_lp, "dual": build_dual_lp}[kind](code, e)


def _empty_subset_of_a_flipped_check():
    model = _surface3_lp("syndrome")
    return model.mixture_col(int(np.flatnonzero(model.meta["parities"])[0]), ())


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: solve_lp(_surface3_lp("syndrome"), solver="simplex"),
     ValueError, "unknown solver 'simplex'"),
    (_empty_subset_of_a_flipped_check, LposdError, r"subset \(\) is not a parity-1 subset"),
    (lambda: solve_lp(_surface3_lp("dual")).x(), LposdError,
     "dual models have no qubit variables"),
    (lambda: as_dual_solution(solve_lp(_surface3_lp("syndrome"))), LposdError,
     "not a dual model"),
    (lambda: reflect_to_error_solution(solve_lp(_surface3_lp("error")), np.zeros(9, np.uint8)),
     LposdError, "expected a solution of the syndrome LP"),
], ids=["unknown-solver", "mixture-parity", "dual-x", "primal-as-dual", "reflect-error-lp"])
def test_lp_rejects_misused_models(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
