"""Tests for uncorrectable-pattern construction and exact certificates."""

import dataclasses
import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from lposd import (
    BinaryMatrix,
    CssCode,
    InvalidParameter,
    PreconditionViolated,
    SamplingExhausted,
    ZCycle,
    build_cycle_pattern,
    build_overlap_pattern,
    build_syndrome_lp,
    check_poison,
    hgp_cycle,
    hgp_layout,
    hypergraph_product,
    in_rowspace,
    is_reduced,
    rank,
    read_patterns,
    repetition_parity_check,
    search_patterns,
    solve_lp,
    stabilizers_within,
    verify_certificate,
    verify_hgp_cycle,
    write_patterns,
)
from lposd.codes import named_bb_code, rotated_surface_code, sample_random_hgp
from lposd.patterns import _row_search, pattern_to_record, record_to_pattern
from reference_certificate import reference_verify_certificate
from reference_row_search import reference_row_search


@pytest.fixture(scope="module")
def toy_pattern(toy22):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dz = code.hz.to_dense()
    pattern = build_overlap_pattern(
        code, dz[lay.z_check(0, 1)], dz[lay.z_check(1, 1)]
    )
    return code, pattern


@pytest.fixture(scope="module")
def ring_pattern(ring108):
    code, h_ring, h_c9 = ring108
    lay = hgp_layout(h_ring, h_c9)
    dz = code.hz.to_dense()
    gens = [dz[lay.z_check(b, 0)] for b in range(4)]
    return code, build_cycle_pattern(code, gens)


def span_rows(vectors, n):
    dense = np.zeros((len(vectors), n), dtype=np.uint8)
    for i, v in enumerate(vectors):
        dense[i] = v
    return BinaryMatrix.from_dense(dense)


def flow_lp_status(code, e):
    """Feasibility LP of the simplified dual flow conditions.

    Variables are one free value per X Tanner edge; a qubit's incident
    values must sum to at most +1 (clean) or -1 (in the error), and every
    pair of values at a check must have nonnegative sum.
    """
    tan = code.tanner
    edges = list(tan.x_edges)
    col = {edge: i for i, edge in enumerate(edges)}
    rows_ub, rhs = [], []
    for q in range(code.n):
        row = np.zeros(len(edges))
        for j in tan.x_checks_of_qubit[q]:
            row[col[(q, j)]] = 1.0
        rows_ub.append(row)
        rhs.append(1.0 - 2.0 * float(e[q]))
    for j in range(code.hx.n_rows):
        for a, b in itertools.combinations(tan.x_supports[j], 2):
            row = np.zeros(len(edges))
            row[col[(a, j)]] = -1.0
            row[col[(b, j)]] = -1.0
            rows_ub.append(row)
            rhs.append(0.0)
    res = linprog(
        np.zeros(len(edges)),
        A_ub=np.array(rows_ub),
        b_ub=np.array(rhs),
        bounds=[(None, None)] * len(edges),
        method="highs",
    )
    return res, edges


# ---------------------------------------------------------------------------
# overlap construction
# ---------------------------------------------------------------------------


def test_overlap_pattern_on_toy_code(toy_pattern):
    code, pattern = toy_pattern
    assert pattern.kind == "overlap"
    assert pattern.weight == 5
    assert pattern.claimed_objective == Fraction(4)
    assert pattern.reduced_verified == "yes"
    assert len(pattern.link_qubits) == 2
    assert pattern.corrupted_link in pattern.link_qubits
    union = set().union(*pattern.generators)
    assert set(np.flatnonzero(pattern.error)) <= union
    assert pattern.syndrome.any()
    assert np.array_equal(code.syndrome(pattern.error), pattern.syndrome)
    report = verify_certificate(code, pattern)
    assert report.ok, report.violations
    assert report.objective == Fraction(4)


def test_certificate_structure(toy_pattern):
    code, pattern = toy_pattern
    cert = pattern.certificate
    assert all(v == Fraction(1, 2) for v in cert.x.values())
    assert len(cert.x) == 8
    assert sum(cert.x.values()) == Fraction(4)
    for (j, subset), val in cert.w.items():
        assert val in (Fraction(1, 2), Fraction(1))
        assert tuple(sorted(subset)) == subset
        assert len(subset) % 2 == int(pattern.syndrome[j])
    # every check contributes exactly unit mass
    mass = {}
    for (j, _), val in cert.w.items():
        mass[j] = mass.get(j, Fraction(0)) + val
    assert set(mass) == set(range(code.hx.n_rows))
    assert all(total == 1 for total in mass.values())


def test_lp_strictly_prefers_fractional_point(toy_pattern):
    code, pattern = toy_pattern
    sol = solve_lp(build_syndrome_lp(code, pattern.syndrome), solver="scipy")
    assert sol.objective <= float(pattern.claimed_objective) + 1e-7
    assert sol.objective < pattern.weight - 1e-6


def test_certificate_mutations_are_caught(toy_pattern):
    code, pattern = toy_pattern
    cert = pattern.certificate

    shifted_x = dict(cert.x)
    first = next(iter(shifted_x))
    shifted_x[first] = Fraction(1, 4)
    bad_x = dataclasses.replace(pattern, certificate=dataclasses.replace(
        cert, x=shifted_x))
    assert not verify_certificate(code, bad_x).ok

    dropped_w = dict(cert.w)
    dropped_w.pop(next(iter(dropped_w)))
    bad_w = dataclasses.replace(pattern, certificate=dataclasses.replace(
        cert, w=dropped_w))
    assert not verify_certificate(code, bad_w).ok

    wrong_parity = dict(cert.w)
    j = int(np.flatnonzero(pattern.syndrome)[0])
    support = code.tanner.x_supports[j]
    wrong_parity[(j, tuple(sorted(support[:2])))] = Fraction(0)
    bad_parity = dataclasses.replace(pattern, certificate=dataclasses.replace(
        cert, w=wrong_parity))
    report = verify_certificate(code, bad_parity)
    assert not report.ok
    assert any("parity" in v for v in report.violations)

    bad_claim = dataclasses.replace(pattern,
                                    claimed_objective=Fraction(7, 2))
    assert not verify_certificate(code, bad_claim).ok


def _mutations(code, pattern):
    """Certificates that break every check ``verify_certificate`` makes,
    plus int, float and thirds versions that keep or break it."""
    cert = pattern.certificate

    def with_cert(**changes):
        return dataclasses.replace(pattern, certificate=dataclasses.replace(cert, **changes))

    x_first = next(iter(cert.x))
    j = int(np.flatnonzero(pattern.syndrome)[0])
    support = code.tanner.x_supports[j]
    off_support = next(q for q in range(code.n) if q not in support)
    (key, val), *_ = cert.w.items()
    return {
        "qubit out of range": with_cert(x={**cert.x, code.n: Fraction(1, 2)}),
        "x outside [0, 1]": with_cert(x={**cert.x, x_first: Fraction(3, 2)}),
        "check out of range": with_cert(w={**cert.w, (code.hx.n_rows, ()): Fraction(1)}),
        "unsorted subset": with_cert(w={**cert.w, (j, tuple(support[2::-1])): Fraction(1, 2)}),
        "off-support subset": with_cert(w={**cert.w, (j, (off_support,)): Fraction(1, 2)}),
        "wrong parity": with_cert(w={**cert.w, (j, tuple(support[:2])): Fraction(0)}),
        "negative weight": with_cert(w={**cert.w, (j, tuple(support[:3])): Fraction(-1, 2)}),
        "dropped weight": with_cert(w={k: v for k, v in cert.w.items() if k != key}),
        "edge mismatch": with_cert(x={**cert.x, x_first: Fraction(1)}),
        "stored objective": with_cert(objective=cert.objective + 1),
        "claimed objective": dataclasses.replace(pattern, claimed_objective=Fraction(7, 2)),
        "thirds": with_cert(x={**cert.x, x_first: Fraction(1, 3)},
                            w={**cert.w, key: val - Fraction(1, 3)}),
        "ints": with_cert(x={i: int(v) if v.denominator == 1 else v for i, v in cert.x.items()},
                          w={k: int(v) if v.denominator == 1 else v for k, v in cert.w.items()},
                          objective=int(cert.objective)),
        "numpy ints": with_cert(w={k: np.int64(v) if v == 1 else v for k, v in cert.w.items()}),
        "floats": with_cert(x={i: float(v) for i, v in cert.x.items()},
                            w={k: float(v) for k, v in cert.w.items()},
                            objective=float(cert.objective)),
        "floats dropped": with_cert(x={i: float(v) for i, v in cert.x.items()},
                                    w={k: float(v) for k, v in cert.w.items() if k != key}),
        "float x": with_cert(x={**cert.x, x_first: 0.75}),
        "float w": with_cert(w={**cert.w, key: 0.25}),
    }


def _oracle_codes_and_patterns(toy22, ring108, bb72):
    toy, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dz = toy.hz.to_dense()
    yield toy, build_overlap_pattern(toy, dz[lay.z_check(0, 1)], dz[lay.z_check(1, 1)])
    surface5 = rotated_surface_code(5)
    dz5 = surface5.hz.to_dense()
    yield surface5, build_overlap_pattern(surface5, dz5[0] ^ dz5[3], dz5[3] ^ dz5[7])
    for pattern in search_patterns(ring108[0], max_cycle_len=8, limit=3):
        yield ring108[0], pattern
    for pattern in search_patterns(bb72, limit=12):
        yield bb72, pattern


def test_verify_certificate_matches_frozen_fraction_check(toy22, ring108, bb72):
    seen = set()
    for code, pattern in _oracle_codes_and_patterns(toy22, ring108, bb72):
        cases = {"as built": pattern, **_mutations(code, pattern)}
        for name, case in cases.items():
            got = verify_certificate(code, case)
            want = reference_verify_certificate(code, case)
            assert got == want, name
            assert type(got.objective) is type(want.objective), name
            assert got.ok == (name in ("as built", "ints", "numpy ints", "floats")), name
            seen.update(got.violations)
    for fragment in ("qubit index out of range", "outside [0, 1]",
                     "check index out of range", "not a sorted subset",
                     "subset parity", "is negative", ", not 1", "edge (qubit",
                     "stored objective", "!= witnessed", "!= weight-1", "1/3",
                     "sum to 0.5, not 1"):
        assert any(fragment in v for v in seen), fragment


def test_overlap_preconditions(toy22, ring108):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dz = code.hz.to_dense()
    odd = dz[lay.z_check(0, 0)]
    assert odd.sum() % 2 == 1
    even = dz[lay.z_check(0, 1)]
    with pytest.raises(PreconditionViolated):
        build_overlap_pattern(code, odd, even)
    not_stab = np.zeros(code.n, dtype=np.uint8)
    not_stab[[0, 1]] = 1
    assert not in_rowspace(code.hz, not_stab)
    with pytest.raises(PreconditionViolated):
        build_overlap_pattern(code, not_stab, even)

    rcode, h_ring, h_c9 = ring108
    rlay = hgp_layout(h_ring, h_c9)
    rdz = rcode.hz.to_dense()
    disjoint = [rdz[rlay.z_check(0, 0)], rdz[rlay.z_check(2, 0)]]
    with pytest.raises(PreconditionViolated):
        build_overlap_pattern(rcode, *disjoint)
    single_link = [rdz[rlay.z_check(0, 0)], rdz[rlay.z_check(1, 0)]]
    with pytest.raises(PreconditionViolated):
        build_overlap_pattern(rcode, *single_link)


# ---------------------------------------------------------------------------
# ring construction
# ---------------------------------------------------------------------------


def test_cycle_pattern_on_ring_code(ring_pattern):
    code, pattern = ring_pattern
    assert pattern.kind == "cycle"
    assert pattern.weight == 9
    assert pattern.claimed_objective == Fraction(8)
    assert pattern.reduced_verified == "unchecked"
    assert len(set(pattern.link_qubits)) == 4
    assert pattern.corrupted_link in pattern.link_qubits
    report = verify_certificate(code, pattern)
    assert report.ok, report.violations
    sol = solve_lp(build_syndrome_lp(code, pattern.syndrome), solver="scipy")
    assert sol.objective == pytest.approx(8.0, abs=1e-7)


def test_two_generators_dispatch_to_overlap(toy22):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    dz = code.hz.to_dense()
    gens = [dz[lay.z_check(0, 1)], dz[lay.z_check(1, 1)]]
    pattern = build_cycle_pattern(code, gens)
    assert pattern.kind == "overlap"
    assert pattern.weight == 5


def test_cycle_preconditions(ring108):
    code, h_ring, h_c9 = ring108
    lay = hgp_layout(h_ring, h_c9)
    dz = code.hz.to_dense()
    with pytest.raises(PreconditionViolated):
        build_cycle_pattern(code, [dz[lay.z_check(0, 0)]])
    broken = [dz[lay.z_check(b, 0)] for b in (0, 1, 2)]
    with pytest.raises(PreconditionViolated):
        build_cycle_pattern(code, broken)


def test_cycle_rejects_corner_blocked_square():
    # A 4-ring whose links alternate between the two qubit blocks: the X
    # check at each corner sees a link but not the generator sum, so the
    # certificate cannot exist and the builder must refuse.
    h6 = BinaryMatrix.from_entries(
        6, 6, [(i, (i + d) % 6) for i in range(6) for d in range(3)])
    code = hypergraph_product(h6, h6, name="square36")
    lay = hgp_layout(h6, h6)
    dz = code.hz.to_dense()
    gens = [dz[lay.z_check(0, 0)], dz[lay.z_check(2, 0)],
            dz[lay.z_check(2, 2)], dz[lay.z_check(0, 2)]]
    with pytest.raises(PreconditionViolated):
        build_cycle_pattern(code, gens)


# ---------------------------------------------------------------------------
# flow conditions
# ---------------------------------------------------------------------------


def test_check_poison_accepts_hand_built_flow():
    hx = BinaryMatrix.from_entries(1, 2, [(0, 0), (0, 1)])
    from lposd import CssCode

    code = CssCode(hx, BinaryMatrix([], 2), name="twin")
    e = np.array([1, 0], dtype=np.uint8)
    good = {(0, 0): -1.0, (1, 0): 1.0}
    assert check_poison(code, e, good).ok

    unbalanced = {(0, 0): -1.0, (1, 0): 0.5}
    report = check_poison(code, e, unbalanced)
    assert not report.ok
    assert any("check 0" in v for v in report.violations)

    slack = {(0, 0): 0.0, (1, 0): 0.0}
    report = check_poison(code, e, slack)
    assert not report.ok
    assert any("qubit 0" in v for v in report.violations)

    with pytest.raises(InvalidParameter):
        check_poison(code, e, {(0, 0): -1.0})


def test_zero_flow_certifies_zero_error(surface3):
    code = surface3
    tau = {edge: 0.0 for edge in code.tanner.x_edges}
    assert check_poison(code, np.zeros(code.n, dtype=np.uint8), tau).ok


def test_flow_system_solvable_exactly_off_pattern(surface3, toy_pattern):
    code, pattern = toy_pattern
    res, _ = flow_lp_status(code, pattern.error)
    assert res.status == 2  # infeasible: nothing can certify the pattern

    e = np.zeros(surface3.n, dtype=np.uint8)
    e[4] = 1
    res, edges = flow_lp_status(surface3, e)
    assert res.status == 0
    tau = {edge: float(res.x[i]) for i, edge in enumerate(edges)}
    assert check_poison(surface3, e, tau).ok


# ---------------------------------------------------------------------------
# reducedness
# ---------------------------------------------------------------------------


def test_is_reduced_tri_state(toy_pattern, ring_pattern):
    toy_code, toy_pat = toy_pattern
    ring_code, ring_pat = ring_pattern

    assert is_reduced(toy_code, np.zeros(toy_code.n, dtype=np.uint8)).status == "yes"

    stab = toy_code.hz.to_dense()[0]
    verdict = is_reduced(toy_code, stab)
    assert verdict.status == "no"
    assert verdict.witness is not None
    assert verdict.witness.sum() < stab.sum()
    assert in_rowspace(toy_code.hz, verdict.witness ^ stab)

    assert is_reduced(toy_code, toy_pat.error).status == "yes"
    assert is_reduced(ring_code, ring_pat.error).status == "unchecked"


# ---------------------------------------------------------------------------
# rings inside hypergraph products
# ---------------------------------------------------------------------------


def test_hgp_cycle_short_form():
    h_g4 = BinaryMatrix.from_entries(
        2, 4, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3)])
    h5 = repetition_parity_check(5)
    code = hypergraph_product(h_g4, h5, name="g4rep5")
    cycle = hgp_cycle(h_g4, h5, ((0, 0, 1, 1), 0))
    assert len(cycle.checks) == 2
    verify_hgp_cycle(code, cycle)
    dz = code.hz.to_dense()
    pattern = build_cycle_pattern(code, [dz[c] for c in cycle.checks])
    assert pattern.kind == "overlap"
    assert verify_certificate(code, pattern).ok


def test_hgp_cycle_long_form():
    h7 = BinaryMatrix.from_entries(
        7, 7, [(i, (i + d) % 7) for i in range(7) for d in range(3)])
    code = hypergraph_product(h7, h7, name="c7sq")
    cycle = hgp_cycle(h7, h7, ((0, 2, 2, 4, 4), (0, 0, 2, 2, 4)))
    assert len(cycle.checks) == 8
    assert len(set(cycle.checks)) == 8
    verify_hgp_cycle(code, cycle)
    dz = code.hz.to_dense()
    pattern = build_cycle_pattern(code, [dz[c] for c in cycle.checks])
    assert pattern.kind == "cycle"
    assert pattern.weight == 17
    assert pattern.claimed_objective == Fraction(16)
    assert verify_certificate(code, pattern).ok


def test_hgp_cycle_rejects_bad_walks():
    h7 = BinaryMatrix.from_entries(
        7, 7, [(i, (i + d) % 7) for i in range(7) for d in range(3)])
    with pytest.raises(InvalidParameter):
        hgp_cycle(h7, h7, ((0, 1, 2),))
    with pytest.raises(PreconditionViolated):
        hgp_cycle(h7, h7, ((0, 0, 1), 0))  # odd-length walk
    with pytest.raises(PreconditionViolated):
        hgp_cycle(h7, h7, ((0, 0, 1, 1), 99))  # bit out of range
    with pytest.raises(PreconditionViolated):
        hgp_cycle(h7, h7, ((0, 5, 1, 6), 0))  # edge (0,5) absent
    with pytest.raises(PreconditionViolated):
        hgp_cycle(h7, h7, ((0, 2, 2, 4, 4), (0, 0, 0, 2, 4)))  # repeats a vertex


def test_verify_hgp_cycle_detects_wrong_links(ring108):
    code, h_ring, h_c9 = ring108
    lay = hgp_layout(h_ring, h_c9)
    checks = tuple(lay.z_check(b, 0) for b in range(4))
    good_links = []
    dz = code.hz.to_dense()
    for idx in range(4):
        shared = np.flatnonzero(dz[checks[idx]] & dz[checks[(idx + 1) % 4]])
        good_links.append(int(shared[0]))
    verify_hgp_cycle(code, ZCycle(checks=checks, qubits=tuple(good_links)))
    rotated = tuple(good_links[1:] + good_links[:1])
    with pytest.raises(PreconditionViolated):
        verify_hgp_cycle(code, ZCycle(checks=checks, qubits=rotated))


def test_verify_hgp_cycle_rejects_a_star(bb72):
    # Z checks 3, 6 and 12 all contain qubit 0 and meet nowhere else: each
    # pair shares one qubit, but the three links coincide, so no ring
    dz = bb72.hz.to_dense()
    checks = (3, 6, 12)
    for a, b in ((3, 6), (6, 12), (12, 3)):
        assert np.flatnonzero(dz[a] & dz[b]).tolist() == [0]
    with pytest.raises(PreconditionViolated):
        verify_hgp_cycle(bb72, ZCycle(checks=checks, qubits=(0, 0, 0)))
    with pytest.raises(PreconditionViolated, match="not distinct"):
        build_cycle_pattern(bb72, [dz[c] for c in checks])


# ---------------------------------------------------------------------------
# search and serialization
# ---------------------------------------------------------------------------


def test_search_patterns_finds_verified_patterns(ring108):
    code, _, _ = ring108
    found = search_patterns(code, max_cycle_len=8, limit=3)
    assert 1 <= len(found) <= 3
    for pattern in found:
        assert verify_certificate(code, pattern).ok
        assert pattern.claimed_objective == pattern.weight - 1
        assert np.array_equal(code.syndrome(pattern.error), pattern.syndrome)


def test_search_respects_limit(ring108):
    code, _, _ = ring108
    found = search_patterns(code, max_cycle_len=8, limit=1)
    assert len(found) == 1


def test_search_rejects_a_limit_below_one(bb72):
    for limit in (0, -3):
        with pytest.raises(InvalidParameter, match="limit"):
            search_patterns(bb72, limit=limit)


def _records(patterns):
    return [pattern_to_record(p) for p in patterns]


@pytest.mark.parametrize("name", ["bb72", "ring108", "toy22"])
def test_warm_searches_equal_fresh_ones(name, monkeypatch):
    import lposd.patterns as patterns_mod
    from conftest import make_ring108, make_toy22

    # toy22 keeps one valid ring of its five cycles; bb72 and ring108 keep all
    def build():
        return {"bb72": lambda: named_bb_code("bb72"), "ring108": lambda: make_ring108()[0],
                "toy22": lambda: make_toy22()[0]}[name]()

    max_len = 12 if name == "bb72" else 8
    warm = build()
    calls = {"cycle": 0, "stabilizer": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(patterns_mod, "_bfs_cycle_path",
                        counted("cycle", patterns_mod._bfs_cycle_path))
    monkeypatch.setattr(patterns_mod, "_check_stabilizer",
                        counted("stabilizer", patterns_mod._check_stabilizer))
    # a limit of 3 caps the search at 64 cycles, fewer than bb72 has
    first = search_patterns(warm, max_cycle_len=max_len, limit=3, rng_seed=0)
    assert calls["cycle"] > 0 and calls["stabilizer"] > 0
    calls.update(cycle=0, stabilizer=0)
    assert _records(search_patterns(warm, max_cycle_len=max_len, limit=3, rng_seed=0)) \
        == _records(first)
    assert calls == {"cycle": 0, "stabilizer": 0}

    for seed, limit in ((1, 10), (2, 3), (3, 200), (1, 1)):
        got = search_patterns(warm, max_cycle_len=max_len, limit=limit, rng_seed=seed)
        want = search_patterns(build(), max_cycle_len=max_len, limit=limit, rng_seed=seed)
        assert got and _records(got) == _records(want), (seed, limit)

    loaded = pickle.loads(pickle.dumps(warm))
    calls.update(cycle=0, stabilizer=0)
    again = search_patterns(loaded, max_cycle_len=max_len, limit=10, rng_seed=4)
    # no ring travels with the pickle: the loaded code rebuilds its own
    assert calls["cycle"] > 0 and calls["stabilizer"] > 0
    assert _records(again) == _records(
        search_patterns(build(), max_cycle_len=max_len, limit=10, rng_seed=4))


def test_serialization_round_trip(tmp_path, ring_pattern, ring108):
    code, pattern = ring_pattern
    extra = search_patterns(code, max_cycle_len=8, limit=1)
    patterns = [pattern] + extra
    path = tmp_path / "patterns.jsonl"
    write_patterns(patterns, path, code_ref="ring108")
    loaded = read_patterns(path, code)
    assert len(loaded) == len(patterns)
    for before, after in zip(patterns, loaded):
        assert before.kind == after.kind
        assert np.array_equal(before.error, after.error)
        assert np.array_equal(before.syndrome, after.syndrome)
        assert before.generators == after.generators
        assert before.link_qubits == after.link_qubits
        assert before.corrupted_link == after.corrupted_link
        assert before.claimed_objective == after.claimed_objective
        assert before.reduced_verified == after.reduced_verified
        assert before.certificate.x == after.certificate.x
        assert before.certificate.w == after.certificate.w
        assert verify_certificate(code, after).ok


def test_record_preserves_exact_fractions(ring_pattern):
    code, pattern = ring_pattern
    record = pattern_to_record(pattern, code_ref="ring108")
    rebuilt = record_to_pattern(record, code)
    assert rebuilt.certificate.objective == Fraction(8)
    assert all(isinstance(v, Fraction) for v in rebuilt.certificate.x.values())


@pytest.mark.parametrize("bad", ["negative", "repeated", "too-large", "fractional"])
@pytest.mark.parametrize("field", ["error_support", "syndrome_support", "link_qubits",
                                   "generators"])
def test_record_rejects_bad_support_indices(ring_pattern, field, bad):
    code, pattern = ring_pattern
    record = pattern_to_record(pattern, code_ref="ring108")
    size = code.hx.n_rows if field == "syndrome_support" else code.n
    indices = record[field][0] if field == "generators" else record[field]
    indices.append({"negative": -1, "repeated": indices[0], "too-large": size,
                    "fractional": 0.5}[bad])
    message = (f"^{field} (must have length {size}|entries must be 0 or 1"
               "|must list integer indices)$")
    with pytest.raises(ValueError, match=message):
        record_to_pattern(record, code)


@pytest.mark.parametrize("bad", ["not-a-link", "outside-the-error"])
def test_record_rejects_a_corrupted_link_off_the_ring_or_the_error(ring_pattern, bad):
    code, pattern = ring_pattern
    record = pattern_to_record(pattern, code_ref="ring108")
    if bad == "not-a-link":
        record["corrupted_link"] = next(q for q in record["error_support"]
                                        if q not in record["link_qubits"])
    else:
        record["error_support"].remove(record["corrupted_link"])
    with pytest.raises(ValueError, match="^corrupted_link must be one of link_qubits"):
        record_to_pattern(record, code)


@pytest.fixture(scope="module")
def bb72_record(bb72):
    return pattern_to_record(search_patterns(bb72, limit=1, rng_seed=3)[0], code_ref="bb72")


@pytest.mark.parametrize("field, value", [
    ("generators", [[-5, 999]]), ("link_qubits", [-1]), ("corrupted_link", 500),
    ("kind", "bogus"), ("reduced_verified", "maybe")])
def test_record_rejects_each_bad_field_on_bb72(bb72, bb72_record, field, value):
    assert record_to_pattern(bb72_record, bb72).kind in ("overlap", "cycle")
    with pytest.raises(ValueError, match=f"^{field} "):
        record_to_pattern({**bb72_record, field: value}, bb72)


# ---------------------------------------------------------------------------
# stabilizers inside a support
# ---------------------------------------------------------------------------


def test_stabilizers_within_pattern_support(toy_pattern):
    code, pattern = toy_pattern
    union = sorted(set().union(*pattern.generators))
    inside = stabilizers_within(code, np.isin(np.arange(code.n), union).astype(np.uint8))
    gen_span = span_rows(
        [np.isin(np.arange(code.n), list(g)).astype(np.uint8)
         for g in pattern.generators],
        code.n,
    )
    mask = np.zeros(code.n, dtype=bool)
    mask[union] = True
    for vec in inside:
        assert in_rowspace(code.hz, vec)
        assert not vec[~mask].any()
        assert in_rowspace(gen_span, vec)


def test_stabilizers_within_full_support_recovers_everything(toy_pattern):
    code, pattern = toy_pattern
    everything = stabilizers_within(code, np.ones(code.n, dtype=np.uint8))
    assert len(everything) == rank(code.hz)
    gen_span = span_rows(
        [np.isin(np.arange(code.n), list(g)).astype(np.uint8)
         for g in pattern.generators],
        code.n,
    )
    assert any(not in_rowspace(gen_span, vec) for vec in everything)


# sha256 of the serialized records, recorded while each builder ran its own
# sampling loop and graded every pick twice
_PATTERN_DIGESTS = {
    "search-bb72": "4d17ff6a68ca06cd72974753818dda74ffc1318d2d298106a6e3259debaf733d",
    "search-ring108": "26791b7654921a18a1ca6899d6d4b6f41d0f9e1213fc9805624f61337daf7065",
    # recorded before search_patterns kept prepared rings; toy22's one valid
    # ring is its third cycle, whose index seeds the picks
    "search-toy22": "cdfd032da2ea036fae616dd19d55d3825a5449bf04db39940baa569e2193fa77",
    "overlap-toy22": "75c3436bc15661ddf4c5dd7d1bd881042bc5968ef2138323cbf8e564ad61e956",
    "cycle-ring108": "d7a9d5213f479e64852eaf52b5caff8c8ace15681c24442d2a5789bdd59cb95d",
    # picks here are resampled when two Z rows make them lighter, and the
    # coset walk grades the accepted ones "no"
    "overlap-surface5": "4606d4eb9d7c5b575f49a75dd5640d576cae1c20c973d9c453d7ad311c8959b4",
}


@pytest.mark.parametrize("case", sorted(_PATTERN_DIGESTS))
def test_pattern_records_unchanged(case, toy22, ring108, bb72):
    import hashlib
    import json

    if case == "search-bb72":
        patterns = [p for seed in range(3) for p in search_patterns(bb72, rng_seed=seed)]
    elif case == "search-ring108":
        patterns = [p for seed in range(5)
                    for p in search_patterns(ring108[0], max_cycle_len=8, limit=3,
                                             rng_seed=seed)]
    elif case == "search-toy22":
        patterns = [p for seed in range(5)
                    for p in search_patterns(toy22[0], max_cycle_len=8, limit=3,
                                             rng_seed=seed)]
    elif case == "overlap-toy22":
        code, h1, h2 = toy22
        lay = hgp_layout(h1, h2)
        dz = code.hz.to_dense()
        patterns = [build_overlap_pattern(code, dz[lay.z_check(0, 1)],
                                          dz[lay.z_check(1, 1)], seed)
                    for seed in range(10)]
    elif case == "overlap-surface5":
        code = rotated_surface_code(5)
        dz = code.hz.to_dense()
        patterns = [build_overlap_pattern(code, dz[0] ^ dz[3], dz[3] ^ dz[7], seed)
                    for seed in range(10)]
    else:
        code, h_ring, h_c9 = ring108
        lay = hgp_layout(h_ring, h_c9)
        dz = code.hz.to_dense()
        patterns = [build_cycle_pattern(code, [dz[lay.z_check(b, 0)] for b in range(4)], seed)
                    for seed in range(10)]
    records = json.dumps([pattern_to_record(p) for p in patterns], sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == _PATTERN_DIGESTS[case]


def test_sampling_gives_up_when_every_pick_is_lighter(ring108):
    code = ring108[0]
    dz = code.hz.to_dense()
    with pytest.raises(SamplingExhausted, match="no reduced pick found in 200 overlap samples"):
        build_overlap_pattern(code, dz[0], dz[1] ^ dz[8])


@pytest.mark.parametrize("name", ["bb72", "toy22", "random-hgp"])
def test_row_search_matches_the_frozen_loop(name, toy22, bb72):
    code = {"bb72": lambda: bb72, "toy22": lambda: toy22[0],
            "random-hgp": lambda: sample_random_hgp(2, 0)}[name]()
    rng = np.random.default_rng(61)
    rows = code.hz.rows
    def near_a_row_sum():
        t = rows[rng.integers(len(rows))]
        if rng.random() < 0.5:
            t ^= rows[rng.integers(len(rows))]
        t &= ~(1 << int(rng.integers(code.n)))  # drops a qubit if t holds it
        return t ^ (1 << int(rng.integers(code.n)))

    picks = [0]
    for _ in range(300):
        # a random sparse pick, one near a sum of one or two Z rows, and the
        # union of two such, which a second row pair may make lighter too
        e = int.from_bytes(np.packbits(rng.random(code.n) < rng.uniform(0.02, 0.2),
                                       bitorder="little").tobytes(), "little")
        picks += [e, near_a_row_sum(), near_a_row_sum() | near_a_row_sum()]
    found = [_row_search(code, e) for e in picks]
    assert found == [reference_row_search(code, e) for e in picks]
    lighter = [(e, f) for e, f in zip(picks, found) if f is not None]
    assert lighter and len(lighter) < len(found)  # both outcomes are exercised
    assert any(e ^ f not in rows for e, f in lighter)  # and so is a row pair



def _eleven_qubit_ring():
    """Four weight-4 Z stabilizers on 11 qubits (no X checks): consecutive
    members share exactly one link (qubits 0-3), but members 0 and 2 also
    share qubit 4."""
    supports = [(3, 0, 4, 5), (0, 1, 6, 7), (1, 2, 4, 8), (2, 3, 9, 10)]
    gens = [np.isin(np.arange(11), sup).astype(np.uint8) for sup in supports]
    return CssCode(BinaryMatrix([], 11), BinaryMatrix.from_dense(np.array(gens))), gens


def _plaquette(toy22):
    code, h1, h2 = toy22
    return code.hz.to_dense()[hgp_layout(h1, h2).z_check(0, 1)]


_H7 = BinaryMatrix.from_entries(7, 7, [(i, (i + d) % 7) for i in range(7) for d in range(3)])


@pytest.mark.parametrize("call, fragment", [
    (lambda toy: build_overlap_pattern(toy[0], np.zeros(22, np.uint8), _plaquette(toy)),
     "first stabilizer is empty"),
    (lambda toy: build_overlap_pattern(toy[0], _plaquette(toy), _plaquette(toy)),
     "stabilizers have identical supports"),
    (lambda toy: build_cycle_pattern(*_eleven_qubit_ring()),
     "non-adjacent ring members 0 and 2 are not disjoint"),
    (lambda toy: hgp_cycle(_H7, _H7, ((0, 2, 2, 4), (0, 0, 2, 2, 4))),
     "long form needs two five-vertex walks"),
    (lambda toy: hgp_cycle(_H7, _H7, ((0, 2, 0, 4, 4), (0, 0, 2, 2, 4))),
     "first walk repeats a vertex"),
    (lambda toy: hgp_cycle(_H7, _H7, ((0, 2, 2, 4, 4), (0, 0, 2, 2, 5))),
     r"edge \(check 2, bit 5\) absent from second code"),
], ids=["empty-stabilizer", "identical-stabilizers", "non-adjacent-overlap",
        "long-form-length", "long-form-repeat", "long-form-second-edge"])
def test_pattern_builders_reject_bad_input(call, fragment, toy22):
    with pytest.raises(PreconditionViolated, match=fragment):
        call(toy22)
