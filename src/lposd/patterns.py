"""Construction of error patterns that defeat relaxation-based decoders.

The constructions take even-weight Z stabilizers whose supports overlap in
a controlled way, pick an error containing half of each stabilizer plus one
extra qubit, and attach an exact rational witness: a feasible fractional
assignment for the relaxed decoding problem whose objective is one less
than the error weight.  Any decoder that trusts the relaxation optimum
therefore never returns an error equivalent to the constructed one, no
matter how ties are broken.

Two shapes are supported.  The overlap pattern uses two stabilizers whose
supports share at least two qubits.  The ring pattern uses a cyclic chain
of stabilizers in which adjacent members share exactly one qubit (a link)
and non-adjacent members are disjoint.  Both produce an :class:`ErrorPattern`
carrying the error, its syndrome, the witness, and a reducedness report.
A builder validates its ring once, without a seed, then samples from it;
``search_patterns`` keeps a code's validated rings on the code, and
``verify_certificate`` checks a witness in exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codes import CssCode, ZCycle, _bfs_cycle_path, hgp_layout, hypergraph_product
from .errors import (
    InvalidParameter,
    LposdError,
    PreconditionViolated,
    SamplingExhausted,
)
from .gf2 import (
    BinaryMatrix,
    bits_to_vector,
    in_rowspace,
    kernel_basis,
    rank,
    row_reduce,
    vector_to_bits,
)

_EXHAUSTIVE_RANK_LIMIT = 20
# A builder rejects a sampled pick that one Z check row or the sum of two
# makes lighter (``_row_search``), and gives up after this many picks;
# ``is_reduced`` screens with the same sums before it walks the coset.
_MAX_RESAMPLES = 200
_POISON_TOL = 1e-9


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Exact rational witness for the relaxed decoding problem.

    ``x`` maps qubit index to its (nonzero) value; ``w`` maps a
    (check, subset) pair to the weight placed on that parity-consistent
    subset of the check's support.  Entries absent from either map are
    zero.  ``objective`` is the witnessed cost, the sum of all ``x``.
    """

    x: dict[int, Fraction]
    w: dict[tuple[int, tuple[int, ...]], Fraction]
    objective: Fraction


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of an exact certificate check."""

    ok: bool
    violations: tuple[str, ...]
    objective: Fraction


@dataclass(frozen=True)
class ReducedCheck:
    """Tri-state reducedness answer with an optional lighter witness.

    ``status`` is one of ``"yes"`` (exhaustively verified minimal in its
    stabilizer coset), ``"no"`` (``witness`` is a strictly lighter
    equivalent error), or ``"unchecked"``.
    """

    status: str
    witness: np.ndarray | None = None


@dataclass(frozen=True)
class PoisonReport:
    """Outcome of checking a flow assignment against the dual conditions."""

    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class ErrorPattern:
    """A provably undecodable error together with its fractional witness.

    ``generators`` holds the stabilizer supports used by the construction,
    ``link_qubits`` the shared qubits between consecutive generators, and
    ``corrupted_link`` the one shared qubit placed into the error.  The
    ``claimed_objective`` equals the error weight minus one; the attached
    certificate achieves it, so the relaxation strictly prefers the
    fractional point over every error equivalent to this one.
    """

    kind: str
    error: np.ndarray
    generators: tuple[tuple[int, ...], ...]
    link_qubits: tuple[int, ...]
    corrupted_link: int
    syndrome: np.ndarray
    certificate: Certificate
    claimed_objective: Fraction
    reduced_verified: str

    @property
    def weight(self) -> int:
        return int(self.error.sum())


# ---------------------------------------------------------------------------
# input normalization
# ---------------------------------------------------------------------------


def _as_error_vector(n: int, obj) -> np.ndarray:
    """Coerce a support iterable or a 0/1 vector to a length-n uint8 vector.

    A sequence of length exactly n whose entries are all 0/1 is taken as a
    vector; anything else is treated as a set of qubit indices.
    """
    arr = np.asarray(list(obj) if not isinstance(obj, np.ndarray) else obj)
    if arr.ndim != 1:
        raise InvalidParameter("error/stabilizer input must be one-dimensional")
    if arr.size == n and arr.size > 0 and np.isin(arr, (0, 1)).all():
        return arr.astype(np.uint8)
    out = np.zeros(n, dtype=np.uint8)
    for idx in arr.astype(int):
        if not 0 <= idx < n:
            raise InvalidParameter(f"qubit index {idx} out of range for n={n}")
        out[idx] = 1
    return out


def _support(v: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.flatnonzero(v))


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------


def _build_certificate(code: CssCode, half_set: Iterable[int],
                       syndrome: np.ndarray) -> Certificate:
    """Assemble the fractional witness for a half-set of qubits.

    Qubit values are 1/2 exactly on ``half_set``.  Each check splits its
    unit of subset weight according to how its support meets the half set:
    no shared qubits puts everything on the empty subset, an unflipped
    check splits between the empty subset and the full shared set, and a
    flipped check splits between its smallest shared qubit and the rest.
    """
    half = frozenset(int(i) for i in half_set)
    tan = code.tanner
    one_half = Fraction(1, 2)  # shared: Fractions are immutable
    x = {i: one_half for i in sorted(half)}
    w: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for j in range(code.hx.n_rows):
        shared = sorted(half.intersection(tan.x_supports[j]))
        s_j = int(syndrome[j])
        if len(shared) % 2 != 0:
            raise PreconditionViolated(
                f"check {j} meets the half set an odd number of times; "
                "inputs must commute with every X check"
            )
        if not shared:
            if s_j:
                raise PreconditionViolated(
                    f"check {j} is flipped but disjoint from the half set"
                )
            w[(j, ())] = Fraction(1)
        elif s_j == 0:
            w[(j, tuple(shared))] = one_half
            w[(j, ())] = one_half
        else:
            anchor = shared[0]
            rest = tuple(shared[1:])
            w[(j, (anchor,))] = one_half
            w[(j, rest)] = one_half
    objective = Fraction(len(half), 2)
    return Certificate(x=x, w=w, objective=objective)


def verify_certificate(code: CssCode, pattern: ErrorPattern) -> CertificateReport:
    """Check a pattern's witness exactly, in integer arithmetic.

    Verifies that every subset key is a parity-consistent subset of its
    check's support, that each check's subset weights sum to one, that for
    every Tanner edge the subset weights containing the qubit sum to the
    qubit's value, and that the witnessed objective equals the claimed
    value, which must be one less than the error weight.

    Values are scaled to integer numerators over the LCM of their
    denominators, so the sums are exact integers; a float counts at its
    exact binary value, and a sum with a float term prints as a float.
    """
    cert = pattern.certificate
    tan = code.tanner
    syndrome = pattern.syndrome
    m = code.hx.n_rows
    ratios = [v.as_integer_ratio() if isinstance(v, float) else (v.numerator, v.denominator)
              for v in (*cert.x.values(), *cert.w.values())]
    den = math.lcm(*(d for _, d in ratios))
    nums = [num * (den // d) for num, d in ratios]
    x_num = dict(zip(cert.x, nums))
    violations: list[str] = []

    def shown(num: int, floaty: bool) -> Fraction | float:
        value = Fraction(num, den)
        return float(value) if floaty else value

    for (i, val), num in zip(cert.x.items(), x_num.values()):
        if not 0 <= i < code.n:
            violations.append(f"x[{i}]: qubit index out of range")
        if not 0 <= num <= den:
            violations.append(f"x[{i}] = {val} outside [0, 1]")

    supports = [frozenset(sup) for sup in tan.x_supports]
    per_check = [0] * m
    edge_sums: dict[tuple[int, int], int] = {}
    floaty: set = set()  # the checks and edges whose sums have a float term
    for ((j, subset), val), num in zip(cert.w.items(), nums[len(x_num):]):
        is_float = isinstance(val, float)
        for i in subset:
            key = (int(i), j)
            edge_sums[key] = edge_sums.get(key, 0) + num
            if is_float:
                floaty.add(key)
        if not 0 <= j < m:
            violations.append(f"w[{j}, {subset}]: check index out of range")
            continue
        if tuple(sorted(subset)) != tuple(subset) or not supports[j].issuperset(subset):
            violations.append(
                f"w[{j}, {subset}]: not a sorted subset of the check support"
            )
            continue
        if len(subset) % 2 != int(syndrome[j]):
            violations.append(
                f"w[{j}, {subset}]: subset parity {len(subset) % 2} does not "
                f"match syndrome bit {int(syndrome[j])}"
            )
        if num < 0:
            violations.append(f"w[{j}, {subset}] = {val} is negative")
        per_check[j] += num
        if is_float:
            floaty.add(j)

    for j, total in enumerate(per_check):
        if total != den:
            violations.append(
                f"check {j}: subset weights sum to {shown(total, j in floaty)}, not 1")

    for q, j in tan.x_edges:
        got = edge_sums.get((q, j), 0)
        if got != x_num.get(q, 0):
            violations.append(
                f"edge (qubit {q}, check {j}): subset weights sum to "
                f"{shown(got, (q, j) in floaty)}, qubit value is {cert.x.get(q, Fraction(0))}"
            )

    total_x = shown(sum(x_num.values()), any(isinstance(v, float) for v in cert.x.values()))
    if total_x != cert.objective:
        violations.append(
            f"stored objective {cert.objective} != sum of qubit values {total_x}"
        )
    if total_x != pattern.claimed_objective:
        violations.append(
            f"claimed objective {pattern.claimed_objective} != witnessed {total_x}"
        )
    if pattern.claimed_objective != pattern.weight - 1:
        violations.append(
            f"claimed objective {pattern.claimed_objective} != weight-1 "
            f"= {pattern.weight - 1}"
        )
    return CertificateReport(
        ok=not violations, violations=tuple(violations), objective=total_x
    )


# ---------------------------------------------------------------------------
# flow-condition check
# ---------------------------------------------------------------------------


def check_poison(code: CssCode, error,
                 tau: Mapping[tuple[int, int], float]) -> PoisonReport:
    """Check a Tanner-edge flow against the simplified dual conditions.

    The flow must supply a value for every edge of the X check graph,
    keyed (qubit, check).  Feasibility requires, per qubit, that its edge
    values sum to at most +1 when the qubit is clean and -1 when it is in
    the error, and, per check, that every pair of incident edge values has
    a nonnegative sum.  A feasible flow with positive total check revenue
    exhibits the corrupted qubits as sources that clean qubits cannot
    absorb, which is what dooms the relaxation on the constructed patterns.
    """
    e = _as_error_vector(code.n, error)
    tan = code.tanner
    missing = [edge for edge in tan.x_edges if edge not in tau]
    if missing:
        raise InvalidParameter(
            f"flow assignment missing {len(missing)} edges, first {missing[0]}"
        )
    violations: list[str] = []
    for q in range(code.n):
        total = sum(tau[(q, j)] for j in tan.x_checks_of_qubit[q])
        gamma = 1.0 - 2.0 * float(e[q])
        if total > gamma + _POISON_TOL:
            violations.append(
                f"qubit {q}: edge values sum to {total:.12g} > {gamma:+g}"
            )
    for j in range(code.hx.n_rows):
        support = tan.x_supports[j]
        for a, b in itertools.combinations(support, 2):
            pair = tau[(a, j)] + tau[(b, j)]
            if pair < -_POISON_TOL:
                violations.append(
                    f"check {j}: edges ({a},{j}) and ({b},{j}) sum to "
                    f"{pair:.12g} < 0"
                )
    return PoisonReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# reducedness
# ---------------------------------------------------------------------------


def is_reduced(code: CssCode, error) -> ReducedCheck:
    """Decide whether an error is minimum weight within its stabilizer coset.

    First tries every single row and every sum of two rows of the Z check
    matrix; finding any strictly lighter equivalent yields ``"no"`` with
    that lighter error as witness.  When nothing lighter is found and the Z
    matrix rank is at most 20, the full coset is enumerated with a Gray-code
    walk and the answer is definitive.
    Otherwise the result is ``"unchecked"``.
    """
    e_bits = vector_to_bits(_as_error_vector(code.n, error), code.n)
    if e_bits == 0:
        return ReducedCheck(status="yes")
    lighter = _row_search(code, e_bits)
    if lighter is not None:
        return ReducedCheck(status="no", witness=bits_to_vector(lighter, code.n))
    return _coset_walk(code, e_bits)


def _row_search(code: CssCode, e_bits: int) -> int | None:
    """The first strictly lighter error that adds one Z check row or the sum
    of two to ``e_bits``, in the order ``itertools.combinations`` visits single
    rows and then row pairs, or None.

    Adding t makes e lighter, |e ^ t| < |e|, exactly when 2|e & t| > |t|.
    With o_a the ones Z row a shares with e and w_a its weight, row a is
    lighter when gain_a = 2 o_a - w_a > 0, and rows a < b together when
    gain_a + gain_b + 2 c_ab - 4 x_ab > 0, where c_ab counts the qubits the
    two rows share and x_ab those of them in e; both are zero unless the rows
    share a qubit.  A pair is tried only when no single row is lighter, so
    every gain is at most zero and only rows that share a qubit can be
    lighter together: a call costs the edges of H_Z plus the pairs of Z rows
    that meet, and keeps nothing on the code but ``_row_screen``.
    """
    screen = _row_screen(code)
    e = bits_to_vector(e_bits, code.n).view(bool)
    gain = (2 * np.bincount(screen.edge_check[e[screen.edge_qubit]], minlength=screen.weights.size)
            - screen.weights)
    rows = code.hz.rows
    single = np.flatnonzero(gain > 0)
    if single.size:
        return e_bits ^ rows[single[0]]
    inside = np.bincount(screen.entry_pair[e[screen.entry_qubit]], minlength=screen.pair_a.size)
    total = gain[screen.pair_a] + gain[screen.pair_b] + 2 * screen.shared - 4 * inside
    lighter = np.flatnonzero(total > 0)
    if not lighter.size:
        return None
    i = lighter[0]
    return e_bits ^ rows[screen.pair_a[i]] ^ rows[screen.pair_b[i]]


@dataclass(frozen=True)
class _RowScreen:
    """H_Z as edge arrays with its row weights, and every pair of Z rows
    a < b that shares a qubit, in ``itertools.combinations`` order: pair i
    is rows ``pair_a[i]`` and ``pair_b[i]``, sharing ``shared[i]`` qubits,
    and entry k says that pair ``entry_pair[k]`` shares qubit
    ``entry_qubit[k]``."""

    edge_check: np.ndarray
    edge_qubit: np.ndarray
    weights: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    shared: np.ndarray
    entry_pair: np.ndarray
    entry_qubit: np.ndarray


def _row_screen(code: CssCode) -> _RowScreen:
    """``_row_search``'s view of H_Z, built once and kept on the code."""
    if code._row_screen is None:
        tan = code.tanner
        m = len(tan.z_supports)
        weights = np.array([len(sup) for sup in tan.z_supports], dtype=np.int64)
        entries = [(a * m + b, q) for q, checks in enumerate(tan.z_checks_of_qubit)
                   for a, b in itertools.combinations(checks, 2)]
        keys, qubits = np.array(entries, dtype=np.int64).reshape(-1, 2).T
        pairs, entry_pair = np.unique(keys, return_inverse=True)  # sorted: a, then b
        pair_a, pair_b = np.divmod(pairs, m)
        code._row_screen = _RowScreen(
            edge_check=np.repeat(np.arange(m), weights),
            edge_qubit=np.fromiter(itertools.chain.from_iterable(tan.z_supports),
                                   dtype=np.int64, count=int(weights.sum())),
            weights=weights, pair_a=pair_a, pair_b=pair_b,
            shared=np.bincount(entry_pair, minlength=pairs.size),
            entry_pair=entry_pair, entry_qubit=qubits)
    return code._row_screen


def _coset_walk(code: CssCode, e_bits: int) -> ReducedCheck:
    """Grade an error by a Gray-code walk over its coset, if the Z rank allows it."""
    reduction = row_reduce(code.hz)
    r = reduction.rank
    if r > _EXHAUSTIVE_RANK_LIMIT:
        return ReducedCheck(status="unchecked")
    weight = e_bits.bit_count()
    basis = reduction.reduced.rows[:r]
    cur = e_bits
    for t in range(1, 1 << r):
        cur ^= basis[(t & -t).bit_length() - 1]
        if cur.bit_count() < weight:
            return ReducedCheck(status="no", witness=bits_to_vector(cur, code.n))
    return ReducedCheck(status="yes")


# ---------------------------------------------------------------------------
# pattern builders
# ---------------------------------------------------------------------------


def _check_stabilizer(code: CssCode, g: np.ndarray, name: str) -> None:
    w = int(g.sum())
    if w == 0:
        raise PreconditionViolated(f"{name} is empty")
    if w % 2 != 0:
        raise PreconditionViolated(f"{name} has odd weight {w}")
    if not in_rowspace(code.hz, g):
        raise PreconditionViolated(f"{name} is not a Z stabilizer of the code")


def _check_flipped_checks_touch(code: CssCode, inside: Iterable[int],
                                half: frozenset[int], what: str) -> None:
    tan = code.tanner
    for q in inside:
        for j in tan.x_checks_of_qubit[q]:
            if half.isdisjoint(tan.x_supports[j]):
                raise PreconditionViolated(
                    f"X check {j} sees {what} qubit {q} but is disjoint from "
                    "the symmetric-difference support"
                )


@dataclass(frozen=True)
class _Ring:
    """A validated ring: a pick draws ``takes[t]`` qubits of ``pools[t]`` and
    corrupts one of ``link_qubits`` (first for a cycle, last for an overlap);
    ``half`` is the certificate's half set.  Nothing here depends on a seed."""

    kind: str
    generators: tuple[tuple[int, ...], ...]
    link_qubits: tuple[int, ...]
    half: tuple[int, ...]
    pools: tuple[np.ndarray, ...]
    takes: tuple[int, ...]


def _sample_ring(code: CssCode, ring: _Ring, rng_seed: int) -> ErrorPattern:
    """Certify the first seeded pick that no Z check row or sum of two rows
    makes lighter.

    Only that pick is graded by the coset walk.  ``_MAX_RESAMPLES`` rejected
    picks raise SamplingExhausted.
    """
    rng = np.random.default_rng(rng_seed)
    links = np.array(ring.link_qubits)
    for _ in range(_MAX_RESAMPLES):
        e = np.zeros(code.n, dtype=np.uint8)
        if ring.kind == "cycle":
            corrupted = int(rng.choice(links))
        for take, pool in zip(ring.takes, ring.pools):
            if take:
                e[rng.choice(pool, size=take, replace=False)] = 1
        if ring.kind == "overlap":
            corrupted = int(rng.choice(links))
        e[corrupted] = 1
        e_bits = vector_to_bits(e, code.n)
        if _row_search(code, e_bits) is None:
            break
    else:
        what = "ring" if ring.kind == "cycle" else ring.kind
        raise SamplingExhausted(f"no reduced pick found in {_MAX_RESAMPLES} {what} samples")
    syndrome = code.syndrome(e)
    pattern = ErrorPattern(
        kind=ring.kind,
        error=e,
        generators=ring.generators,
        link_qubits=ring.link_qubits,
        corrupted_link=corrupted,
        syndrome=syndrome,
        certificate=_build_certificate(code, ring.half, syndrome),
        claimed_objective=Fraction(int(e.sum()) - 1),
        reduced_verified=_coset_walk(code, e_bits).status,
    )
    report = verify_certificate(code, pattern)
    if not report.ok:
        raise LposdError(
            "internal error: witness failed verification: "
            + "; ".join(report.violations[:3])
        )
    return pattern


def _prepare_overlap(code: CssCode, ga: np.ndarray, gb: np.ndarray) -> _Ring:
    _check_stabilizer(code, ga, "first stabilizer")
    _check_stabilizer(code, gb, "second stabilizer")
    overlap = np.flatnonzero(ga & gb)
    if overlap.size < 2:
        raise PreconditionViolated(
            f"stabilizer supports share {overlap.size} qubits, need >= 2"
        )
    diff = ga ^ gb
    if not diff.any():
        raise PreconditionViolated("stabilizers have identical supports")
    half = _support(diff)
    _check_flipped_checks_touch(code, (int(q) for q in overlap), frozenset(half), "overlap")
    a_only = np.flatnonzero(ga & ~gb)
    b_only = np.flatnonzero(gb & ~ga)
    return _Ring("overlap", (_support(ga), _support(gb)), tuple(int(q) for q in overlap),
                 half, (a_only, b_only), (len(a_only) // 2, (len(b_only) + 1) // 2))


def build_overlap_pattern(code: CssCode, g, g2, rng_seed: int = 0) -> ErrorPattern:
    """Build an undecodable error from two stabilizers sharing >= 2 qubits.

    The error takes half of each private region (rounding down in the
    first, up in the second) plus exactly one shared qubit.  Requires both
    supports even, both in the Z stabilizer group, an overlap of at least
    two qubits, and that every X check meeting the overlap also meets the
    symmetric difference.  Sampled picks that a Z check row or a sum of two
    rows makes lighter are rejected and resampled; ``_MAX_RESAMPLES``
    rejections raise SamplingExhausted.
    """
    ring = _prepare_overlap(code, _as_error_vector(code.n, g), _as_error_vector(code.n, g2))
    return _sample_ring(code, ring, rng_seed)


def _ring_links(supports: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """The links of a ring of three or more supports.

    Consecutive members (cyclically) must share exactly one qubit, their
    link; the links must be distinct; non-adjacent members must share
    nothing.  ``links[t]`` joins members t and t+1.
    """
    k_count = len(supports)
    links: list[int] = []
    for idx in range(k_count):
        nxt = (idx + 1) % k_count
        shared = supports[idx] & supports[nxt]
        if len(shared) != 1:
            raise PreconditionViolated(
                f"ring members {idx} and {nxt} share {len(shared)} qubits, need exactly 1")
        links.extend(shared)
    if len(set(links)) != k_count:
        raise PreconditionViolated("link qubits are not distinct")
    for idx, other in itertools.combinations(range(k_count), 2):
        if (other - idx) % k_count not in (1, k_count - 1) and supports[idx] & supports[other]:
            raise PreconditionViolated(
                f"non-adjacent ring members {idx} and {other} are not disjoint")
    return tuple(links)


def _prepare_ring(code: CssCode, gens: list[np.ndarray]) -> _Ring:
    if len(gens) < 2:
        raise PreconditionViolated("need at least two generators")
    if len(gens) == 2:
        return _prepare_overlap(code, gens[0], gens[1])
    for idx, gv in enumerate(gens):
        _check_stabilizer(code, gv, f"generator {idx}")

    supports = tuple(_support(gv) for gv in gens)
    links = _ring_links([frozenset(sup) for sup in supports])
    sigma = np.zeros(code.n, dtype=np.uint8)
    for gv in gens:
        sigma ^= gv
    half = _support(sigma)
    _check_flipped_checks_touch(code, links, frozenset(half), "link")

    interiors = tuple(np.array([q for q in sup if q not in links], dtype=int)
                      for sup in supports)
    takes = tuple(len(sup) // 2 - 1 for sup in supports)
    for idx, (take, interior) in enumerate(zip(takes, interiors)):
        if take > len(interior):
            raise PreconditionViolated(f"generator {idx} interior too small for its half weight")
    return _Ring("cycle", supports, links, half, interiors, takes)


def build_cycle_pattern(code: CssCode, generators: Sequence, rng_seed: int = 0) -> ErrorPattern:
    """Build an undecodable error from a ring of stabilizers.

    Consecutive generators (cyclically) must share exactly one qubit, the
    link; non-adjacent generators must be disjoint; every support must be
    even and in the Z stabilizer group; and every X check meeting a link
    must meet the sum of the generators.  The error takes one link plus
    half-minus-one qubits from each generator's interior.  Two generators
    dispatch to the overlap construction, since their shared qubits then
    play the role of two links.
    """
    ring = _prepare_ring(code, [_as_error_vector(code.n, g) for g in generators])
    return _sample_ring(code, ring, rng_seed)


def stabilizers_within(code: CssCode, support) -> list[np.ndarray]:
    """Basis of the Z stabilizers supported entirely inside a qubit set.

    Computes the row combinations of the Z check matrix that vanish on the
    complement of ``support`` and returns their images as stabilizer
    vectors (zero rows excluded).  A pattern's support union hides no
    stabilizers beyond its own generators exactly when every returned
    vector lies in the span of those generators.
    """
    mask = np.zeros(code.n, dtype=bool)
    for q in _support(_as_error_vector(code.n, support)):
        mask[q] = True
    comp = np.flatnonzero(~mask)
    dense = code.hz.to_dense()
    restricted = BinaryMatrix.from_dense(dense[:, comp])
    out: list[np.ndarray] = []
    for coeff in kernel_basis(restricted.transpose()):
        image = code.hz.transpose().mat_vec(coeff)
        if image.any():
            out.append(image.astype(np.uint8))
    return out


# ---------------------------------------------------------------------------
# ring construction inside hypergraph products
# ---------------------------------------------------------------------------


def _hgp_path_edges_ok(h: BinaryMatrix, check: int, bit: int) -> bool:
    return 0 <= check < h.n_rows and 0 <= bit < h.n_cols and h.get(check, bit) == 1


def hgp_cycle(h1: BinaryMatrix, h2: BinaryMatrix, paths) -> ZCycle:
    """Locate a ring of Z checks inside the product of two classical codes.

    Two forms.  The long form takes ``paths = (p, p2)`` where ``p`` is a
    five-vertex walk (check, bit, check, bit, check) in the first code's
    Tanner graph and ``p2`` a five-vertex walk (bit, check, bit, check,
    bit) in the second; it yields a ring of eight Z checks built from the
    walk endpoints, usable even when both factor graphs have high girth.
    The short form takes ``paths = (cycle, bit2)`` with ``cycle`` an
    alternating closed walk (check, bit, ..., check, bit) in the first
    factor and ``bit2`` a bit index of the second; the factor cycle is
    replicated at that bit.  Returns the ring as Z check indices plus the
    link qubits, after ``verify_hgp_cycle`` has checked it on the product
    code.
    """
    if len(paths) != 2:
        raise InvalidParameter("paths must have exactly two elements")
    layout = hgp_layout(h1, h2)
    first, second = paths

    if isinstance(second, (int, np.integer)):
        walk = tuple(int(v) for v in first)
        bit2 = int(second)
        if len(walk) < 4 or len(walk) % 2 != 0:
            raise PreconditionViolated(
                "short form needs an alternating closed walk of even length "
                ">= 4"
            )
        if not 0 <= bit2 < h2.n_cols:
            raise PreconditionViolated(f"bit {bit2} out of range in second code")
        cycle_checks = walk[0::2]
        cycle_bits = walk[1::2]
        r = len(cycle_checks)
        if len(set(cycle_checks)) != r or len(set(cycle_bits)) != r:
            raise PreconditionViolated("closed walk repeats a vertex")
        for t in range(r):
            c_here, c_next = cycle_checks[t], cycle_checks[(t + 1) % r]
            bit = cycle_bits[t]
            if not (_hgp_path_edges_ok(h1, c_here, bit)
                    and _hgp_path_edges_ok(h1, c_next, bit)):
                raise PreconditionViolated(
                    f"walk edge between checks {c_here},{c_next} and bit {bit} "
                    "is absent from the first code"
                )
        checks = tuple(layout.z_check(c, bit2) for c in cycle_checks)
        qubits = tuple(layout.qubit_aa(v, bit2) for v in cycle_bits)
    else:
        p = tuple(int(v) for v in first)
        p2 = tuple(int(v) for v in second)
        if len(p) != 5 or len(p2) != 5:
            raise PreconditionViolated("long form needs two five-vertex walks")
        b1, a1, b2, a2, b3 = p
        a1p, b1p, a2p, b2p, a3p = p2
        if len({b1, b2, b3}) != 3 or a1 == a2:
            raise PreconditionViolated("first walk repeats a vertex")
        if len({a1p, a2p, a3p}) != 3 or b1p == b2p:
            raise PreconditionViolated("second walk repeats a vertex")
        for check, bit in ((b1, a1), (b2, a1), (b2, a2), (b3, a2)):
            if not _hgp_path_edges_ok(h1, check, bit):
                raise PreconditionViolated(
                    f"edge (check {check}, bit {bit}) absent from first code"
                )
        for check, bit in ((b1p, a1p), (b1p, a2p), (b2p, a2p), (b2p, a3p)):
            if not _hgp_path_edges_ok(h2, check, bit):
                raise PreconditionViolated(
                    f"edge (check {check}, bit {bit}) absent from second code"
                )
        checks = (
            layout.z_check(b1, a1p), layout.z_check(b2, a1p),
            layout.z_check(b3, a1p), layout.z_check(b3, a2p),
            layout.z_check(b3, a3p), layout.z_check(b2, a3p),
            layout.z_check(b1, a3p), layout.z_check(b1, a2p),
        )
        qubits = (
            layout.qubit_aa(a1, a1p), layout.qubit_aa(a2, a1p),
            layout.qubit_bb(b3, b1p), layout.qubit_bb(b3, b2p),
            layout.qubit_aa(a2, a3p), layout.qubit_aa(a1, a3p),
            layout.qubit_bb(b1, b2p), layout.qubit_bb(b1, b1p),
        )

    cycle = ZCycle(checks=checks, qubits=qubits)
    verify_hgp_cycle(hypergraph_product(h1, h2), cycle)
    return cycle


def verify_hgp_cycle(code: CssCode, cycle: ZCycle) -> None:
    """Check that a ring of Z checks meets the ring rule with its own links.

    Three or more checks must form a ring (consecutive checks share exactly
    one qubit, the links are distinct, non-adjacent checks share nothing)
    whose links are ``cycle.qubits`` in order; two checks must overlap in
    exactly ``set(cycle.qubits)``.  Raises PreconditionViolated otherwise.
    """
    supports = [frozenset(code.hz.row_support(c)) for c in cycle.checks]
    if len(supports) == 2:
        links, expected = sorted(supports[0] & supports[1]), sorted(set(cycle.qubits))
    else:
        links, expected = list(_ring_links(supports)), list(cycle.qubits)
    if links != expected:
        raise PreconditionViolated(
            f"Z checks {cycle.checks} are linked by qubits {links}, expected {expected}")


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------


def _cycles_through_edges(code: CssCode, max_len: int,
                          cap: int) -> list[ZCycle]:
    """Distinct short cycles of the Z Tanner graph, one BFS per edge."""
    tan = code.tanner
    found: list[ZCycle] = []
    seen: set[frozenset[int]] = set()
    for k in range(code.hz.n_rows):
        for q in tan.z_supports[k]:
            cycle = _bfs_cycle_path(tan, k, q, max_len)
            if cycle is None:
                continue
            key = frozenset(cycle.checks)
            if key in seen:
                continue
            seen.add(key)
            found.append(cycle)
            if len(found) >= cap:
                return found
    return found


def _compose_even(gens: list[np.ndarray]) -> list[np.ndarray]:
    """Merge adjacent odd-weight ring members pairwise until all are even.

    Merging neighbors keeps the ring structure: their shared link cancels
    and the merged support meets each remaining neighbor in the original
    single link.  A ring of even members comes back as it is; one whose
    odd members cannot be paired up raises PreconditionViolated.
    """
    out: list[np.ndarray] = []
    pending: np.ndarray | None = None
    for gv in gens:
        if pending is not None:
            out.append(pending ^ gv)
            pending = None
        elif int(gv.sum()) % 2 != 0:
            pending = gv
        else:
            out.append(gv)
    if pending is not None or len(out) < 2:
        raise PreconditionViolated("odd-weight ring members cannot be paired up")
    return out


def _prepared_rings(code: CssCode, max_cycle_len: int, cap: int) -> list[tuple[int, _Ring]]:
    """The valid rings of the first ``cap`` short cycles, with their cycle indices."""
    key = (max_cycle_len, cap)
    if key not in code._pattern_rings:
        rings = []
        for idx, cycle in enumerate(_cycles_through_edges(code, max_cycle_len, cap)):
            try:
                gens = _compose_even([_as_error_vector(code.n, code.hz.row_support(c))
                                      for c in cycle.checks])
                rings.append((idx, _prepare_ring(code, gens)))
            except PreconditionViolated:
                continue
        code._pattern_rings[key] = rings
    return code._pattern_rings[key]


def search_patterns(code: CssCode, max_cycle_len: int = 12, limit: int = 10,
                    rng_seed: int = 0) -> list[ErrorPattern]:
    """Harvest undecodable patterns from short cycles of the Z check graph.

    Each distinct short cycle yields a candidate ring of Z generators;
    rings with odd-weight members are repaired by merging adjacent odd
    pairs.  Candidates that violate the ring preconditions or never
    produce a reduced pick are skipped.  Returns up to ``limit`` (>= 1).

    The cycles and every seed-independent ring check depend only on the
    code, ``max_cycle_len`` and the cycle cap (8 per pattern, at least 64),
    so the code keeps its valid rings per (length, cap) after the first
    search.  Each ring keeps its cycle's index, which seeds its picks, so a
    warm code gives exactly the patterns a fresh one gives.
    """
    if limit < 1:
        raise InvalidParameter(f"limit must be >= 1, got {limit}")
    patterns: list[ErrorPattern] = []
    for idx, ring in _prepared_rings(code, max_cycle_len, max(limit * 8, 64)):
        try:
            patterns.append(_sample_ring(code, ring, rng_seed * 100003 + idx))
        except SamplingExhausted:
            continue
        if len(patterns) >= limit:
            break
    return patterns


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def pattern_to_record(pattern: ErrorPattern, code_ref: str = "") -> dict:
    """Flatten a pattern to a JSON-compatible dict with exact rationals."""
    cert = pattern.certificate
    return {
        "code": code_ref,
        "kind": pattern.kind,
        "generators": [list(g) for g in pattern.generators],
        "link_qubits": list(pattern.link_qubits),
        "corrupted_link": pattern.corrupted_link,
        "error_support": [int(i) for i in np.flatnonzero(pattern.error)],
        "syndrome_support": [int(j) for j in np.flatnonzero(pattern.syndrome)],
        "claimed_objective": str(pattern.claimed_objective),
        "reduced_verified": pattern.reduced_verified,
        "certificate": {
            "x": [[i, str(v)] for i, v in sorted(cert.x.items())],
            "w": [[j, list(subset), str(v)]
                  for (j, subset), v in sorted(cert.w.items())],
            "objective": str(cert.objective),
        },
    }


def record_to_pattern(record: dict, code: CssCode) -> ErrorPattern:
    """Rebuild a pattern from its serialized record, given the code."""
    error = np.zeros(code.n, dtype=np.uint8)
    error[record["error_support"]] = 1
    syndrome = np.zeros(code.hx.n_rows, dtype=np.uint8)
    syndrome[record["syndrome_support"]] = 1
    cert_rec = record["certificate"]
    certificate = Certificate(
        x={int(i): Fraction(v) for i, v in cert_rec["x"]},
        w={(int(j), tuple(int(q) for q in subset)): Fraction(v)
           for j, subset, v in cert_rec["w"]},
        objective=Fraction(cert_rec["objective"]),
    )
    return ErrorPattern(
        kind=record["kind"],
        error=error,
        generators=tuple(tuple(int(q) for q in g) for g in record["generators"]),
        link_qubits=tuple(int(q) for q in record["link_qubits"]),
        corrupted_link=int(record["corrupted_link"]),
        syndrome=syndrome,
        certificate=certificate,
        claimed_objective=Fraction(record["claimed_objective"]),
        reduced_verified=record["reduced_verified"],
    )


def write_patterns(patterns: Sequence[ErrorPattern], path, code_ref: str = "") -> None:
    """Write one JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for pattern in patterns:
            fh.write(json.dumps(pattern_to_record(pattern, code_ref)) + "\n")


def read_patterns(path, code: CssCode) -> list[ErrorPattern]:
    with open(path, encoding="utf-8") as fh:
        return [record_to_pattern(json.loads(line), code)
                for line in fh if line.strip()]
