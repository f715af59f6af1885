"""Linear-program formulations of syndrome decoding and their solvers.

Three model builders:

* ``build_syndrome_lp``: minimize the (optionally weighted) error mass
  subject to, per X check, a unit mixture over the subsets of its support
  whose parity matches the syndrome bit, tied to the qubit variables edge
  by edge.
* ``build_error_lp``: the same polytope re-anchored at a reference error
  with matching syndrome; the objective rewards flipping reference
  positions, so the optimum is negative exactly when a better explanation
  than the reference exists.
* ``build_dual_lp``: the inequality dual of the error-anchored program,
  whose feasible points price checks and Tanner edges; its matrix is the
  error model's, transposed, with the edge columns negated.

The explicit model expands its mixture variables (one per even- or odd-
parity subset of each check's support), so it caps check weight at
``MAX_CHECK_WEIGHT``: the builders, and decodes on 'scipy' or 'embedded',
raise CheckWeightTooLarge above it.  A 'cuts' decode never builds it and
takes checks of any weight.

Three solver backends.  'cuts', ``DEFAULT_SOLVER`` and so the default of
every decoder, simulation and CLI command, is adaptive LP decoding on HiGHS
over the qubit variables alone.  'scipy' runs HiGHS on the explicit model,
and is ``solve_lp``'s own default, because reflections, certificates, the
dual and the dump need every column.  'embedded' is a simplex that needs
only numpy and scipy.sparse, kept as a cross-check.

Each code has one constraint matrix, kept on its template as numpy CSC
arrays that HiGHS reads directly: the qubit columns plus both parities'
mixture blocks for every check (252 rows x 2376 columns on bb72).  Every
formulation reads it.  A syndrome or error model keeps the qubit columns
and the block of each check's parity; it slices its own ``scipy.sparse``
matrix ``a`` out of the template's only when ``a`` is first read.  The
dual transposes the error model's slice.  Only that slice, the dual's
standard form and the embedded simplex import ``scipy.sparse``.

HiGHS runs from scipy's bundled extension, loaded by file path so that a
decode never imports ``scipy.optimize``; every HiGHS model is built by one
function, with output and presolve off.  A code keeps one persistent
model per HiGHS solver with its other derived values (``CssCode._cached``),
which are never pickled or copied.  ``_solve_syndrome`` is the one solve
of a syndrome or error model on every backend, for ``solve_lp`` and the
decode path alike: it hands the check parities and qubit costs to the
persistent model, or on 'embedded' builds the model.  Mixture columns take
no cost.  The 'scipy' model holds the template's matrix as it stands.  A
solve fixes the wrong-parity columns at zero, sets the qubit costs, clears
the solver and runs it cold, then gathers the model's columns.  Cold starts
make the returned vertex a function of the model alone, so results do not
depend on the order of solves.  Warm-starting from the previous basis was
also measured slower despite fewer pivots: 5.0-6.3 against 3.3-3.8 ms per
bb72 solve (149 against 280 pivots), 16-20 against 6.3-6.8 ms on bb144.
Only a dual model gets a one-off HiGHS model of its own.  If the extension
cannot be loaded, 'scipy' and 'cuts' solves raise LposdError.

'cuts' (Taghavi & Siegel, IEEE Trans. IT 54(12), 2008) has the n qubit
columns in [0, 1] and no rows, and adds Feldman-Wainwright-Karger
forbidden-set inequalities as cuts, round by round, only where the
current point violates them (``_CutsModel``).  Its optimum is the
explicit model's, reached in a few pivots instead of about one per
equality row (7 against 292 per bb72 solve at p=0.03).  Its solutions
carry qubit values only.

The backends agree on every optimal objective, but on a degenerate optimal
face they may return different vertices, so switching backends can change
which correction a decoder returns.  A qubit that no X check touches meets
no row of the explicit model, so its HiGHS models box that qubit at 1, as
'cuts' boxes every qubit, and the dual prices that bound; the embedded
simplex has no column bounds and raises LposdError on a negative cost.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .codes import CssCode
from .errors import CheckWeightTooLarge, Infeasible, IterationLimit, LposdError
from .gf2 import as_bit_vector, as_weight_vector

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DEFAULT_SOLVER",
    "SOLVERS",
    "MAX_CHECK_WEIGHT",
    "LpModel",
    "LpSolution",
    "DualSolution",
    "build_syndrome_lp",
    "build_error_lp",
    "build_dual_lp",
    "solve_lp",
    "is_integral",
    "round_independent",
    "reflect_to_syndrome_solution",
    "reflect_to_error_solution",
    "dump_lp",
]

MAX_CHECK_WEIGHT = 12

# The backend every decoder, simulation and CLI command uses unless told
# otherwise: adaptive LP decoding on HiGHS.  ``solve_lp`` itself defaults to
# 'scipy', which returns every column.
DEFAULT_SOLVER = "cuts"

# Every value ``solve_lp``, ``DecoderSpec`` and the CLI accept for ``solver``.
SOLVERS = ("cuts", "scipy", "embedded")

# Components this close to an integer are snapped when a solution is packaged.
_SNAP = 1e-11

# A qubit variable this close to 0 or 1 counts as integral, and a
# forbidden-set inequality violated by more than this is a cut.
_INTEGRAL_TOL = 1e-6

# Taghavi and Siegel bound the rounds of a feasible adaptive LP decode by the
# block length n; an infeasible one can need more to show it (two opposed
# weight-one checks on one qubit take 2).  A 'cuts' solve that needs more
# than this many rounds per qubit raises IterationLimit.
_CUT_ROUNDS_PER_QUBIT = 2


def parity_subsets(support: Sequence[int], parity: int) -> list[tuple[int, ...]]:
    """Subsets of ``support`` with |S| congruent to ``parity`` mod 2.

    Deterministic order: by size, then lexicographically.  There are
    2^(w-1) of them for a width-w support.
    """
    out: list[tuple[int, ...]] = []
    for size in range(parity & 1, len(support) + 1, 2):
        out.extend(itertools.combinations(support, size))
    return out


class _LpTemplate:
    """Per-code constraint matrix shared by every syndrome and error model.

    The matrix is kept as numpy CSC arrays ``indptr``, ``indices``, ``data``
    and ``shape``, exactly as ``scipy.sparse.csc_matrix`` builds them.  It
    has one column per qubit (0..n-1), then for each check its
    parity-0 mixture block followed by its parity-1 block, each 2^(w-1)
    columns wide for a weight-w check (252 rows x 2376 columns on bb72).
    Rows: one normalization row per check (0..m_x-1), then one consistency
    row per Tanner edge in deterministic order.  Neither layout depends on
    the syndrome: a model keeps the qubit columns and, per check, the block
    of its parity, so its matrix is a column slice of this one (``columns``).
    """

    def __init__(self, code: CssCode):
        tan = code.tanner
        self.n = code.n
        self.m_x = code.hx.n_rows
        self.edges = tan.x_edges
        edge_row = {edge: self.m_x + p for p, edge in enumerate(self.edges)}
        self.subsets = []  # per check: (parity-0 subsets, parity-1 subsets)
        self.index = []  # per check and parity: subset -> position in its block
        self.w_offset = []  # per check: first mixture column in a model
        widths = []
        rows: list[int] = []
        cols: list[int] = []
        col = self.n
        for j, support in enumerate(tan.x_supports):
            if len(support) > MAX_CHECK_WEIGHT:
                raise CheckWeightTooLarge(
                    f"check {j} has weight {len(support)} > {MAX_CHECK_WEIGHT}"
                )
            width = 1 << max(len(support) - 1, 0)
            self.w_offset.append(self.n + sum(widths))
            widths.append(width)
            pair = (parity_subsets(support, 0), parity_subsets(support, 1))
            self.subsets.append(pair)
            self.index.append(tuple({s: t for t, s in enumerate(sub)} for sub in pair))
            for q in support:
                rows.append(edge_row[(q, j)])
                cols.append(q)
            for subsets in pair:
                for t, s in enumerate(subsets):
                    rows.append(j)
                    rows.extend(edge_row[(q, j)] for q in s)
                    cols.extend([col + t] * (1 + len(s)))
                col += width
        self.n_vars = self.n + sum(widths)
        self.n_rows = self.m_x + len(self.edges)
        self.shape = (self.n_rows, col)
        order = np.lexsort((rows, cols))  # by column, then row
        cols_arr = np.asarray(cols, dtype=np.int32)[order]
        self.indptr = np.searchsorted(cols_arr, np.arange(col + 1)).astype(np.int32)
        self.indices = np.asarray(rows, dtype=np.int32)[order]
        self.data = np.where(cols_arr < self.n, -1.0, 1.0)
        self.rhs = np.concatenate([
            np.ones(self.m_x), np.zeros(len(self.edges)),
        ])
        self.widths = np.asarray(widths, dtype=np.int64)
        # a model's block j sits this far left of its parity-0 block in the matrix
        self._shift = np.asarray(self.w_offset, dtype=np.int64) - self.n
        self._qubits = np.arange(self.n)
        self._mix = np.arange(self.n, self.n_vars)
        # the qubits that no check touches, whose columns meet no row
        self.boxed = np.flatnonzero(self.indptr[1 : self.n + 1] == self.indptr[: self.n])

    def columns(self, parities: np.ndarray) -> np.ndarray:
        """Columns of the matrix that a model with these check parities keeps, in model order."""
        shift = np.repeat(self._shift + self.widths * parities, self.widths)
        return np.concatenate([self._qubits, self._mix + shift])


@dataclass
class LpModel:
    """A linear program with named structure over a code's Tanner graph.

    ``kind`` is one of 'syndrome', 'error', 'dual'.  For the primal kinds
    the first ``n`` columns are the qubit variables and ``mixture_col``
    finds the column of a (check, subset) pair.  Their constraint matrix
    ``a`` is sliced from the code's template on first read; dual models
    pass theirs in as ``_a``.
    """

    kind: str
    code: CssCode
    sense: str  # 'min' or 'max'
    c: np.ndarray
    row_sense: np.ndarray  # 0 equality, -1 <=
    b: np.ndarray
    free_vars: np.ndarray  # bool mask; False means lower bound 0
    meta: dict = field(default_factory=dict)
    _a: sp.csc_matrix | None = field(default=None, repr=False)

    @property
    def a(self) -> sp.csc_matrix:
        if self._a is None:
            import scipy.sparse as sp

            tpl = self.code._cached(_LpTemplate)
            a = sp.csc_matrix((tpl.data, tpl.indices, tpl.indptr), shape=tpl.shape)
            self._a = a[:, tpl.columns(self.meta["parities"])]
        return self._a

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.code.n

    # -- structural lookups (primal kinds) --------------------------------

    def mixture_subsets(self, j: int):
        return self.code._cached(_LpTemplate).subsets[j][int(self.meta["parities"][j])]

    def mixture_col(self, j: int, subset) -> int:
        tpl = self.code._cached(_LpTemplate)
        parity = int(self.meta["parities"][j])
        key = tuple(sorted(subset))
        try:
            return tpl.w_offset[j] + tpl.index[j][parity][key]
        except KeyError:
            raise LposdError(
                f"subset {key} is not a parity-{parity} subset of check {j}"
            ) from None

    def var_names(self) -> list[str]:
        """Deterministic variable names for the interchange dump."""
        tpl = self.code._cached(_LpTemplate)
        if self.kind == "dual":
            return ([f"s{j}" for j in range(tpl.m_x)] + [f"t{q}_{j}" for q, j in tpl.edges]
                    + [f"v{q}" for q in tpl.boxed])
        names = [f"x{i}" for i in range(self.code.n)]
        for j in range(tpl.m_x):
            subsets = self.mixture_subsets(j)
            for s in subsets:
                names.append("w" + str(j) + "_" + ("_".join(map(str, s)) if s else "e"))
            if not subsets:  # a weight-0 check's parity-1 block: one column, no subset
                names.append(f"w{j}_none")
        return names


@dataclass
class LpSolution:
    """Solver output bound to its model.  A 'cuts' solution carries the
    qubit values only, so it has no mixture values to read or reflect."""

    model: LpModel
    values: np.ndarray
    objective: float
    status: str
    iterations: int
    solver: str

    def x(self) -> np.ndarray:
        if self.model.kind == "dual":
            raise LposdError("dual models have no qubit variables")
        return self.values[: self.model.code.n]

    def mixture_value(self, j: int, subset) -> float:
        if self.values.size < self.model.n_vars:
            raise LposdError(f"this {self.solver!r} solution carries qubit values only")
        return float(self.values[self.model.mixture_col(j, subset)])


@dataclass
class DualSolution:
    """Dual prices: one value per check and one per Tanner edge."""

    model: LpModel
    check_values: np.ndarray
    edge_values: dict[tuple[int, int], float]
    objective: float
    status: str
    iterations: int
    solver: str


def _primal_lp(code: CssCode, kind: str, qubit_cost: np.ndarray, meta: dict) -> LpModel:
    """A syndrome or error model: the template's rows, zero-cost mixture columns."""
    tpl = code._cached(_LpTemplate)
    c = np.zeros(tpl.n_vars)
    c[: tpl.n] = qubit_cost
    return LpModel(
        kind=kind,
        code=code,
        sense="min",
        c=c,
        row_sense=np.zeros(tpl.n_rows, dtype=np.int8),
        b=tpl.rhs,
        free_vars=np.zeros(tpl.n_vars, dtype=bool),
        meta=meta,
    )


def build_syndrome_lp(code: CssCode, s, weights: Sequence[float] | None = None) -> LpModel:
    """LP whose optimum lower-bounds the minimum error weight for syndrome s."""
    tpl = code._cached(_LpTemplate)
    s_arr = as_bit_vector(s, tpl.m_x, "syndrome")
    cost = 1.0 if weights is None else as_weight_vector(weights, tpl.n)
    return _primal_lp(code, "syndrome", cost,
                      {"syndrome": s_arr, "parities": s_arr.astype(np.int8)})


def build_error_lp(code: CssCode, e_prime) -> LpModel:
    """LP anchored at a reference error with the same syndrome.

    Objective: sum of x over qubits outside the reference minus the sum over
    qubits inside, so any feasible point with negative value certifies a
    strictly lighter coset representative than the reference.
    """
    tpl = code._cached(_LpTemplate)
    e_arr = as_bit_vector(e_prime, tpl.n, "reference error")
    return _primal_lp(code, "error", 1.0 - 2.0 * e_arr, {
        "e_prime": e_arr, "parities": np.zeros(tpl.m_x, dtype=np.int8),
    })


def build_dual_lp(code: CssCode, e_prime) -> LpModel:
    """Inequality dual of the error-anchored LP, read off the same matrix.

    Variables: one score per check, one weight per Tanner edge (in the
    template's edge order), then a price v_q >= 0 of the bound x_q <= 1 on
    each qubit q that no check touches.  Maximize the check scores minus
    the prices subject to (a) each qubit's incident edge weights, minus its
    price, summing to at most +1 outside the reference error and -1 inside
    it, and (b) each check's score being at most the edge-weight sum over
    every even subset of its support.

    The matrix is the error model's transposed, with the edge columns
    negated (an edge weight is minus the price of its consistency row),
    then a column and a row -v_q <= 0 per price; the costs are the
    template's right-hand side and the bounds the error model's costs.
    """
    import scipy.sparse as sp

    primal = build_error_lp(code, e_prime)
    tpl = code._cached(_LpTemplate)
    edges = primal.a.T.tocsc()
    edges.data[edges.indptr[tpl.m_x]:] *= -1.0
    k = tpl.boxed.size
    price = -sp.csc_matrix((np.ones(k), (tpl.boxed, np.arange(k))), shape=(primal.n_vars, k))
    return LpModel(
        kind="dual",
        code=code,
        sense="max",
        c=np.concatenate([tpl.rhs, -np.ones(k)]),
        row_sense=np.full(primal.n_vars + k, -1, dtype=np.int8),
        b=np.concatenate([primal.c, np.zeros(k)]),
        free_vars=np.ones(tpl.n_rows + k, dtype=bool),
        meta={"e_prime": primal.meta["e_prime"]},
        _a=sp.bmat([[edges, price], [None, -sp.identity(k)]], format="csc"),
    )


def as_dual_solution(sol: LpSolution) -> DualSolution:
    model = sol.model
    if model.kind != "dual":
        raise LposdError("not a dual model")
    tpl = model.code._cached(_LpTemplate)
    return DualSolution(
        model=model,
        check_values=sol.values[: tpl.m_x].copy(),
        edge_values=dict(zip(tpl.edges, map(float, sol.values[tpl.m_x : tpl.n_rows]))),
        objective=sol.objective,
        status=sol.status,
        iterations=sol.iterations,
        solver=sol.solver,
    )


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _to_standard_form(model: LpModel):
    """Rewrite a model as min c.x, A x = b, x >= 0; return (c, a, b, recover).

    Primal models already have this form.  The dual, max c.y s.t. A y <= b
    with y free, becomes [A | -A | I] with costs [-c, c, 0], and ``recover``
    maps a standard-form point back to y = y+ - y-.
    """
    if model.kind != "dual":
        return model.c, model.a, model.b, lambda x: x
    import scipy.sparse as sp

    a, n = model.a, model.n_vars
    a_std = sp.hstack([a, -a, sp.identity(a.shape[0], format="csc")], format="csc")
    c_std = np.concatenate([-model.c, model.c, np.zeros(a.shape[0])])
    return c_std, a_std, model.b, lambda x: x[:n] - x[n : 2 * n]


def _solve_embedded(model: LpModel) -> tuple[np.ndarray, float, int]:
    from .simplex import solve_standard_form

    c_std, a_std, b_std, recover = _to_standard_form(model)
    res = solve_standard_form(c_std, a_std, b_std)
    if res.status == "infeasible":
        raise Infeasible(res.message or "model is infeasible")
    if res.status == "iteration_limit":
        raise IterationLimit(f"simplex hit the iteration cap after {res.iterations} pivots")
    if res.status != "optimal":
        raise LposdError(f"simplex failed: {res.status} {res.message}")
    values = recover(res.x)
    objective = res.objective if model.sense == "min" else -res.objective
    return values, objective, res.iterations


def _new_highs(core, cost, col_lower, col_upper, a=None, row_lower=None, row_upper=None):
    """A HiGHS instance holding min cost.x, row_lower <= a x <= row_upper,
    col_lower <= x <= col_upper; without ``a``, it has no rows.

    ``a`` is a template or a ``scipy.sparse`` CSC matrix.  Output and
    presolve are off; -inf marks a free column or a row without a lower
    bound, and inf a column or row without an upper bound.
    """
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.col_cost_ = cost
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    if a is None:
        lp.a_matrix_.start_ = np.zeros(cost.size + 1, dtype=np.int32)
    else:
        lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise LposdError("HiGHS rejected the model")
    return highs


def _run_highs(core, highs) -> tuple[np.ndarray, float, int]:
    """Run HiGHS; return (column values, objective, simplex iterations)."""
    highs.run()
    status, status_of = highs.getModelStatus(), core.HighsModelStatus
    if status in (status_of.kInfeasible, status_of.kUnboundedOrInfeasible):
        raise Infeasible("model is infeasible")
    if status == status_of.kIterationLimit:
        raise IterationLimit("HiGHS hit its iteration limit")
    if status != status_of.kOptimal:
        raise LposdError(f"HiGHS failed: {highs.modelStatusToString(status)}")
    col_value = highs.getSolution().col_value
    return (np.fromiter(col_value, float, len(col_value)), highs.getObjectiveValue(),
            highs.getInfoValue("simplex_iteration_count")[1])


class _HighsModel:
    """One HiGHS model per code that serves every syndrome and error model.

    It holds the template's matrix as it stands, both parity blocks of every
    check included, and bounds a qubit that no check touches at 1.  A solve
    fixes the wrong-parity blocks at zero, sets the qubit costs (mixture
    columns take none), re-runs from scratch and gathers the model's
    columns.  Only the blocks of checks whose parity differs from the
    previous solve have their bounds changed, and the costs are sent only
    when they change.  Every run is cold, so its result depends on the
    parities and the qubit costs alone.
    """

    def __init__(self, code: CssCode):
        self._core = core = _highs_core()
        self._tpl = tpl = code._cached(_LpTemplate)
        n_cols = tpl.shape[1]
        self._qubits = np.arange(tpl.n, dtype=np.int32)
        self._mix_cols = np.arange(tpl.n, n_cols, dtype=np.int32)
        self._mix_check = np.repeat(np.arange(tpl.m_x), 2 * tpl.widths)
        self._parities = np.full(tpl.m_x, -1, dtype=np.int8)  # none set yet
        self._cost = np.zeros(tpl.n)  # the qubit costs HiGHS holds
        upper = np.full(n_cols, np.inf)
        upper[tpl.boxed] = 1.0
        self._highs = _new_highs(core, np.zeros(n_cols), np.zeros(n_cols), upper,
                                 tpl, tpl.rhs, tpl.rhs)

    def solve(self, parities: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, float, int]:
        highs = self._highs
        if (cost != self._cost).any():
            highs.changeColsCost(self._qubits.size, self._qubits, cost)
            self._cost = cost.copy()
        gather = self._tpl.columns(parities)
        changed = (parities != self._parities)[self._mix_check]
        if changed.any():
            upper = np.zeros(self._tpl.shape[1])
            upper[gather] = np.inf
            cols = self._mix_cols[changed]
            highs.changeColsBounds(cols.size, cols, np.zeros(cols.size), upper[cols])
            self._parities = parities.astype(np.int8)
        highs.clearSolver()
        values, objective, iterations = _run_highs(self._core, highs)
        return values[gather], objective, iterations


class _CutsModel:
    """One HiGHS model per code for adaptive LP decoding ('cuts').

    It has the n qubit columns, each in [0, 1], and between decodes no rows.
    A solve deletes the previous solve's rows, sets the qubit costs, clears
    the solver and starts from the box optimum x = (cost < 0).  Each round
    then adds, for every check whose forbidden-set inequalities x violates,
    the most violated one (Taghavi & Siegel): with S = {i : x_i > 1/2},
    moved by the member nearest 1/2 when |S| has the check's parity,
    sum_S x_i - sum_{N(j) minus S} x_i <= |S| - 1.  HiGHS re-solves warm
    within the solve, until no inequality is violated; the point is then an
    optimum of the full relaxation.  The first run is cold, so the result
    depends on the parities and the qubit costs alone.
    """

    def __init__(self, code: CssCode):
        self._core = _highs_core()
        self._tan = tan = code.tanner
        degree = np.bincount(tan.x_edge_check, minlength=code.hx.n_rows)
        self._qubits = np.arange(code.n, dtype=np.int32)
        self._empty = np.flatnonzero(degree == 0)  # infeasible when flipped
        self._degree = degree[tan.x_segment_check].astype(np.int32)
        self._edge_qubit = tan.x_edge_qubit.astype(np.int32)
        self._no_lower = np.full(self._degree.size, -np.inf)
        self._cost = np.zeros(code.n)  # the costs HiGHS holds
        self._highs = _new_highs(self._core, self._cost, np.zeros(code.n), np.ones(code.n))

    def _cuts(self, x: np.ndarray, parities: np.ndarray):
        """``addRows`` arguments for the most violated forbidden-set
        inequality of every check that x violates, or None."""
        xe = x[self._edge_qubit]
        inside = xe > 0.5
        near = np.minimum(xe, 1.0 - xe)  # an edge's share of the slack
        starts, row = self._tan.x_segment_start, self._tan.x_edge_segment
        move = (np.add.reduceat(inside, starts, dtype=np.int64) & 1) == parities
        nearest = np.maximum.reduceat(near, starts)  # nearest 1/2: cheapest to move
        # an inequality holds exactly when its slack sum_S (1 - x) + sum_rest x
        # is >= 1; moving an edge across S adds 1 - 2 near to it
        slack = np.add.reduceat(near, starts) + move * (1.0 - 2.0 * nearest)
        cut = slack < 1.0 - _INTEGRAL_TOL
        if not cut.any():
            return None
        # a cut check has one member nearest 1/2: two would make its slack >= 1
        inside ^= (move & cut)[row] & (near == nearest[row])
        edges = cut[row]
        member = inside[edges]
        degree = self._degree[cut]
        starts = degree.cumsum(dtype=np.int32) - degree
        upper = np.add.reduceat(member, starts, dtype=np.int64) - 1.0
        return (degree.size, self._no_lower[: degree.size], upper, member.size, starts,
                self._edge_qubit[edges], np.where(member, 1.0, -1.0))

    def solve(self, parities: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, float, int]:
        highs = self._highs
        rows = highs.getNumRow()
        if rows:
            highs.deleteRows(rows, np.arange(rows, dtype=np.int32))
        if (cost != self._cost).any():
            highs.changeColsCost(self._qubits.size, self._qubits, cost)
            self._cost = cost.copy()
        highs.clearSolver()
        if parities[self._empty].any():
            raise Infeasible("a check without qubits is flipped")
        parities = parities[self._tan.x_segment_check]
        values = (cost < 0).astype(float)
        objective = float(cost[cost < 0].sum())
        iterations = rounds = 0
        while (cuts := self._cuts(values, parities)) is not None:
            if rounds == _CUT_ROUNDS_PER_QUBIT * self._qubits.size:
                raise IterationLimit(f"inequalities still violated after {rounds} rounds")
            highs.addRows(*cuts)
            values, objective, pivots = _run_highs(self._core, highs)
            iterations += pivots
            rounds += 1
        return values, objective, iterations


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core_by_path() -> None:
    """Load scipy's HiGHS extension from its file, under its canonical name.

    Importing it by name runs ``scipy/optimize/__init__.py`` first, which
    costs 0.1-0.3 s and about 19 MB; the extension itself needs neither.
    ``find_spec`` of the extension would import its parent packages, so the
    file is found from the spec of ``scipy``, which imports nothing.  On
    success the module is in ``sys.modules``, where a later ``import
    scipy.optimize`` finds and reuses it; on failure nothing is left behind.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or scipy_spec.origin is None:
        return
    base = os.path.join(os.path.dirname(scipy_spec.origin), "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(_HIGHS_CORE, base + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_HIGHS_CORE]
                raise
            return


def _highs_core():
    """scipy's HiGHS extension; LposdError when it cannot be loaded.

    A ``None`` entry for the extension in ``sys.modules`` means its import
    is blocked, and is honoured.  If loading by path fails, the normal
    import is tried.
    """
    if _HIGHS_CORE not in sys.modules:
        try:
            _load_highs_core_by_path()
        except (ImportError, OSError):
            pass
    try:
        return importlib.import_module(_HIGHS_CORE)
    except ImportError as exc:
        raise LposdError(f"scipy's HiGHS bindings cannot be loaded: {exc}") from None


def _snap(values: np.ndarray) -> np.ndarray:
    """Snap components within 1e-11 of 0 or 1 to exact integers, in place."""
    values[np.abs(values) < _SNAP] = 0.0
    values[np.abs(values - 1.0) < _SNAP] = 1.0
    return values


def _solve_syndrome(code: CssCode, s: np.ndarray, cost: np.ndarray,
                    solver: str) -> tuple[np.ndarray, float, int]:
    """The one solve of a syndrome or error model: the column values its
    backend gives, unsnapped, the objective and the simplex iterations of
    the LP with check parities ``s`` and qubit costs ``cost`` (length n).
    'scipy' and 'cuts' hand both to the code's persistent model; only
    'embedded' builds a model."""
    if solver == "embedded":
        return _solve_embedded(_primal_lp(code, "syndrome", cost, {"parities": s}))
    return code._cached(_CutsModel if solver == "cuts" else _HighsModel).solve(s, cost)


def solve_lp(model: LpModel, solver: str = "scipy") -> LpSolution:
    """Solve a model with the chosen backend ('scipy', 'cuts' or 'embedded').

    A syndrome or error model is solved by ``_solve_syndrome`` from its
    check parities and qubit costs, the same solve the decoders make;
    mixture columns take no cost, and a model that gives them one raises
    LposdError.  'scipy', the default here, runs HiGHS on the code's
    persistent model, cold-started on every call so the result does not
    depend on earlier solves; only a dual model gets a one-off HiGHS model
    (see the module docstring).  'cuts', the decoders' default
    (``DEFAULT_SOLVER``), runs adaptive LP decoding on the code's
    qubit-only model, also cold on every call; its solution carries the
    qubit values only, and a dual model raises LposdError.  'embedded' is
    the simplex that needs only numpy and scipy.sparse, kept as a
    cross-check.  All three reach the same optimal objective, except that
    'embedded' raises LposdError on a negative cost of a qubit that no X
    check touches, which the others box at 1; they may return different
    vertices of a degenerate optimal face, so a decoder's correction can
    depend on the backend.

    Near-integer components of the solution are snapped to exact integers
    (at 1e-11), which keeps downstream reflections and roundings exact.
    Raises Infeasible or IterationLimit; other backend failures, and
    'scipy' or 'cuts' without scipy's HiGHS extension, raise LposdError.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if model.kind != "dual":
        if model.c[model.code.n:].any():
            raise LposdError("syndrome and error models take no mixture costs")
        values, objective, iterations = _solve_syndrome(
            model.code, model.meta["parities"], model.c[: model.code.n], solver)
    elif solver == "cuts":
        raise LposdError("'cuts' solves syndrome and error models only, not the dual")
    elif solver == "embedded":
        values, objective, iterations = _solve_embedded(model)
    else:  # the dual: a one-off HiGHS model of this LP alone
        core = _highs_core()
        sign = 1.0 if model.sense == "min" else -1.0
        highs = _new_highs(core, sign * model.c, np.where(model.free_vars, -np.inf, 0.0),
                           np.full(model.n_vars, np.inf), model.a,
                           np.where(model.row_sense < 0, -np.inf, model.b), model.b)
        values, objective, iterations = _run_highs(core, highs)
        objective *= sign
    return LpSolution(model=model, values=_snap(values), objective=float(objective),
                      status="optimal", iterations=iterations, solver=solver)


def is_integral(sol: LpSolution | np.ndarray) -> bool:
    """True when every qubit variable is within 1e-6 of 0 or 1."""
    x = sol.x() if isinstance(sol, LpSolution) else np.asarray(sol, dtype=float)
    return bool((np.minimum(np.abs(x), np.abs(x - 1.0)) <= _INTEGRAL_TOL).all())


def round_independent(x) -> np.ndarray:
    """Round each coordinate independently; exactly 1/2 rounds to 1."""
    arr = np.asarray(x, dtype=float)
    return (arr >= 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# reflection between the error-anchored and syndrome formulations
# ---------------------------------------------------------------------------


def reflect_to_syndrome_solution(sol: LpSolution, e_prime=None) -> LpSolution:
    """Map an error-anchored solution to the syndrome formulation.

    Qubit values inside the reference error are reflected (x -> 1 - x);
    mixture values move to the subset shifted by the reference restricted to
    the check.  The objective shifts by exactly the reference weight.  The
    map is an involution together with reflect_to_error_solution.  An
    ``e_prime``, when given, must be the model's own reference error.
    """
    model = sol.model
    if model.kind != "error":
        raise LposdError("expected a solution of the error-anchored LP")
    e_arr = model.meta["e_prime"]
    if e_prime is not None and not np.array_equal(
            as_bit_vector(e_prime, model.code.n, "reference error"), e_arr):
        raise LposdError("reference error does not match the model's reference")
    return _reflect(sol, build_syndrome_lp(model.code, model.code.syndrome(e_arr)), e_arr, +1)


def reflect_to_error_solution(sol: LpSolution, e_prime) -> LpSolution:
    """Inverse of reflect_to_syndrome_solution for the same reference error."""
    model = sol.model
    if model.kind != "syndrome":
        raise LposdError("expected a solution of the syndrome LP")
    e_arr = as_bit_vector(e_prime, model.code.n, "reference error")
    if not np.array_equal(model.code.syndrome(e_arr), model.meta["syndrome"]):
        raise LposdError("reference error does not match the model's syndrome")
    return _reflect(sol, build_error_lp(model.code, e_arr), e_arr, -1)


def _reflect(sol: LpSolution, target: LpModel, e_arr: np.ndarray, sign: int) -> LpSolution:
    """``sol`` reflected through the reference error ``e_arr`` onto ``target``,
    its objective shifted by ``sign`` times the reference weight."""
    src = sol.model
    tan = src.code.tanner
    n = src.code.n
    values = np.zeros(target.n_vars)
    x = sol.values[:n]
    values[:n] = np.where(e_arr.astype(bool), 1.0 - x, x)
    support_of = {i for i in range(n) if e_arr[i]}
    for j in range(src.code.hx.n_rows):
        shift = tuple(q for q in tan.x_supports[j] if q in support_of)
        for subset in target.mixture_subsets(j):
            src_subset = tuple(sorted(set(subset).symmetric_difference(shift)))
            values[target.mixture_col(j, subset)] = sol.mixture_value(j, src_subset)
    return LpSolution(model=target, values=values,
                      objective=sol.objective + sign * float(e_arr.sum()),
                      status=sol.status, iterations=sol.iterations, solver=sol.solver)


# ---------------------------------------------------------------------------
# interchange dump
# ---------------------------------------------------------------------------


def dump_lp(model: LpModel, path) -> None:
    """Write the model in the common LP interchange text layout."""
    names = model.var_names()
    lines = ["\\ generated by lposd", "Minimize" if model.sense == "min" else "Maximize"]
    terms = [
        f"{'+' if coef >= 0 else '-'} {abs(coef):.12g} {names[i]}"
        for i, coef in enumerate(model.c) if coef != 0.0
    ]
    lines.append(" obj: " + " ".join(terms).lstrip("+ "))
    lines.append("Subject To")
    csr = model.a.tocsr()
    rel = {0: "=", -1: "<="}
    for r in range(csr.shape[0]):
        lo, hi = csr.indptr[r], csr.indptr[r + 1]
        parts = [
            f"{'+' if v >= 0 else '-'} {abs(v):.12g} {names[c]}"
            for c, v in zip(csr.indices[lo:hi], csr.data[lo:hi])
        ]
        body = " ".join(parts).lstrip("+ ") or "0 " + names[0]
        lines.append(f" r{r}: {body} {rel[int(model.row_sense[r])]} {model.b[r]:.12g}")
    free = np.flatnonzero(model.free_vars)
    if free.size:
        lines.append("Bounds")
        lines.extend(f" {names[int(v)]} free" for v in free)
    lines.append("End")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
