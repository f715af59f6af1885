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
  whose feasible points price qubits and Tanner edges.

Auxiliary mixture variables are expanded explicitly (one variable per
even- or odd-parity subset of each check's support), so check weight is
capped; wider checks raise CheckWeightTooLarge.

Two solver backends: HiGHS ('scipy', the default, ``DEFAULT_SOLVER``)
and the embedded simplex ('embedded'), which needs nothing beyond numpy and
scipy.sparse and is kept as a dependency-free cross-check.  For the primal
kinds, HiGHS runs on one persistent model per code, kept on the code's
constraint template: the qubit columns plus both parities' mixture blocks
for every check (252 rows x 2376 columns on bb72), loaded once with
presolve off.  A solve fixes the wrong-parity columns at zero, sets the
qubit costs, clears the solver and runs it cold, then gathers the chosen
columns back into the model's own layout.  Cold starts make the returned
vertex a function of the model alone, so results do not depend on the
order of solves.  Warm-starting from the previous basis was also measured
slower despite fewer pivots: 5.0-6.3 against 3.3-3.8 ms per bb72 solve
(149 against 280 pivots), 16-20 against 6.3-6.8 ms on bb144.  The HiGHS
extension module is loaded by file path, so that path never imports
``scipy.optimize``.  Dual models, and every model when scipy's private
HiGHS bindings cannot be loaded, go through ``scipy.optimize.linprog``.

The two backends agree on every optimal objective, but on a degenerate
optimal face they may return different vertices, so switching backends can
change which correction a decoder returns.

Syndrome and error models assemble their sparse constraint matrix ``a``
only when it is first read; the persistent HiGHS path never reads it.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .codes import CssCode
from .errors import CheckWeightTooLarge, Infeasible, IterationLimit, LposdError
from .simplex import solve_standard_form

__all__ = [
    "DEFAULT_SOLVER",
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
# otherwise: HiGHS on the persistent per-code model.
DEFAULT_SOLVER = "scipy"

# Components this close to an integer are snapped when a solution is packaged.
_SNAP = 1e-11


def parity_subsets(support: Sequence[int], parity: int) -> list[tuple[int, ...]]:
    """Subsets of ``support`` with |S| congruent to ``parity`` mod 2.

    Deterministic order: by size, then lexicographically.  There are
    2^(w-1) of them for a width-w support.
    """
    out: list[tuple[int, ...]] = []
    for size in range(parity & 1, len(support) + 1, 2):
        out.extend(itertools.combinations(support, size))
    return out


class _CheckBlock:
    """Prebuilt constraint triplets for one check at one parity."""

    __slots__ = ("subsets", "index", "rows", "cols", "vals")

    def __init__(self, subsets, rows, cols, vals):
        self.subsets = subsets
        self.index = {s: t for t, s in enumerate(subsets)}
        self.rows = rows
        self.cols = cols
        self.vals = vals


class _LpTemplate:
    """Per-code constraint template shared by every syndrome/error model.

    Column layout: qubit variables first (0..n-1), then one block of mixture
    variables per check.  Row layout: one normalization row per check
    (0..m_x-1), then one consistency row per Tanner edge in deterministic
    order.  Both layouts are independent of the syndrome, so per-decode
    assembly is pure concatenation of cached triplet arrays.
    """

    def __init__(self, code: CssCode):
        tan = code.tanner
        self.n = code.n
        self.m_x = code.hx.n_rows
        self.edges = tan.x_edges
        self.edge_row = {edge: self.m_x + p for p, edge in enumerate(self.edges)}
        self.w_offset = []
        offset = self.n
        for j in range(self.m_x):
            w = len(tan.x_supports[j])
            if w > MAX_CHECK_WEIGHT:
                raise CheckWeightTooLarge(
                    f"check {j} has weight {w} > {MAX_CHECK_WEIGHT}"
                )
            self.w_offset.append(offset)
            offset += 1 << max(w - 1, 0)
        self.n_vars = offset
        self.n_rows = self.m_x + len(self.edges)
        self.blocks: list[tuple[_CheckBlock, _CheckBlock]] = []
        for j in range(self.m_x):
            self.blocks.append((
                self._build_block(code, j, 0),
                self._build_block(code, j, 1),
            ))
        self.rhs = np.concatenate([
            np.ones(self.m_x), np.zeros(len(self.edges)),
        ])
        self._highs: _HighsModel | None = None

    def __getstate__(self):
        # A HiGHS handle does not pickle; each process builds its own.
        state = self.__dict__.copy()
        state["_highs"] = None
        return state

    def _build_block(self, code: CssCode, j: int, parity: int) -> _CheckBlock:
        support = code.tanner.x_supports[j]
        subsets = parity_subsets(support, parity)
        base = self.w_offset[j]
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for t, s in enumerate(subsets):
            rows.append(j)
            cols.append(base + t)
            vals.append(1.0)
            for q in s:
                rows.append(self.edge_row[(q, j)])
                cols.append(base + t)
                vals.append(1.0)
        for q in support:
            rows.append(self.edge_row[(q, j)])
            cols.append(q)
            vals.append(-1.0)
        return _CheckBlock(
            subsets,
            np.asarray(rows, dtype=np.int32),
            np.asarray(cols, dtype=np.int32),
            np.asarray(vals, dtype=np.float64),
        )

    def assemble(self, parities: np.ndarray) -> sp.csc_matrix:
        rows = np.concatenate([self.blocks[j][parities[j]].rows for j in range(self.m_x)])
        cols = np.concatenate([self.blocks[j][parities[j]].cols for j in range(self.m_x)])
        vals = np.concatenate([self.blocks[j][parities[j]].vals for j in range(self.m_x)])
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(self.n_rows, self.n_vars))
        return coo.tocsc()


def _template(code: CssCode) -> _LpTemplate:
    if code._lp_template is None:
        code._lp_template = _LpTemplate(code)
    return code._lp_template


@dataclass
class LpModel:
    """A linear program with named structure over a code's Tanner graph.

    ``kind`` is one of 'syndrome', 'error', 'dual'.  For the primal kinds
    the first ``n`` columns are the qubit variables; ``subset_of_col`` maps
    a mixture column back to its (check, subset) pair on demand.  Their
    constraint matrix ``a`` is assembled from the code's template on first
    read; dual models pass theirs in as ``_a``.
    """

    kind: str
    code: CssCode
    sense: str  # 'min' or 'max'
    c: np.ndarray
    row_sense: np.ndarray  # 0 equality, -1 <=, +1 >=
    b: np.ndarray
    free_vars: np.ndarray  # bool mask; False means lower bound 0
    meta: dict = field(default_factory=dict)
    _a: sp.csc_matrix | None = field(default=None, repr=False)

    @property
    def a(self) -> sp.csc_matrix:
        if self._a is None:
            self._a = _template(self.code).assemble(self.meta["parities"])
        return self._a

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.code.n

    def qubit_values(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "dual":
            raise LposdError("dual models have no qubit variables")
        return values[: self.code.n]

    # -- structural lookups (primal kinds) --------------------------------

    def mixture_subsets(self, j: int):
        tpl = _template(self.code)
        parity = int(self.meta["parities"][j])
        return tpl.blocks[j][parity].subsets

    def mixture_col(self, j: int, subset) -> int:
        tpl = _template(self.code)
        parity = int(self.meta["parities"][j])
        block = tpl.blocks[j][parity]
        key = tuple(sorted(subset))
        try:
            return tpl.w_offset[j] + block.index[key]
        except KeyError:
            raise LposdError(
                f"subset {key} is not a parity-{parity} subset of check {j}"
            ) from None

    def var_names(self) -> list[str]:
        """Deterministic variable names for the interchange dump."""
        if self.kind == "dual":
            m_x = self.code.hx.n_rows
            names = [f"s{j}" for j in range(m_x)]
            names += [f"t{q}_{j}" for q, j in _template(self.code).edges]
            return names
        tpl = _template(self.code)
        names = [f"x{i}" for i in range(self.code.n)]
        for j in range(tpl.m_x):
            block = tpl.blocks[j][int(self.meta["parities"][j])]
            for s in block.subsets:
                names.append("w" + str(j) + "_" + ("_".join(map(str, s)) if s else "e"))
        return names


@dataclass
class LpSolution:
    """Solver output bound to its model."""

    model: LpModel
    values: np.ndarray
    objective: float
    status: str
    iterations: int
    solver: str

    def x(self) -> np.ndarray:
        return self.model.qubit_values(self.values)

    def mixture_value(self, j: int, subset) -> float:
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


def build_syndrome_lp(code: CssCode, s, weights: Sequence[float] | None = None) -> LpModel:
    """LP whose optimum lower-bounds the minimum error weight for syndrome s."""
    tpl = _template(code)
    s_arr = np.asarray(s, dtype=np.int8) & 1
    if s_arr.shape != (tpl.m_x,):
        raise ValueError(f"syndrome must have length {tpl.m_x}")
    c = np.zeros(tpl.n_vars)
    if weights is None:
        c[: tpl.n] = 1.0
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (tpl.n,):
            raise ValueError(f"weights must have length {tpl.n}")
        c[: tpl.n] = w
    return LpModel(
        kind="syndrome",
        code=code,
        sense="min",
        c=c,
        row_sense=np.zeros(tpl.n_rows, dtype=np.int8),
        b=tpl.rhs,
        free_vars=np.zeros(tpl.n_vars, dtype=bool),
        meta={"syndrome": s_arr.astype(np.uint8), "parities": s_arr, "weights": weights},
    )


def build_error_lp(code: CssCode, e_prime) -> LpModel:
    """LP anchored at a reference error with the same syndrome.

    Objective: sum of x over qubits outside the reference minus the sum over
    qubits inside, so any feasible point with negative value certifies a
    strictly lighter coset representative than the reference.
    """
    tpl = _template(code)
    e_arr = np.asarray(e_prime, dtype=np.uint8)
    if e_arr.shape != (tpl.n,):
        raise ValueError(f"reference error must have length {tpl.n}")
    c = np.zeros(tpl.n_vars)
    c[: tpl.n] = 1.0 - 2.0 * e_arr
    parities = np.zeros(tpl.m_x, dtype=np.int8)
    return LpModel(
        kind="error",
        code=code,
        sense="min",
        c=c,
        row_sense=np.zeros(tpl.n_rows, dtype=np.int8),
        b=tpl.rhs,
        free_vars=np.zeros(tpl.n_vars, dtype=bool),
        meta={"e_prime": e_arr, "parities": parities},
    )


def build_dual_lp(code: CssCode, e_prime) -> LpModel:
    """Inequality dual of the error-anchored LP.

    Variables: one score per check, then one weight per Tanner edge (in the
    template's edge order).  Maximize the sum of check scores subject to
    (a) each qubit's incident edge weights summing to at most +1 outside
    the reference error and -1 inside it, and (b) each check's score being
    at most the edge-weight sum over every even subset of its support.
    """
    tpl = _template(code)
    e_arr = np.asarray(e_prime, dtype=np.uint8)
    if e_arr.shape != (tpl.n,):
        raise ValueError(f"reference error must have length {tpl.n}")
    n_sigma = tpl.m_x
    n_tau = len(tpl.edges)
    edge_col = {edge: n_sigma + p for p, edge in enumerate(tpl.edges)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b: list[float] = []
    r = 0
    tan = code.tanner
    for q in range(tpl.n):
        for j in tan.x_checks_of_qubit[q]:
            rows.append(r)
            cols.append(edge_col[(q, j)])
            vals.append(1.0)
        b.append(1.0 - 2.0 * float(e_arr[q]))
        r += 1
    for j in range(tpl.m_x):
        for s in parity_subsets(tan.x_supports[j], 0):
            rows.append(r)
            cols.append(j)
            vals.append(1.0)
            for q in s:
                rows.append(r)
                cols.append(edge_col[(q, j)])
                vals.append(-1.0)
            b.append(0.0)
            r += 1
    c = np.zeros(n_sigma + n_tau)
    c[:n_sigma] = 1.0
    a = sp.coo_matrix((vals, (rows, cols)), shape=(r, n_sigma + n_tau)).tocsc()
    return LpModel(
        kind="dual",
        code=code,
        sense="max",
        c=c,
        row_sense=np.full(r, -1, dtype=np.int8),
        b=np.asarray(b),
        free_vars=np.ones(n_sigma + n_tau, dtype=bool),
        meta={"e_prime": e_arr, "edge_col": edge_col},
        _a=a,
    )


def as_dual_solution(sol: LpSolution) -> DualSolution:
    model = sol.model
    if model.kind != "dual":
        raise LposdError("not a dual model")
    m_x = model.code.hx.n_rows
    edge_values = {
        edge: float(sol.values[col]) for edge, col in model.meta["edge_col"].items()
    }
    return DualSolution(
        model=model,
        check_values=sol.values[:m_x].copy(),
        edge_values=edge_values,
        objective=sol.objective,
        status=sol.status,
        iterations=sol.iterations,
        solver=sol.solver,
    )


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _to_standard_form(model: LpModel):
    """Rewrite a general model as min c.x, A x = b, x >= 0.

    Returns (c, a, b, recover) where recover maps a standard-form point back
    to the model's variable space.  Pure equality models with nonnegative
    variables pass through untouched.
    """
    sign = 1.0 if model.sense == "min" else -1.0
    if not model.free_vars.any() and not model.row_sense.any():
        if sign == 1.0:
            return model.c, model.a, model.b, lambda x: x
        return sign * model.c, model.a, model.b, lambda x: x
    n = model.n_vars
    free_idx = np.flatnonzero(model.free_vars)
    neg_col_of = {int(v): n + t for t, v in enumerate(free_idx)}
    n_split = n + free_idx.size
    coo = model.a.tocoo()
    rows = [coo.row]
    cols = [coo.col]
    vals = [coo.data]
    # mirrored columns for free variables
    free_mask = model.free_vars[coo.col]
    if free_mask.any():
        rows.append(coo.row[free_mask])
        cols.append(np.asarray([neg_col_of[int(v)] for v in coo.col[free_mask]]))
        vals.append(-coo.data[free_mask])
    # slack/surplus for inequality rows
    ineq = np.flatnonzero(model.row_sense != 0)
    slack_cols = np.arange(n_split, n_split + ineq.size)
    rows.append(ineq)
    cols.append(slack_cols)
    vals.append(np.where(model.row_sense[ineq] < 0, 1.0, -1.0))
    n_total = n_split + ineq.size
    a_std = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(model.a.shape[0], n_total),
    ).tocsc()
    c_std = np.zeros(n_total)
    c_std[:n] = sign * model.c
    for v, nc in neg_col_of.items():
        c_std[nc] = -sign * model.c[v]

    def recover(x_std: np.ndarray) -> np.ndarray:
        x = x_std[:n].copy()
        if free_idx.size:
            x[free_idx] -= x_std[n : n + free_idx.size]
        return x

    return c_std, a_std, model.b, recover


def _solve_embedded(model: LpModel, **opts) -> tuple[np.ndarray, float, str, int]:
    c_std, a_std, b_std, recover = _to_standard_form(model)
    res = solve_standard_form(c_std, a_std, b_std, **opts)
    if res.status == "infeasible":
        raise Infeasible(res.message or "model is infeasible")
    if res.status == "iteration_limit":
        raise IterationLimit(f"simplex hit the iteration cap after {res.iterations} pivots")
    if res.status != "optimal":
        raise LposdError(f"simplex failed: {res.status} {res.message}")
    values = recover(res.x)
    objective = res.objective if model.sense == "min" else -res.objective
    return values, objective, "optimal", res.iterations


class _HighsModel:
    """One HiGHS model per code that serves every syndrome and error model.

    Column layout: the n qubit columns, then for each check its parity-0
    mixture block followed by its parity-1 block, each as wide as the
    check's block in the template.  Rows are the template's rows.  A solve
    fixes the wrong-parity columns at zero, sets the qubit costs (both
    primal builders leave mixture columns at cost zero), and re-runs from
    scratch.  Only the blocks of checks whose parity differs from the
    previous solve have their bounds changed.
    """

    def __init__(self, core, tpl: _LpTemplate):
        n, m_x = tpl.n, tpl.m_x
        offsets = np.asarray(tpl.w_offset, dtype=np.int64)
        widths = np.diff(np.append(offsets, tpl.n_vars))
        full_offsets = n + 2 * (offsets - n)
        self.n_cols = n + 2 * (tpl.n_vars - n)
        rows, cols, vals = [], [], []
        for j, pair in enumerate(tpl.blocks):
            for parity, block in enumerate(pair):
                mix = block.cols >= n
                keep = mix if parity else np.ones_like(mix)  # qubit entries once
                shift = full_offsets[j] + parity * widths[j] - offsets[j]
                rows.append(block.rows[keep])
                cols.append(np.where(mix, block.cols + shift, block.cols)[keep])
                vals.append(block.vals[keep])
        a = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(tpl.n_rows, self.n_cols),
        ).tocsc()

        # model mixture column k of check j sits at full column
        # full_offsets[j] + (k - offsets[j]) + parity_j * widths[j]
        self._check = np.repeat(np.arange(m_x), widths)
        self._base = full_offsets[self._check] + (
            np.arange(n, tpl.n_vars) - offsets[self._check])
        self._width = widths[self._check]
        self._qubits = np.arange(n, dtype=np.int32)
        # full mixture columns, with the check and parity each belongs to
        self._mix_cols = np.arange(n, self.n_cols, dtype=np.int32)
        self._mix_check = np.repeat(np.arange(m_x), 2 * widths)
        self._mix_parity = np.repeat(np.tile(np.array([0, 1], dtype=np.int8), m_x),
                                     np.repeat(widths, 2))
        self._parities = np.full(m_x, -1, dtype=np.int8)  # none set yet

        lp = core.HighsLp()
        lp.num_col_ = self.n_cols
        lp.num_row_ = tpl.n_rows
        lp.col_cost_ = np.zeros(self.n_cols)
        lp.col_lower_ = np.zeros(self.n_cols)
        lp.col_upper_ = np.full(self.n_cols, np.inf)
        lp.row_lower_ = tpl.rhs
        lp.row_upper_ = tpl.rhs
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = self.n_cols
        lp.a_matrix_.num_row_ = tpl.n_rows
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        self._status = core.HighsModelStatus
        self._highs = core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "off")
        if self._highs.passModel(lp) == core.HighsStatus.kError:
            raise LposdError("HiGHS rejected the persistent model")

    def solve(self, model: LpModel) -> tuple[np.ndarray, float, str, int]:
        parities = model.meta["parities"]
        gather = np.concatenate([
            self._qubits, self._base + self._width * parities[self._check]])
        highs, status_of = self._highs, self._status
        changed = (parities != self._parities)[self._mix_check]
        if changed.any():
            cols = self._mix_cols[changed]
            upper = np.where(
                self._mix_parity[changed] == parities[self._mix_check[changed]],
                np.inf, 0.0)
            highs.changeColsBounds(cols.size, cols, np.zeros(cols.size), upper)
            self._parities = parities.astype(np.int8)
        highs.changeColsCost(self._qubits.size, self._qubits,
                             model.c[: self._qubits.size])
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
        if status in (status_of.kInfeasible, status_of.kUnboundedOrInfeasible):
            raise Infeasible("model is infeasible")
        if status == status_of.kIterationLimit:
            raise IterationLimit("HiGHS hit its iteration limit")
        if status != status_of.kOptimal:
            raise LposdError(f"HiGHS failed: {highs.modelStatusToString(status)}")
        info = highs.getInfo()
        values = np.asarray(highs.getSolution().col_value)[gather]
        return values, float(info.objective_function_value), "optimal", int(
            info.simplex_iteration_count)


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core_by_path() -> None:
    """Load scipy's HiGHS extension from its file, under its canonical name.

    Importing it by name runs ``scipy/optimize/__init__.py`` first, which
    costs 0.1-0.3 s and about 19 MB; the extension itself needs neither.
    ``importlib.util.find_spec`` would import the parent packages too, so
    the file is located from ``scipy.__file__``.  On success the module is
    in ``sys.modules``, where a later ``import scipy.optimize`` finds and
    reuses it; on failure nothing is left behind.
    """
    import scipy

    base = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy", "_core")
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


def _highs_model(code: CssCode) -> _HighsModel | None:
    """The code's persistent HiGHS model, or None without scipy's bindings.

    A ``None`` entry for the extension in ``sys.modules`` means its import
    is blocked, and is honoured.  If loading by path fails, the normal
    import is tried; if that fails too, the caller falls back to linprog.
    """
    tpl = _template(code)
    if tpl._highs is None:
        if _HIGHS_CORE not in sys.modules:
            try:
                _load_highs_core_by_path()
            except (ImportError, OSError):
                pass
        try:
            core = importlib.import_module(_HIGHS_CORE)
        except ImportError:
            return None
        tpl._highs = _HighsModel(core, tpl)
    return tpl._highs


def _solve_scipy(model: LpModel, **opts) -> tuple[np.ndarray, float, str, int]:
    if model.kind != "dual" and not model.c[model.code.n:].any():
        highs = _highs_model(model.code)
        if highs is not None:
            return highs.solve(model)
    from scipy.optimize import linprog

    sign = 1.0 if model.sense == "min" else -1.0
    eq = model.row_sense == 0
    le = ~eq
    a_csr = model.a.tocsr()
    a_eq = a_csr[eq] if eq.any() else None
    b_eq = model.b[eq] if eq.any() else None
    if le.any():
        scale = np.where(model.row_sense[le] > 0, -1.0, 1.0)
        a_ub = sp.diags(scale) @ a_csr[le]
        b_ub = scale * model.b[le]
    else:
        a_ub = b_ub = None
    bounds = [(None, None) if f else (0, None) for f in model.free_vars]
    res = linprog(sign * model.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        raise Infeasible("model is infeasible")
    if res.status == 1:
        raise IterationLimit("scipy backend hit its iteration limit")
    if res.status != 0:
        raise LposdError(f"scipy backend failed: {res.message}")
    nit = int(getattr(res, "nit", 0) or 0)
    return res.x, sign * float(res.fun), "optimal", nit


def solve_lp(model: LpModel, solver: str = DEFAULT_SOLVER, **opts) -> LpSolution:
    """Solve a model with the chosen backend ('scipy' or 'embedded').

    'scipy', the default, solves syndrome and error models on the code's
    persistent HiGHS model, cold-started on every call so the result does
    not depend on earlier solves (see the module docstring); dual models,
    and all models when scipy's private HiGHS bindings are missing, go
    through ``scipy.optimize.linprog``.  'embedded' is the dependency-free
    simplex, kept as a cross-check; it reaches the same optimal objective
    but may return a different vertex of a degenerate optimal face, so a
    decoder's correction can depend on the backend.

    Near-integer components of the solution are snapped to exact integers
    (at 1e-11), which keeps downstream reflections and roundings exact.
    Raises Infeasible or IterationLimit; other backend failures raise
    LposdError.
    """
    if solver == "embedded":
        values, objective, status, iterations = _solve_embedded(model, **opts)
    elif solver == "scipy":
        values, objective, status, iterations = _solve_scipy(model, **opts)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    near_zero = np.abs(values) < _SNAP
    values[near_zero] = 0.0
    near_one = np.abs(values - 1.0) < _SNAP
    values[near_one] = 1.0
    sol = LpSolution(
        model=model,
        values=values,
        objective=float(objective),
        status=status,
        iterations=iterations,
        solver=solver,
    )
    return sol


def is_integral(sol: LpSolution | np.ndarray, tol: float = 1e-6) -> bool:
    """True when every qubit variable is within tol of 0 or 1."""
    x = sol.x() if isinstance(sol, LpSolution) else np.asarray(sol, dtype=float)
    return bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= tol))


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
    map is an involution together with reflect_to_error_solution.
    """
    model = sol.model
    if model.kind != "error":
        raise LposdError("expected a solution of the error-anchored LP")
    code = model.code
    e_arr = model.meta["e_prime"] if e_prime is None else np.asarray(e_prime, dtype=np.uint8)
    s = code.syndrome(e_arr)
    target = build_syndrome_lp(code, s)
    values = _reflect_values(sol.values, model, target, e_arr)
    return LpSolution(
        model=target,
        values=values,
        objective=sol.objective + float(e_arr.sum()),
        status=sol.status,
        iterations=sol.iterations,
        solver=sol.solver,
    )


def reflect_to_error_solution(sol: LpSolution, e_prime) -> LpSolution:
    """Inverse of reflect_to_syndrome_solution for the same reference error."""
    model = sol.model
    if model.kind != "syndrome":
        raise LposdError("expected a solution of the syndrome LP")
    code = model.code
    e_arr = np.asarray(e_prime, dtype=np.uint8)
    if not np.array_equal(code.syndrome(e_arr), model.meta["syndrome"]):
        raise LposdError("reference error does not match the model's syndrome")
    target = build_error_lp(code, e_arr)
    values = _reflect_values(sol.values, model, target, e_arr)
    return LpSolution(
        model=target,
        values=values,
        objective=sol.objective - float(e_arr.sum()),
        status=sol.status,
        iterations=sol.iterations,
        solver=sol.solver,
    )


def _reflect_values(src_values: np.ndarray, src_model: LpModel,
                    dst_model: LpModel, e_arr: np.ndarray) -> np.ndarray:
    code = src_model.code
    tan = code.tanner
    n = code.n
    values = np.zeros(dst_model.n_vars)
    x = src_values[:n]
    inside = e_arr.astype(bool)
    values[:n] = np.where(inside, 1.0 - x, x)
    support_of = {i for i in range(n) if e_arr[i]}
    for j in range(code.hx.n_rows):
        shift = tuple(q for q in tan.x_supports[j] if q in support_of)
        for subset in dst_model.mixture_subsets(j):
            src_subset = tuple(sorted(set(subset).symmetric_difference(shift)))
            values[dst_model.mixture_col(j, subset)] = src_values[
                src_model.mixture_col(j, src_subset)
            ]
    return values


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
    rel = {0: "=", -1: "<=", 1: ">="}
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
