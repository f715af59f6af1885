"""Embedded revised-simplex solver for the decoder's linear programs.

Solves min c.x subject to A x = b, x >= 0 with a two-phase revised simplex
that maintains an explicit dense basis inverse.  Pricing is Dantzig's rule
with a permanent switch to Bland's rule once a degeneracy stall is detected,
which guarantees termination on the highly degenerate decoding polytopes.
The basis inverse is refactorized periodically to bound numerical drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["SimplexResult", "solve_standard_form"]

_TOL_FEAS = 1e-8  # phase-1 infeasibility and final-residual scale
_TOL_OPT = 1e-9  # reduced-cost threshold for entering columns
_TOL_PIVOT = 1e-10  # smallest usable pivot element
_MAX_ITER = 50_000
_REFACTOR_EVERY = 150  # pivots between basis refactorizations


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit | numerical
    x: np.ndarray | None
    objective: float
    iterations: int
    message: str = ""


def _column(a: sp.csc_matrix, j: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = a.indptr[j], a.indptr[j + 1]
    return a.indices[lo:hi], a.data[lo:hi]


class _Engine:
    def __init__(self, c, a, b):
        self.m, self.n = a.shape
        flip = b < 0
        if flip.any():
            scale = np.where(flip, -1.0, 1.0)
            a = sp.csc_matrix(sp.diags(scale) @ a)
            b = b * scale
        self.a = sp.csc_matrix(a)
        self.a.sort_indices()
        self.at = sp.csr_matrix(self.a.T)
        self.b = b.astype(float)
        self.c = c.astype(float)
        self.iterations = 0
        # phase-1 start: artificial identity basis (artificial k <=> column n+k)
        self.basis = np.arange(self.n, self.n + self.m)
        self.binv = np.eye(self.m)
        self.xb = self.b.copy()
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.bland = False
        self.degenerate_run = 0
        self.stall_threshold = max(200, 3 * self.m)
        self.since_refactor = 0

    # -- basis linear algebra ------------------------------------------------

    def _basis_column(self, var: int) -> tuple[np.ndarray, np.ndarray]:
        if var < self.n:
            return _column(self.a, var)
        k = var - self.n
        return np.array([k]), np.array([1.0])

    def refactor(self) -> None:
        bmat = np.zeros((self.m, self.m))
        for r, var in enumerate(self.basis):
            idx, val = self._basis_column(int(var))
            bmat[idx, r] = val
        self.binv = np.linalg.inv(bmat)
        self.xb = self.binv @ self.b
        np.clip(self.xb, 0.0, None, out=self.xb)
        self.since_refactor = 0

    def _ftran(self, j: int) -> np.ndarray:
        idx, val = _column(self.a, j)
        return self.binv[:, idx] @ val

    # -- simplex iterations ----------------------------------------------------

    def run_phase(self, cost: np.ndarray, artificial_cost: float) -> str:
        """Iterate to optimality of the given cost vector; return a status."""
        while True:
            if self.iterations >= _MAX_ITER:
                return "iteration_limit"
            cb = np.full(self.m, artificial_cost)
            structural = self.basis < self.n
            cb[structural] = cost[self.basis[structural]]
            y = cb @ self.binv
            rc = cost - self.at.dot(y)
            rc[self.in_basis] = 0.0
            candidates = np.flatnonzero(rc < -_TOL_OPT)
            if candidates.size == 0:
                return "optimal"
            if self.bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmin(rc[candidates])])
            u = self._ftran(j)
            pos = np.flatnonzero(u > _TOL_PIVOT)
            if pos.size == 0:
                return "unbounded"
            ratios = np.maximum(self.xb[pos], 0.0) / u[pos]
            theta = ratios.min()
            ties = pos[ratios <= theta + 1e-12 * (1.0 + theta)]
            if self.bland:
                r = int(ties[np.argmin(self.basis[ties])])
            else:
                r = int(ties[np.argmax(u[ties])])
            if abs(u[r]) < 1e2 * _TOL_PIVOT and self.since_refactor > 0:
                self.refactor()
                continue
            self._pivot(j, r, u, theta)
            if theta <= 1e-12:
                self.degenerate_run += 1
                if self.degenerate_run > self.stall_threshold:
                    self.bland = True
            else:
                self.degenerate_run = 0
            self.iterations += 1
            self.since_refactor += 1
            if self.since_refactor >= _REFACTOR_EVERY:
                self.refactor()

    def _pivot(self, j: int, r: int, u: np.ndarray, theta: float) -> None:
        leaving = int(self.basis[r])
        self.xb -= theta * u
        self.xb[r] = theta
        np.clip(self.xb, 0.0, None, out=self.xb)
        piv_row = self.binv[r] / u[r]
        correction = np.outer(u, piv_row)
        correction[r] = self.binv[r] - piv_row
        self.binv -= correction
        self.basis[r] = j
        self.in_basis[j] = True
        if leaving < self.n:
            self.in_basis[leaving] = False

    # -- phase-1 cleanup ---------------------------------------------------

    def drive_out_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis; drop redundant rows."""
        redundant = []
        for r in range(self.m):
            if self.basis[r] < self.n:
                continue
            alpha = self.at.dot(self.binv[r])
            alpha[self.in_basis] = 0.0
            eligible = np.flatnonzero(np.abs(alpha) > 1e2 * _TOL_PIVOT)
            if eligible.size:
                j = int(eligible[np.argmax(np.abs(alpha[eligible]))])
                u = self._ftran(j)
                self._pivot(j, r, u, theta=max(self.xb[r], 0.0))
            else:
                redundant.append(r)
        if redundant:
            keep = np.setdiff1d(np.arange(self.m), redundant)
            csr = self.a.tocsr()[keep]
            self.a = sp.csc_matrix(csr)
            self.a.sort_indices()
            self.at = sp.csr_matrix(self.a.T)
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self.m = keep.size
            self.refactor()


def solve_standard_form(c: np.ndarray, a: sp.spmatrix, b: np.ndarray) -> SimplexResult:
    """Minimize c.x subject to a x = b, x >= 0."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    a = sp.csc_matrix(a)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent model dimensions")
    if m == 0:  # every point x >= 0 is feasible: a negative cost is a ray
        if (c < -_TOL_OPT).any():
            return SimplexResult("unbounded", None, float("-inf"), 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, 0)
    eng = _Engine(c, a, b)

    status = eng.run_phase(np.zeros(eng.n), artificial_cost=1.0)
    if status != "optimal":
        msg = "phase 1 did not converge"
        return SimplexResult(status if status == "iteration_limit" else "numerical",
                             None, float("nan"), eng.iterations, msg)
    artificial_level = eng.xb[eng.basis >= eng.n].sum()
    if artificial_level > _TOL_FEAS * (1.0 + np.abs(b).sum()):
        return SimplexResult("infeasible", None, float("nan"), eng.iterations,
                             f"phase-1 objective {artificial_level:.3e}")
    eng.drive_out_artificials()
    if (eng.basis >= eng.n).any():
        return SimplexResult("numerical", None, float("nan"), eng.iterations,
                             "artificial variable stuck in basis")

    eng.bland = False
    eng.degenerate_run = 0
    status = eng.run_phase(eng.c, artificial_cost=0.0)
    if status == "optimal":
        eng.refactor()  # crisp final solution and a drift check
        x = np.zeros(eng.n)
        x[eng.basis] = eng.xb
        residual = np.abs(eng.a @ x - eng.b).max() if eng.m else 0.0
        b_scale = np.abs(eng.b).max() if eng.m else 0.0
        if residual > 1e3 * _TOL_FEAS * (1.0 + b_scale):
            return SimplexResult("numerical", None, float("nan"), eng.iterations,
                                 f"final residual {residual:.3e}")
        return SimplexResult("optimal", x, float(eng.c @ x), eng.iterations)
    if status == "unbounded":
        return SimplexResult("unbounded", None, float("-inf"), eng.iterations)
    return SimplexResult(status, None, float("nan"), eng.iterations)
