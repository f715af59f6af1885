"""Decoding pipelines and Monte Carlo estimation of logical error rates.

Six decoder pipelines share two expensive front ends: the LP relaxation
("lp-round", "lp-osd0", "lp-osdcs") and min-sum message passing ("bp",
"bp-osd0", "bp-osdcs").  ``_decode_all`` is the one path from syndrome to
correction: it solves each front end once and fans the result out to the
pipelines' second stages, so joint runs cost one solve per family, not one
per decoder.  The one-shot decoders ``decode_syndrome``, ``lp_osd_decode``,
``lp_round_decode`` and ``bp_osd_decode`` are wrappers over it that raise
solver errors, where a Monte Carlo run counts them as faults; without an
``rng`` they repeat (see ``order_qubits``).  Random streams are keyed by
(seed, point index, trial index) plus a fixed per-decoder tag, which makes
every decoder's outcome independent of which other decoders share the run
and of the worker count; a decoder's generator is built only when its OSD
stage breaks ties at random.  A trial scores each distinct correction once,
with the one success rule (``_score``) that ``is_success`` and
``exhaustive_sweep`` also use.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bp import DEFAULT_CHANNEL_P, BpConfig, min_sum_bp
from .codes import CssCode, sample_random_hgp
from .errors import EnumerationTooLarge, InvalidParameter, LposdError
from .gf2 import BinaryMatrix, as_bit_vector, as_weight_vector, kernel_basis, vector_to_bits
from .lp import DEFAULT_SOLVER, SOLVERS, _syndrome_lp, is_integral, round_independent, solve_lp
from .osd import DEFAULT_LAM, OsdConfig, osd_postprocess

__all__ = [
    "DECODER_NAMES",
    "DecoderSpec",
    "SimConfig",
    "PointResult",
    "EnsembleResult",
    "SweepRow",
    "DecodeResult",
    "sample_error",
    "is_success",
    "decode_syndrome",
    "lp_osd_decode",
    "lp_round_decode",
    "bp_osd_decode",
    "run_point",
    "run_ensemble",
    "exhaustive_sweep",
    "wilson_interval",
    "write_results",
    "read_results",
]

logger = logging.getLogger(__name__)

DECODER_NAMES = ("lp-round", "lp-osd0", "lp-osdcs", "bp", "bp-osd0", "bp-osdcs")
_DECODER_TAG = {name: idx for idx, name in enumerate(DECODER_NAMES)}

_WILSON_Z = 1.959963984540054  # two-sided 95%
_SWEEP_GUARD = 10_000_000
_BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class DecoderSpec:
    """Names a decoding pipeline and configures its stages.

    ``tie_break=None`` picks the pipeline default: BFS distance to the
    nearest flipped check after an LP front end, a seeded shuffle after
    message passing.  ``bp_channel_p=None`` uses the simulated physical
    error rate as the channel prior; ``bp_iteration_cap=None`` runs up to
    the block length.  ``label`` distinguishes two configurations of the
    same pipeline within one run (defaults to the pipeline name).  A setting
    the pipeline cannot run with raises InvalidParameter here: an unknown
    solver, a lam or tie-break that ``OsdConfig`` rejects on any pipeline,
    a BP iteration cap or channel prior that ``BpConfig`` rejects, a BP
    setting on an LP pipeline, or a solver other than ``DEFAULT_SOLVER`` on
    a BP pipeline.  A BP pipeline records its solver as None.
    """

    name: str
    lam: int = DEFAULT_LAM
    tie_break: str | None = None
    solver: str = DEFAULT_SOLVER
    bp_iteration_cap: int | None = None
    bp_channel_p: float | None = None
    label: str | None = None

    def __post_init__(self):
        if self.name not in DECODER_NAMES:
            raise InvalidParameter(
                f"unknown decoder {self.name!r}; expected one of {DECODER_NAMES}")
        # OsdConfig rejects a bad lam or tie-break
        OsdConfig(lam=self.lam, tie_break=self.resolved_tie_break())
        if self.solver not in SOLVERS:
            raise InvalidParameter(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if self.uses_lp:
            if self.bp_iteration_cap is not None or self.bp_channel_p is not None:
                raise InvalidParameter(f"{self.name} runs no BP; it takes no BP settings")
        elif self.solver != DEFAULT_SOLVER:
            raise InvalidParameter(f"{self.name} runs no LP; it takes no solver")
        else:  # BpConfig rejects a bad iteration cap or channel prior
            BpConfig(max_iterations=self.bp_iteration_cap)
            if self.bp_channel_p is not None:
                BpConfig(channel_p=self.bp_channel_p)

    @property
    def tag(self) -> int:
        return _DECODER_TAG[self.name]

    @property
    def key(self) -> str:
        return self.label if self.label is not None else self.name

    @property
    def uses_lp(self) -> bool:
        return self.name.startswith("lp")

    def resolved_tie_break(self) -> str:
        if self.tie_break is not None:
            return self.tie_break
        return "distance" if self.uses_lp else "random"

    def osd_config(self) -> OsdConfig | None:
        if self.name.endswith("osd0"):
            order = "osd0"
        elif self.name.endswith("osdcs"):
            order = "osd_cs"
        else:
            return None
        return OsdConfig(order=order, lam=self.lam,
                         tie_break=self.resolved_tie_break())

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "label": self.key,
            "lam": self.lam,
            "tie_break": self.resolved_tie_break(),
            "solver": self.solver if self.uses_lp else None,
            "bp_iteration_cap": self.bp_iteration_cap,
            "bp_channel_p": self.bp_channel_p,
        }


def as_decoder(spec) -> DecoderSpec:
    if isinstance(spec, DecoderSpec):
        return spec
    if isinstance(spec, str):
        return DecoderSpec(name=spec)
    raise InvalidParameter(f"cannot interpret {spec!r} as a decoder")


@dataclass(frozen=True)
class SimConfig:
    """One simulation request: a code source, decoders, and sweep points."""

    code: str
    decoders: tuple[DecoderSpec, ...]
    ps: tuple[float, ...]
    trials: int
    seed: int = 0
    workers: int = 1
    n_codes: int = 1
    trials_per_code: int = 10

    def __post_init__(self):
        if not self.ps:
            raise InvalidParameter("no physical error rates given")
        _check_ensemble_sizes(self.n_codes, self.trials_per_code)
        for p in self.ps:  # rejects a bad p, trials or workers as a run would
            _point_specs(self.decoders, p, self.trials, self.workers)

    def to_record(self) -> dict:
        return {
            "code": self.code,
            "decoders": [d.to_record() for d in self.decoders],
            "ps": list(self.ps),
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "n_codes": self.n_codes,
            "trials_per_code": self.trials_per_code,
        }


_POINT_RECORD_KEYS = (
    "code", "decoder", "pipeline", "p", "trials", "failures", "p_l", "ci_low",
    "ci_high", "wrong_syndrome", "p_ws", "ws_ratio", "fractional", "solver_faults",
    "lp_iterations", "stage_counts", "mean_decode_seconds", "seed", "point_index")

_ENSEMBLE_RECORD_KEYS = (
    "decoder", "pipeline", "p", "n_codes", "trials", "failures", "p_l", "ci_low",
    "ci_high", "per_code_failures", "trials_per_code", "seed")


@dataclass
class PointResult:
    """Counts of one (code, decoder, p) sweep point; the rates, the Wilson
    interval and the mean decode time are derived from them."""

    code_name: str
    decoder: str
    pipeline: str
    p: float
    seed: int
    point_index: int
    trials: int = 0
    failures: int = 0
    wrong_syndrome: int = 0
    fractional: int = 0
    solver_faults: int = 0
    lp_iterations: int = 0  # simplex iterations summed over the LP solves used
    stage_counts: dict[str, int] = field(default_factory=dict)
    decode_seconds: float = 0.0  # summed over the trials

    @property
    def p_l(self) -> float:
        return self.failures / self.trials

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.failures, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.failures, self.trials)[1]

    @property
    def p_ws(self) -> float:
        return self.wrong_syndrome / self.trials

    @property
    def ws_ratio(self) -> float | None:
        """p_ws / p_L, or None when no failures occurred."""
        if self.failures == 0:
            return None
        return self.wrong_syndrome / self.failures

    @property
    def mean_decode_seconds(self) -> float:
        return self.decode_seconds / self.trials

    def merge(self, other: "PointResult") -> None:
        """Add the counts of another run of the same point."""
        self.trials += other.trials
        self.failures += other.failures
        self.wrong_syndrome += other.wrong_syndrome
        self.fractional += other.fractional
        self.solver_faults += other.solver_faults
        self.lp_iterations += other.lp_iterations
        for stage, count in other.stage_counts.items():
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + count
        self.decode_seconds += other.decode_seconds

    def to_record(self) -> dict:
        ci_low, ci_high = wilson_interval(self.failures, self.trials)
        own = {"code": self.code_name, "ci_low": ci_low, "ci_high": ci_high,
               "stage_counts": dict(sorted(self.stage_counts.items()))}
        return {key: own[key] if key in own else getattr(self, key)
                for key in _POINT_RECORD_KEYS}


@dataclass(frozen=True)
class EnsembleResult:
    """Per-code failure counts over an ensemble of random codes at one
    (decoder, p); the pooled rate and its bootstrap interval are derived."""

    decoder: str
    pipeline: str
    p: float
    per_code_failures: tuple[int, ...]
    trials_per_code: int
    seed: int

    @property
    def n_codes(self) -> int:
        return len(self.per_code_failures)

    @property
    def trials(self) -> int:
        return self.n_codes * self.trials_per_code

    @property
    def failures(self) -> int:
        return sum(self.per_code_failures)

    @property
    def p_l(self) -> float:
        return self.failures / self.trials

    @cached_property
    def _interval(self) -> tuple[float, float]:
        return _bootstrap_interval(self.per_code_failures, self.trials_per_code, self.seed)

    @property
    def ci_low(self) -> float:
        return self._interval[0]

    @property
    def ci_high(self) -> float:
        return self._interval[1]

    def to_record(self) -> dict:
        record = {key: getattr(self, key) for key in _ENSEMBLE_RECORD_KEYS}
        record["per_code_failures"] = list(self.per_code_failures)
        return record


@dataclass
class SweepRow:
    weight: int
    n_errors: int
    n_failures: int


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise InvalidParameter("failures must lie in [0, trials]")
    z = _WILSON_Z
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if failures == 0 else max(0.0, center - half)
    high = 1.0 if failures == trials else min(1.0, center + half)
    return low, high


def sample_error(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Independent bit flips, each with probability p."""
    if not 0.0 < p < 1.0:
        raise InvalidParameter(f"error probability {p} outside (0, 1)")
    return (rng.random(n) < p).view(np.uint8)


def is_success(code: CssCode, error, correction) -> bool:
    """True when the residual error acts trivially, i.e. is a Z stabilizer."""
    e = as_bit_vector(error, code.n, "error")
    e_hat = as_bit_vector(correction, code.n, "correction")
    return not _score(code, e ^ e_hat)[0]


def _success_columns(code: CssCode) -> tuple[tuple[int, ...], int]:
    """Column q of [H_X; K] packed into an int, H_X's rows in the low bits,
    with K's rows a basis of ker H_Z; and the mask of H_X's bits.  Built once
    per code.  A residual r is a Z stabilizer exactly when K r = 0, since the
    row space of H_Z is the orthogonal complement of its kernel."""
    if code._success_columns is None:
        kernel = [vector_to_bits(v, code.n) for v in kernel_basis(code.hz)]
        stacked = BinaryMatrix(code.hx.rows + tuple(kernel), code.n)
        code._success_columns = stacked.transpose().rows, (1 << code.hx.n_rows) - 1
    return code._success_columns


def _score(code: CssCode, residual: np.ndarray) -> tuple[bool, bool]:
    """(failed, wrong syndrome) of a residual error, from one GF(2) product
    with ``_success_columns``: K r sits above the syndrome bits H_X r, so the
    residual fails exactly when the product exceeds their mask."""
    columns, syndrome_bits = _success_columns(code)
    product = 0
    for q in residual.nonzero()[0].tolist():
        product ^= columns[q]
    return product > syndrome_bits, product & syndrome_bits != 0


def _error_rng(seed: int, point_index: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(point_index, trial))
    return np.random.Generator(np.random.PCG64(ss))


def _decoder_rng(seed: int, point_index: int, trial: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(point_index, trial, tag))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class DecodeResult:
    """One pipeline's answer to one syndrome.

    ``diagnostics`` carries the front end's numbers: ``objective``,
    ``lp_iterations``, ``solver`` and ``fractional`` after the LP,
    ``bp_converged`` and ``bp_iterations`` after message passing, and the
    ``error`` of a failed solve.  ``seconds`` is the wall time of the front
    end plus the pipeline's own second stage.
    """

    correction: np.ndarray
    stage: str
    diagnostics: dict = field(default_factory=dict)
    seconds: float = 0.0


def _decode_all(code: CssCode, specs: Sequence[DecoderSpec], s: np.ndarray,
                p: float, rng_for: Callable[[DecoderSpec], np.random.Generator],
                weights=None) -> dict[str, DecodeResult]:
    """Run every pipeline on one syndrome, sharing front-end solves.

    This is the one path from syndrome to correction.  Each front end
    either settles the correction (integral LP optimum, converged BP,
    solver fault) or leaves it to the pipeline's second stage: rounding,
    a BP stall, or OSD.  ``rng_for(spec)`` builds a pipeline's generator;
    it is called only when an OSD stage with the random tie-break runs.
    ``weights`` are per-qubit costs for the LP objective and the
    combination sweep.  ``s`` is a uint8 0/1 syndrome and ``weights`` a
    float vector of length n or None, which the callers have built or
    checked; nothing here checks them again.  A front end's wall time is
    charged to every pipeline that consumed it, so per-decoder times match
    what a standalone run would measure.
    """
    out: dict[str, DecodeResult] = {}
    zeros = np.zeros(code.n, dtype=np.uint8)
    if not s.any():
        for spec in specs:
            if spec.uses_lp:
                out[spec.key] = DecodeResult(zeros, "integral-lp", {
                    "objective": 0.0, "fractional": False, "lp_iterations": 0})
            else:
                out[spec.key] = DecodeResult(zeros, "bp-converged", {
                    "bp_converged": True, "bp_iterations": 0})
        return out

    # front-end key -> ((correction, soft, settled stage, diagnostics), seconds)
    fronts: dict[object, tuple[tuple, float]] = {}
    for spec in specs:
        if spec.uses_lp:
            key = spec.solver
        else:
            channel_p = spec.bp_channel_p if spec.bp_channel_p is not None else p
            key = (channel_p, spec.bp_iteration_cap)
        if key not in fronts:
            start = time.perf_counter()
            if not spec.uses_lp:
                res = min_sum_bp(code, s, BpConfig(channel_p=channel_p,
                                                   max_iterations=spec.bp_iteration_cap))
                front = (res.hard, res.soft, "bp-converged" if res.converged else None,
                         {"bp_converged": res.converged, "bp_iterations": res.iterations})
            else:
                model = _syndrome_lp(code, s, weights)
                try:
                    sol = solve_lp(model, solver=spec.solver)
                except LposdError as exc:
                    front = (zeros, None, "solver-fault",
                             {"fractional": False, "lp_iterations": 0, "error": exc})
                else:
                    x = sol.x()
                    integral = is_integral(x)
                    front = (round_independent(x), x, "integral-lp" if integral else None,
                             {"objective": sol.objective, "lp_iterations": sol.iterations,
                              "solver": sol.solver, "fractional": not integral})
            fronts[key] = front, time.perf_counter() - start
        (correction, soft, stage, diag), front_secs = fronts[key]
        start = time.perf_counter()
        if stage is None:
            cfg = spec.osd_config()
            if cfg is None:
                stage = "rounded-lp" if spec.uses_lp else "bp-stalled"
            else:
                rng = rng_for(spec) if cfg.tie_break == "random" else None
                correction, stage = osd_postprocess(code, s, soft, cfg, rng=rng,
                                                    weights=weights)
        out[spec.key] = DecodeResult(correction, stage, dict(diag),
                                     front_secs + (time.perf_counter() - start))
    return out


def _decode_one(code: CssCode, spec: DecoderSpec, s,
                rng: np.random.Generator | None = None, weights=None,
                p: float = DEFAULT_CHANNEL_P) -> DecodeResult:
    """One pipeline on one syndrome; a solver error is raised, not counted."""
    # both arguments are checked before the zero-syndrome short-cut
    s_arr = as_bit_vector(s, code.hx.n_rows, "syndrome")
    w_arr = None if weights is None else as_weight_vector(weights, code.n)
    result = _decode_all(code, [spec], s_arr, p, lambda _: rng, w_arr)[spec.key]
    if "error" in result.diagnostics:
        raise result.diagnostics["error"]
    return result


def decode_syndrome(code: CssCode, decoder, s, p: float = DEFAULT_CHANNEL_P,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """One-shot decode of a syndrome with a named pipeline; a solver error
    is raised."""
    return _decode_one(code, as_decoder(decoder), s, rng, p=p).correction


def lp_osd_decode(code: CssCode, s, cfg: OsdConfig | None = None, *,
                  solver: str = DEFAULT_SOLVER, weights=None,
                  rng: np.random.Generator | None = None) -> DecodeResult:
    """Full decode: solve the syndrome LP, return integral solutions
    directly, and hand fractional ones to OSD.

    An integral LP optimum is a certified minimum-weight correction (with
    unit objective weights).  The all-zero syndrome short-circuits without
    touching the solver.  ``weights`` are per-qubit costs used by the LP
    objective and by the combination sweep's ranking.
    """
    cfg = cfg or OsdConfig()
    spec = DecoderSpec("lp-osd0" if cfg.order == "osd0" else "lp-osdcs",
                       lam=cfg.lam, tie_break=cfg.tie_break, solver=solver)
    return _decode_one(code, spec, s, rng, weights)


def lp_round_decode(code: CssCode, s, *, solver: str = DEFAULT_SOLVER,
                    weights=None) -> DecodeResult:
    """LP followed by independent per-bit rounding (no syndrome guarantee)."""
    return _decode_one(code, DecoderSpec("lp-round", solver=solver), s, weights=weights)


def bp_osd_decode(code: CssCode, s, bp_cfg: BpConfig | None = None,
                  osd_cfg: OsdConfig | None = None, *,
                  rng: np.random.Generator | None = None) -> DecodeResult:
    """BP first; on non-convergence, OSD over the BP reliabilities.

    The OSD tie-break defaults to random here (the distance heuristic is
    tuned to LP soft output).
    """
    bp_cfg = bp_cfg or BpConfig()
    osd_cfg = osd_cfg or OsdConfig(tie_break="random")
    spec = DecoderSpec("bp-osd0" if osd_cfg.order == "osd0" else "bp-osdcs",
                       lam=osd_cfg.lam, tie_break=osd_cfg.tie_break,
                       bp_iteration_cap=bp_cfg.max_iterations,
                       bp_channel_p=bp_cfg.channel_p)
    return _decode_one(code, spec, s, rng)


def _run_trials(code: CssCode, specs: Sequence[DecoderSpec], p: float,
                seed: int, point_index: int, start: int, stop: int,
                ) -> list[PointResult]:
    code_name = code.name or f"css-n{code.n}"
    results = [PointResult(code_name, spec.key, spec.name, p, seed, point_index)
               for spec in specs]
    for trial in range(start, stop):
        error = sample_error(code.n, p, _error_rng(seed, point_index, trial))
        outcomes = _decode_all(
            code, specs, code._syndrome(error), p,
            lambda spec: _decoder_rng(seed, point_index, trial, spec.tag))
        scores: dict[bytes, tuple[bool, bool]] = {}  # one product per distinct correction
        for res in results:
            outcome = outcomes[res.decoder]
            res.trials += 1
            res.decode_seconds += outcome.seconds
            res.lp_iterations += outcome.diagnostics.get("lp_iterations", 0)
            res.stage_counts[outcome.stage] = res.stage_counts.get(outcome.stage, 0) + 1
            if outcome.diagnostics.get("fractional"):
                res.fractional += 1
            if outcome.stage == "solver-fault":
                res.solver_faults += 1
            key = outcome.correction.tobytes()
            if key not in scores:
                scores[key] = _score(code, error ^ outcome.correction)
            failed, wrong_syndrome = scores[key]
            res.failures += failed
            res.wrong_syndrome += wrong_syndrome
    return results


def _worker_entry(args) -> list[PointResult]:
    return _run_trials(*args)


def _map_trials(tasks: Iterable[tuple], n_tasks: int, workers: int) -> Iterable[list[PointResult]]:
    """``_run_trials`` on each of ``n_tasks`` argument tuples: on one pool of
    up to ``workers`` processes, else lazily in this process."""
    if workers > 1 and n_tasks > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, n_tasks)) as pool:
            return pool.map(_worker_entry, tasks)
    return map(_worker_entry, tasks)


def _chunk_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    chunk = max(1, -(-trials // workers))
    return [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


def _point_specs(decoder, p: float, trials: int, workers: int) -> tuple[bool, list[DecoderSpec]]:
    """Whether ``decoder`` names one pipeline, and the checked specs."""
    single = isinstance(decoder, (str, DecoderSpec))
    specs = [as_decoder(decoder)] if single else [as_decoder(d) for d in decoder]
    if len({spec.key for spec in specs}) != len(specs):
        raise InvalidParameter("duplicate decoder labels in one run")
    if not 0.0 < p < 0.5:
        raise InvalidParameter(f"physical error rate {p} outside (0, 1/2)")
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    if workers < 1:
        raise InvalidParameter("workers must be >= 1")
    return single, specs


def _check_ensemble_sizes(n_codes: int, trials_per_code: int) -> None:
    """The size rule of ``run_ensemble``, which ``SimConfig`` checks too."""
    for name, size in (("n_codes", n_codes), ("trials_per_code", trials_per_code)):
        if size < 1:
            raise InvalidParameter(f"{name} must be >= 1")


def _warn_faults(results: Iterable[PointResult], p: float) -> None:
    for res in results:
        if res.solver_faults:
            logger.warning("%s: %d solver faults at p=%g counted as failures",
                           res.decoder, res.solver_faults, p)


def run_point(code: CssCode, decoder, p: float, trials: int, seed: int = 0, *,
              point_index: int = 0, workers: int = 1):
    """Estimate failure statistics for one physical error rate.

    ``decoder`` may be a single name/spec or a sequence; a sequence shares
    the LP and message-passing front ends across pipelines and returns one
    result per entry.  Results are independent of ``workers``.
    """
    single, specs = _point_specs(decoder, p, trials, workers)
    tasks = [(code, specs, p, seed, point_index, lo, hi)
             for lo, hi in _chunk_ranges(trials, workers)]
    results, *partials = _map_trials(tasks, len(tasks), workers)
    for part in partials:
        for res, other in zip(results, part):
            res.merge(other)
    _warn_faults(results, p)
    return results[0] if single else results


def _bootstrap_interval(per_code_failures: Sequence[int], trials_per_code: int,
                        seed: int) -> tuple[float, float]:
    """Percentile bootstrap over codes of the pooled failure rate."""
    counts = np.asarray(per_code_failures, dtype=np.int64)
    n_codes = counts.size
    if n_codes == 1:
        return wilson_interval(int(counts[0]), trials_per_code)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(987654321,))))
    picks = rng.integers(0, n_codes, size=(_BOOTSTRAP_RESAMPLES, n_codes))
    rates = counts[picks].sum(axis=1) / (n_codes * trials_per_code)
    return float(np.percentile(rates, 2.5)), float(np.percentile(rates, 97.5))


def run_ensemble(s: int, decoder, p: float, n_codes: int,
                 trials_per_code: int = 10, seed: int = 0, *,
                 workers: int = 1, code_factory=None):
    """Pool failures over an ensemble of random product codes.

    ``s`` scales the random family (block length grows with s^2).  Codes are
    drawn from seeds derived from ``seed`` in this process; each code decodes
    its own error batch, as one task on a single pool when ``workers`` > 1.
    The confidence interval is a bootstrap over codes.
    ``decoder`` may again be one spec or a sequence.
    """
    _check_ensemble_sizes(n_codes, trials_per_code)
    single, specs = _point_specs(decoder, p, trials_per_code, workers)
    factory = code_factory if code_factory is not None else sample_random_hgp

    def tasks():
        for idx in range(n_codes):
            code_seed = int(np.random.SeedSequence(seed, spawn_key=(idx,)).generate_state(1)[0])
            yield factory(s, code_seed), specs, p, seed, idx, 0, trials_per_code

    per_code: dict[str, list[int]] = {spec.key: [] for spec in specs}
    for code_results in _map_trials(tasks(), n_codes, workers):
        _warn_faults(code_results, p)
        for res in code_results:
            per_code[res.decoder].append(res.failures)

    results = [EnsembleResult(spec.key, spec.name, p, tuple(per_code[spec.key]),
                              trials_per_code, seed) for spec in specs]
    return results[0] if single else results


def exhaustive_sweep(code: CssCode, decoder, max_weight: int, *,
                     seed: int = 0) -> list[SweepRow]:
    """Decode every error of weight up to ``max_weight`` and count failures.

    The enumeration is guarded at ten million patterns.
    """
    if max_weight < 0:
        raise InvalidParameter("max_weight must be >= 0")
    total = sum(math.comb(code.n, w) for w in range(max_weight + 1))
    if total > _SWEEP_GUARD:
        raise EnumerationTooLarge(
            f"{total} error patterns exceed the guard of {_SWEEP_GUARD}")
    spec = as_decoder(decoder)
    rows = []
    for weight in range(max_weight + 1):
        n_errors = 0
        n_failures = 0
        for idx, support in enumerate(itertools.combinations(range(code.n), weight)):
            error = np.zeros(code.n, dtype=np.uint8)
            error[list(support)] = 1
            s = code.syndrome(error)
            outcome = _decode_all(
                code, [spec], s, DEFAULT_CHANNEL_P,
                lambda _: _decoder_rng(seed, weight, idx, spec.tag))[spec.key]
            n_errors += 1
            n_failures += _score(code, error ^ outcome.correction)[0]
        rows.append(SweepRow(weight=weight, n_errors=n_errors,
                             n_failures=n_failures))
    return rows


def write_results(path, records: Iterable[Mapping]) -> None:
    """One JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_results(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
