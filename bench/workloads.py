"""The four benchmark workloads and the loops that drive lposd through them.

Monte Carlo workloads (``mc-*``) call ``sim.run_point`` one trial at a time
with ``workers=1``; trial k of a run is point index k, trial 0, so its
error and decoder streams are keyed ``(seed, k, 0[, tag])``.  The traced
run instead replays the same trials through a copy of ``run_point``'s trial
loop built from the public functions of ``sim``, ``codes``, ``lp``, ``osd``
and ``bp``, with a span around each call, and must reproduce the untraced
tallies exactly.

``certify-bb72`` searches bb72 for certified uncorrectable patterns and
decodes every one through the same shared-LP fan-out.  Every syndrome is
adversarial, so the LP optima sit on degenerate faces and OSD runs on every
decode.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from lposd import (BpConfig, DecoderSpec, IterationLimit, build_syndrome_lp,
                   is_integral, is_success, min_sum_bp, named_bb_code,
                   order_qubits, rotated_surface_code, round_independent,
                   run_point, sample_error, search_patterns, solve_lp,
                   verify_certificate)
from lposd.osd import osd0, osd_cs

from spans import NullTracer, tail_stat

SPAN_NAMES = (
    "sim.trial", "certify.pattern", "sim.sample_error", "codes.syndrome",
    "lp.build_syndrome_lp", "lp.solve_lp", "lp.is_integral",
    "osd.order_qubits", "osd.osd0", "osd.osd_cs", "bp.min_sum_bp",
    "sim.is_success", "patterns.search_patterns", "patterns.verify_certificate",
)

# Syndromes drawn at this rate are heavy enough that the warm-up decode
# reaches every stage (LP or BP front end, then OSD) on the first call.
_WARMUP_P = 0.45


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" or "certify"
    code: str
    p: float
    pipelines: tuple[str, ...]
    headline: str
    solver: str | None  # None leaves DecoderSpec.solver at its default
    osdcs_not_worse_than_round: bool = False

    def build_code(self):
        family, _, key = self.code.partition(":")
        if family == "surface":
            return rotated_surface_code(int(key))
        return named_bb_code(key)

    def specs(self) -> list[DecoderSpec]:
        if self.solver is None:
            return [DecoderSpec(name) for name in self.pipelines]
        return [DecoderSpec(name, solver=self.solver) for name in self.pipelines]


WORKLOADS = {w.name: w for w in (
    Workload("mc-bb72-lp", "mc", "bb:bb72", 0.03,
             ("lp-round", "lp-osd0", "lp-osdcs"), "lp-osdcs", "scipy",
             osdcs_not_worse_than_round=True),
    Workload("mc-surface7-default", "mc", "surface:7", 0.03,
             ("lp-round", "lp-osdcs"), "lp-osdcs", None),
    Workload("mc-bb144-bp", "mc", "bb:bb144", 0.06,
             ("bp", "bp-osd0", "bp-osdcs"), "bp-osdcs", None),
    Workload("certify-bb72", "certify", "bb:bb72", 0.03,
             ("lp-round", "lp-osd0", "lp-osdcs"), "lp-osdcs", "scipy"),
)}


@dataclass
class Size:
    """How much one run does: a time window, the number of fresh set-up
    processes, and the pattern-search limit of ``certify-bb72``."""

    seconds: float
    setup_runs: int = 3
    search_limit: int = 200


# ---------------------------------------------------------------------------
# tallies and the correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Per-pipeline counts, the same fields ``PointResult`` reports."""

    trials: int = 0
    failures: int = 0
    wrong_syndrome: int = 0
    fractional: int = 0
    solver_faults: int = 0
    stages: Counter = field(default_factory=Counter)

    def add_point(self, res) -> None:
        self.trials += res.trials
        self.failures += res.failures
        self.wrong_syndrome += res.wrong_syndrome
        self.fractional += res.fractional
        self.solver_faults += res.solver_faults
        self.stages.update(res.stage_counts)

    def add(self, outcome: "Outcome", success: bool, wrong: bool) -> None:
        self.trials += 1
        self.failures += not success
        self.wrong_syndrome += wrong
        self.fractional += outcome.fractional
        self.solver_faults += outcome.faulted
        self.stages[outcome.stage] += 1

    def as_dict(self) -> dict:
        return {"trials": self.trials, "failures": self.failures,
                "wrong_syndrome": self.wrong_syndrome,
                "fractional": self.fractional,
                "solver_faults": self.solver_faults,
                "stages": dict(sorted(self.stages.items()))}


def gate_violations(w: Workload, tallies: dict[str, Tally]) -> list[str]:
    """Checks on the tallies of a finished run; empty means it passed."""
    out = []
    for key, t in tallies.items():
        # a solver fault returns the zero correction, whose syndrome is wrong
        if "osd" in key and t.wrong_syndrome != t.solver_faults:
            out.append(f"{key}: {t.wrong_syndrome - t.solver_faults} OSD-stage "
                       f"corrections do not reproduce their syndrome")
    if w.osdcs_not_worse_than_round:
        cs, rd = tallies["lp-osdcs"].failures, tallies["lp-round"].failures
        if cs > rd:
            out.append(f"lp-osdcs failed {cs} times, more than lp-round's {rd}")
    if w.kind == "certify":
        rd = tallies["lp-round"]
        if rd.failures != rd.trials:
            out.append(f"independent rounding corrected {rd.trials - rd.failures}"
                       f" of {rd.trials} certified patterns")
    return out


# ---------------------------------------------------------------------------
# the shared fan-out, rebuilt from public functions
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    correction: np.ndarray
    stage: str
    fractional: bool
    faulted: bool


@dataclass
class Observations:
    """Counters taken at the layer boundaries of the fan-out."""

    trials: int = 0
    zero_syndromes: int = 0
    lp_iterations: list = field(default_factory=list)
    lp_objectives: list = field(default_factory=list)
    lp_fractional: int = 0
    lp_solver: str = ""
    bp_iterations: list = field(default_factory=list)
    bp_converged: int = 0
    osd_calls: int = 0
    osd_repaired: int = 0
    searches: int = 0
    found: int = 0

    def counters(self) -> dict[str, float]:
        lp_tail = tail_stat(self.lp_iterations)[0]
        bp_tail = tail_stat(self.bp_iterations)[0]
        solves, bps = len(self.lp_iterations), len(self.bp_iterations)
        trials = max(self.trials, 1)
        return {
            "lp.iterations_mean": float(np.mean(self.lp_iterations)) if solves else 0.0,
            "lp.iterations_tail": lp_tail,
            "lp.fractional_frac": self.lp_fractional / solves if solves else 0.0,
            "osd.calls_per_trial": self.osd_calls / trials,
            "osd.repair_frac": self.osd_repaired / self.osd_calls if self.osd_calls else 0.0,
            "bp.iterations_mean": float(np.mean(self.bp_iterations)) if bps else 0.0,
            "bp.iterations_tail": bp_tail,
            "bp.converged_frac": self.bp_converged / bps if bps else 0.0,
            "sim.zero_syndrome_frac": self.zero_syndromes / trials,
            "patterns.found_per_search": self.found / self.searches if self.searches else 0.0,
        }


def _osd_stage(tr, code, s, soft, cfg, rng):
    """``osd.osd_postprocess`` split into its three public calls."""
    ordering = tr.call("osd.order_qubits", order_qubits, soft, code, s, cfg, rng=rng)
    if cfg.order == "osd0":
        return tr.call("osd.osd0", osd0, code, s, ordering), "osd-0"
    return tr.call("osd.osd_cs", osd_cs, code, s, ordering, cfg.lam), "osd-cs"


def decode_all(tr, code, specs, s, p, rng_for, obs: Observations) -> dict[str, Outcome]:
    """Every pipeline on one syndrome, one front-end solve per family, with
    the stage logic of ``sim.run_point``."""
    zeros = np.zeros(code.n, dtype=np.uint8)
    if not s.any():
        obs.zero_syndromes += 1
        return {spec.key: Outcome(zeros, "integral-lp" if spec.uses_lp else "bp-converged",
                                  False, False) for spec in specs}
    out: dict[str, Outcome] = {}
    lp_cache: dict = {}
    bp_cache: dict = {}
    for spec in specs:
        if spec.uses_lp:
            if spec.solver not in lp_cache:
                try:
                    model = tr.call("lp.build_syndrome_lp", build_syndrome_lp, code, s)
                    sol = tr.call("lp.solve_lp", solve_lp, model, solver=spec.solver)
                except IterationLimit:
                    sol = None
                else:
                    obs.lp_iterations.append(sol.iterations)
                    obs.lp_objectives.append(sol.objective)
                    obs.lp_solver = sol.solver
                lp_cache[spec.solver] = sol
            sol = lp_cache[spec.solver]
            if sol is None:
                outcome = Outcome(zeros, "solver-fault", False, True)
            elif tr.call("lp.is_integral", is_integral, sol):
                outcome = Outcome(round_independent(sol.x()), "integral-lp", False, False)
            elif spec.name == "lp-round":
                outcome = Outcome(round_independent(sol.x()), "rounded-lp", True, False)
            else:
                corr, stage = _osd_stage(tr, code, s, sol.x(), spec.osd_config(),
                                         rng_for[spec.key])
                outcome = Outcome(corr, stage, True, False)
        else:
            channel_p = spec.bp_channel_p if spec.bp_channel_p is not None else p
            key = (channel_p, spec.bp_iteration_cap)
            if key not in bp_cache:
                res = tr.call("bp.min_sum_bp", min_sum_bp, code, s,
                              BpConfig(channel_p=channel_p,
                                       max_iterations=spec.bp_iteration_cap))
                obs.bp_iterations.append(res.iterations)
                obs.bp_converged += res.converged
                bp_cache[key] = res
            res = bp_cache[key]
            if res.converged:
                outcome = Outcome(res.hard, "bp-converged", False, False)
            elif spec.name == "bp":
                outcome = Outcome(res.hard, "bp-stalled", False, False)
            else:
                corr, stage = _osd_stage(tr, code, s, res.soft, spec.osd_config(),
                                         rng_for[spec.key])
                outcome = Outcome(corr, stage, False, False)
        out[spec.key] = outcome
    if any(o.fractional for o in out.values()):
        obs.lp_fractional += 1
    return out


def score(tr, code, error, s, outcomes, tallies, obs) -> None:
    """Success test per pipeline, as ``run_point`` does it."""
    for key, outcome in outcomes.items():
        success = tr.call("sim.is_success", is_success, code, error, outcome.correction)
        wrong = (not success and
                 bool((tr.call("codes.syndrome", code.syndrome, outcome.correction) != s).any()))
        tallies[key].add(outcome, success, wrong)
        if outcome.stage.startswith("osd"):
            obs.osd_calls += 1
            obs.osd_repaired += success


def _rng(seed, *key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def warm_up(code, specs, seed: int) -> None:
    """One decode of a heavy syndrome, so first-call costs land in set-up."""
    error = sample_error(code.n, _WARMUP_P, _rng(seed, 2**31))
    decode_all(NullTracer(), code, specs, code.syndrome(error), _WARMUP_P,
               {spec.key: _rng(seed, 2**31, spec.tag) for spec in specs},
               Observations())


# ---------------------------------------------------------------------------
# run loops
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What one pass over a workload produced."""

    tallies: dict[str, Tally]
    obs: Observations
    decode_ms: list = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    batches: int = 0  # certify: searches run


def _new_run(w: Workload) -> Run:
    return Run({name: Tally() for name in w.pipelines}, Observations())


def _exception(run: Run, where: str) -> None:
    run.failed += 1
    run.errors.append(f"{where}: {traceback.format_exc(limit=3)}")


class _Budget:
    """Loop guard: a time window, or an exact count when one is given."""

    def __init__(self, seconds, count):
        self.count = count
        self.end = time.perf_counter() + (seconds if seconds is not None else 0.0)

    def more(self, done: int) -> bool:
        if self.count is not None:
            return done < self.count
        return done == 0 or time.perf_counter() < self.end


def run_mc(w, code, specs, seed, seconds=None, trials=None, decode=run_point) -> Run:
    """Untraced: ``run_point`` per trial until ``seconds`` pass or ``trials``
    are done."""
    run = _new_run(w)
    start = time.perf_counter()
    budget = _Budget(seconds, trials)
    k = 0
    while budget.more(k):
        t0 = time.perf_counter()
        try:
            results = decode(code, specs, w.p, 1, seed, point_index=k, workers=1)
        except Exception:  # counted and reported: the run is failed, not aborted
            _exception(run, f"run_point trial {k}")
            results = []
        run.decode_ms.append(1e3 * (time.perf_counter() - t0))
        for res in results:
            run.tallies[res.decoder].add_point(res)
        run.failed += any(res.solver_faults for res in results)
        k += 1
    run.wall = time.perf_counter() - start
    run.attempted = k
    return run


def replay_mc(tr, w, code, specs, seed, seconds=None, trials=None) -> Run:
    """Traced: the ``run_point`` trial loop rebuilt from public functions."""
    run = _new_run(w)
    obs = run.obs
    start = time.perf_counter()
    budget = _Budget(seconds, trials)
    k = 0
    while budget.more(k):
        root = tr.open("sim.trial", k)
        try:
            error = tr.call("sim.sample_error", sample_error, code.n, w.p, _rng(seed, k, 0))
            s = tr.call("codes.syndrome", code.syndrome, error)
            rng_for = {spec.key: _rng(seed, k, 0, spec.tag) for spec in specs}
            outcomes = decode_all(tr, code, specs, s, w.p, rng_for, obs)
            score(tr, code, error, s, outcomes, run.tallies, obs)
            run.failed += any(o.faulted for o in outcomes.values())
        except Exception:
            _exception(run, f"trial {k}")
        tr.close(root)
        k += 1
    run.wall = time.perf_counter() - start
    run.attempted = obs.trials = k
    return run


def _search_seed(seed: int, batch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(batch,)).generate_state(1)[0])


def run_certify(tr, w, code, specs, seed, size: Size, seconds=None, batches=None) -> Run:
    """Search, verify and decode whole batches of certified patterns until
    ``seconds`` pass or ``batches`` searches are done."""
    run = _new_run(w)
    obs = run.obs
    start = time.perf_counter()
    budget = _Budget(seconds, batches)
    rng_for = {spec.key: None for spec in specs}  # the distance tie-break draws nothing
    while budget.more(run.batches):
        root = tr.open("patterns.search_patterns", f"search-{run.batches}")
        try:
            patterns = search_patterns(code, max_cycle_len=12, limit=size.search_limit,
                                       rng_seed=_search_seed(seed, run.batches))
        except Exception:
            _exception(run, f"search {run.batches}")
            patterns = []
        tr.close(root)
        obs.searches += 1
        obs.found += len(patterns)
        for pattern in patterns:
            idx = run.attempted
            run.attempted += 1
            root = tr.open("certify.pattern", idx)
            try:
                report = tr.call("patterns.verify_certificate", verify_certificate, code, pattern)
                if not report.ok:
                    run.errors.append(f"pattern {idx}: certificate rejected: {report.violations[:3]}")
                solved = len(obs.lp_objectives)
                t0 = time.perf_counter()
                outcomes = decode_all(tr, code, specs, pattern.syndrome, w.p, rng_for, obs)
                run.decode_ms.append(1e3 * (time.perf_counter() - t0))
                if (len(obs.lp_objectives) > solved and
                        obs.lp_objectives[-1] > float(pattern.claimed_objective) + 1e-9):
                    run.errors.append(f"pattern {idx}: LP objective {obs.lp_objectives[-1]!r}"
                                      f" above the claimed {pattern.claimed_objective}")
                score(tr, code, pattern.error, pattern.syndrome, outcomes, run.tallies, obs)
                run.failed += any(o.faulted for o in outcomes.values())
            except Exception:
                _exception(run, f"pattern {idx}")
            tr.close(root)
        run.batches += 1
    run.wall = time.perf_counter() - start
    obs.trials = run.attempted
    return run
