"""Benchmark harness for lposd.

Run one workload from the repository root:

    python3 bench/run.py --workload mc-bb72-lp --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  Every metric
is printed by name with its unit, the full record (provenance, tallies,
gate results) goes to ``bench/out/``, and the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check passed.

``--smoke`` runs every workload at a tiny size; ``--self-test`` does the
same, checks each result's schema against ``BENCHMARK.json`` and shows that
the correctness gate rejects a corrupted correction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_lposd() -> None:
    """Import lposd from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "lposd" / "__init__.py").is_file():
        raise HarnessError(f"no lposd sources under {src}")
    sys.path.insert(1, str(src))
    import lposd
    if Path(lposd.__file__).resolve().parent != (src / "lposd").resolve():
        raise HarnessError(f"lposd imported from {lposd.__file__}, not {src}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(w, specs, seed: int) -> dict:
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": w.name,
        "seed": seed,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "solvers": {spec.key: spec.solver if spec.uses_lp else "min-sum-bp"
                    for spec in specs},
    }


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Imports, building the code and one warm-up decode, in this process."""
    t0 = time.perf_counter()
    _import_lposd()
    from workloads import WORKLOADS, warm_up

    w = WORKLOADS[name]
    warm_up(w.build_code(), w.specs(), seed)
    return time.perf_counter() - t0


def _fresh_setup_seconds(name: str, seed: int) -> float:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{res.stderr[-2000:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _decode_times(run, record: dict) -> tuple[float, float]:
    """Median and tail of the untraced per-decode wall times; the tail's
    percentile and the sample count go into ``record``."""
    from spans import tail_stat

    tail, q, n = tail_stat(run.decode_ms)
    p50 = statistics.median(run.decode_ms)
    record["decode_ms"] = {"p50": p50, "tail": tail, "tail_percentile": q, "samples": n}
    return p50, tail


def run_workload(name: str, seed: int, size, trace: bool) -> dict:
    """Run one workload; returns the full record, ``result`` holding the
    four keys of the final output line."""
    from spans import NullTracer, Tracer, tail_stat
    from workloads import (SPAN_NAMES, WORKLOADS, gate_violations, replay_mc,
                           run_certify, run_mc, warm_up)

    w = WORKLOADS[name]
    t0 = time.perf_counter()
    code = w.build_code()
    specs = w.specs()
    warm_up(code, specs, seed)
    record = {"provenance": provenance(w, specs, seed),
              "setup_s_this_process": time.perf_counter() - t0}

    if not trace:
        setups = [_fresh_setup_seconds(name, seed) for _ in range(size.setup_runs)]
        if w.kind == "mc":
            run = run_mc(w, code, specs, seed, seconds=size.seconds)
        else:
            run = run_certify(NullTracer(), w, code, specs, seed, size, seconds=size.seconds)
        metrics = {
            "decodes_per_s": run.attempted / run.wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_s_samples=setups, wall_s=run.wall)
        _decode_times(run, record)
        violations = gate_violations(w, run.tallies) + run.errors
    else:
        tracer = Tracer()
        if w.kind == "mc":
            run = replay_mc(tracer, w, code, specs, seed, seconds=size.seconds / 2)
            plain = run_mc(w, code, specs, seed, trials=run.attempted)
        else:
            run = run_certify(tracer, w, code, specs, seed, size, seconds=size.seconds / 2)
            plain = run_certify(NullTracer(), w, code, specs, seed, size, batches=run.batches)
        mismatched = [key for key in w.pipelines
                      if run.tallies[key].as_dict() != plain.tallies[key].as_dict()]
        layers = tracer.layer_stats(SPAN_NAMES, run.wall)
        metrics = {f"{span}.{stat}": value for span, stats in layers.items()
                   for stat, value in stats.items() if stat != "ms_mean"}
        metrics.update(run.obs.counters())
        metrics["decode_ms_p50"], metrics["decode_ms_tail"] = _decode_times(plain, record)
        root = "sim.trial" if w.kind == "mc" else "certify.pattern"
        metrics["sim.self_ms_per_trial"] = (1e3 * layers[root]["share"] * run.wall
                                            / max(run.attempted, 1))
        metrics["trace.overhead_frac"] = run.wall / plain.wall - 1.0
        metrics["p_l"] = run.tallies[w.headline].failures / max(run.attempted, 1)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        record.update(layers=layers, untraced_wall_s=plain.wall, traced_wall_s=run.wall,
                      trace_valid=not mismatched, spans_file=str(spans_path.relative_to(ROOT)),
                      untraced_tallies={k: t.as_dict() for k, t in plain.tallies.items()},
                      lp_solver_reported=run.obs.lp_solver,
                      lp_iterations_tail_percentile=tail_stat(run.obs.lp_iterations)[1],
                      bp_iterations_tail_percentile=tail_stat(run.obs.bp_iterations)[1])
        violations = gate_violations(w, run.tallies) + run.errors + plain.errors
        if mismatched:
            violations.append(f"trace invalid: replica tallies differ from run_point on {mismatched}")

    record.update(
        tallies={k: t.as_dict() for k, t in run.tallies.items()},
        p_l={k: t.failures / max(t.trials, 1) for k, t in run.tallies.items()},
        violations=violations,
        result={"correct": not violations, "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: float(v) for k, v in metrics.items()}},
    )
    return record


def schema_errors(result: dict, spec: dict, trace: bool) -> list[str]:
    """Differences between a final output line and the ``BENCHMARK.json`` contract."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        errors.append(f"metric names differ: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, entry in got.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if name in wanted and entry.get("unit") != wanted[name]:
            errors.append(f"{name}: unit {entry.get('unit')!r} != {wanted[name]!r}")
    return errors


def final_line(record: dict, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = dict(record["result"])
    result["metrics"] = {k: {"value": v, "unit": units.get(k, "?")}
                         for k, v in result["metrics"].items()}
    return result


def report(record: dict, spec: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the final output line."""
    result = final_line(record, spec)
    better = {m["name"]: m.get("better", "") for m in spec["end_to_end"] + spec["per_layer"]}
    prov = record["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={int(trace)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, entry in result["metrics"].items():
        direction = f" ({better[name]} is better)" if better.get(name) else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{direction}")
    d = record["decode_ms"]
    print(f"# untraced decode wall time: p50 {d['p50']:.4g} ms, p{d['tail_percentile']} "
          f"{d['tail']:.4g} ms over {d['samples']} decodes")
    print(f"# fault_rate = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g} (solver faults and exceptions)")
    if "trace_valid" in record:
        print(f"# trace valid: {record['trace_valid']} (traced {record['traced_wall_s']:.3f} s, "
              f"untraced {record['untraced_wall_s']:.3f} s for the same decodes)")
    for key, value in sorted(record["p_l"].items()):
        print(f"# p_l[{key}] = {value:.6g} over {record['tallies'][key]['trials']} decodes")
    for line in record["violations"]:
        print(f"# CHECK FAILED: {line.splitlines()[0]}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    return result


def _write_record(record: dict, name: str, seed: int, trace: bool) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# smoke mode and self-test
# ---------------------------------------------------------------------------


def smoke(seed: int, spec: dict) -> list[str]:
    """Every workload at a tiny size, both modes; returns schema problems."""
    from workloads import WORKLOADS, Size

    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, Size(seconds=0.2, setup_runs=1, search_limit=3), trace)
            result = final_line(record, spec)
            errs = schema_errors(result, spec, trace) + [
                f"check failed: {v.splitlines()[0]}" for v in record["violations"]]
            status = "ok" if not errs else "; ".join(errs)
            print(f"smoke {name} trace={int(trace)}: attempted={result['attempted']} {status}")
            problems += [f"{name} trace={int(trace)}: {e}" for e in errs]
    return problems


def self_test(seed: int, spec: dict) -> list[str]:
    from spans import NullTracer
    from workloads import WORKLOADS, Size, gate_violations, run_certify, run_mc

    class CorruptingTracer(NullTracer):
        """Flips the first bit of every OSD-stage correction."""

        def call(self, name, fn, *args, **kwargs):
            out = fn(*args, **kwargs)
            if name in ("osd.osd0", "osd.osd_cs"):
                out = out.copy()
                out[0] ^= 1
            return out

    problems = smoke(seed, spec)
    w = WORKLOADS["certify-bb72"]
    code, specs, size = w.build_code(), w.specs(), Size(seconds=0.0, search_limit=3)
    clean = run_certify(NullTracer(), w, code, specs, seed, size, batches=1)
    bad = run_certify(CorruptingTracer(), w, code, specs, seed, size, batches=1)
    if gate_violations(w, clean.tallies) or clean.errors:
        problems.append("gate rejected a clean certify run")
    rejected = gate_violations(w, bad.tallies)
    if not any("do not reproduce their syndrome" in v for v in rejected):
        problems.append("gate accepted corrupted OSD corrections")
    if all(bad.tallies[k].as_dict() == clean.tallies[k].as_dict() for k in w.pipelines):
        problems.append("tally comparison missed the corrupted run")
    print(f"self-test: corrupted corrections rejected with: {rejected}")

    def raising(*args, **kwargs):
        raise RuntimeError("injected decode failure")

    wm = WORKLOADS["mc-surface7-default"]
    crashed = run_mc(wm, wm.build_code(), wm.specs(), seed, trials=2, decode=raising)
    if crashed.failed != 2 or len(crashed.errors) != 2:
        problems.append("an exception escaping run_point was not counted as failed")
    print(f"self-test: injected exceptions counted: failed={crashed.failed}/{crashed.attempted}")
    return problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at a tiny size")
    parser.add_argument("--self-test", action="store_true",
                        help="smoke, schema check and gate-rejection check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"

    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
            return 0
        _import_lposd()
        spec = _load_spec()
        from workloads import WORKLOADS, Size

        if args.smoke or args.self_test:
            problems = self_test(args.seed, spec) if args.self_test else smoke(args.seed, spec)
            for line in problems:
                print(f"PROBLEM: {line}")
            print("self-test passed" if args.self_test and not problems else
                  "smoke passed" if not problems else "FAILED")
            return 1 if problems else 0
        if args.workload not in WORKLOADS:
            raise HarnessError(f"--workload must be one of {sorted(WORKLOADS)}")
        trace = bool(args.trace)
        record = run_workload(args.workload, args.seed, Size(seconds=args.seconds), trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_record(record, args.workload, args.seed, trace)
    result = report(record, spec, trace)
    problems = schema_errors(result, spec, trace)
    for line in problems:
        print(f"# SCHEMA: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
