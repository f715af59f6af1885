"""Compare traced runs against the Baseline table of ROADMAP.md.

Reads the records that ``run.py --trace 1`` writes to ``bench/out/`` and
checks each Baseline entry to within +/-20%.  Entries that no workload
measures are listed as not covered.

    python3 bench/run.py --workload mc-bb72-lp --seed 1 --trace 1
    python3 bench/run.py --workload mc-bb144-bp --seed 1 --trace 1
    python3 bench/baseline.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
TOLERANCE = 0.20

# (entry, baseline value, unit, workload, how to read it from a record, note);
# a workload of None means no workload measures the entry.  The note names
# what the workload does differently from the Baseline's conditions.
BASELINE = (
    ("bb72 HiGHS solve", 16.7, "ms/solve", "mc-bb72-lp", ("per_call", "lp.solve_lp"), ""),
    ("bb72 HiGHS iterations", 285, "iterations/solve", "mc-bb72-lp",
     ("metric", "lp.iterations_mean"), ""),
    ("bb72 LP assembly", 0.5, "ms/solve", "mc-bb72-lp", ("per_call", "lp.build_syndrome_lp"), ""),
    ("bb72 success test", 0.07, "ms/trial", "mc-bb72-lp", ("per_trial", "sim.is_success"),
     "summed over three pipelines"),
    ("bb72 OSD, averaged over trials", 0.01, "ms/trial", "mc-bb72-lp",
     ("per_trial", "osd.order_qubits", "osd.osd0", "osd.osd_cs"),
     "a handful of OSD calls per run"),
    ("bb72 RNG setup", 0.24, "ms/trial", "mc-bb72-lp", ("metric", "sim.self_ms_per_trial"),
     "root self time: RNG set-up plus loop glue"),
    ("bb144 BP", 0.28, "ms/call", "mc-bb144-bp", ("per_call", "bp.min_sum_bp"),
     "p=0.06, where ~15% of calls run to the 144-iteration cap"),
    ("bb72 embedded simplex solve", 455, "ms/solve", None, None, ""),
    ("bb72 embedded simplex pivots", 1507, "pivots/solve", None, None, ""),
    ("bb72 BP", 0.38, "ms/call", None, None, ""),
    ("bb144 HiGHS solve", 33, "ms/solve", None, None, ""),
    ("tier-1 test wall", 145, "s", None, None, ""),
)


def measured(record: dict, how) -> float:
    kind, *names = how
    layers = record["layers"]
    if kind == "metric":
        return record["result"]["metrics"][names[0]]
    if kind == "per_call":
        return layers[names[0]]["ms_mean"]
    trials = record["result"]["attempted"]
    return sum(layers[n]["ms_mean"] * layers[n]["calls"] for n in names) / trials


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print("| entry | baseline | measured | ratio | verdict | note |")
    print("| --- | --- | --- | --- | --- | --- |")
    misses = 0
    for entry, value, unit, workload, how, note in BASELINE:
        if workload is None:
            print(f"| {entry} | {value} {unit} | - | - | not covered by any workload | |")
            continue
        path = OUT / f"{workload}-seed{args.seed}-trace1.json"
        if not path.is_file():
            print(f"| {entry} | {value} {unit} | - | - | no traced record {path.name} | |")
            misses += 1
            continue
        with open(path, encoding="utf-8") as fh:
            got = measured(json.load(fh), how)
        ratio = got / value
        ok = abs(ratio - 1.0) <= TOLERANCE
        misses += not ok
        print(f"| {entry} | {value} {unit} | {got:.4g} ({workload}) | {ratio:.2f} | "
              f"{'within 20%' if ok else 'MISS'} | {note} |")
    return 0 if misses == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
