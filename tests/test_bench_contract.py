"""The benchmark's traced replica must keep tallying what ``run_point`` tallies.

``bench/run.py`` marks a traced run invalid when the replica of the trial
loop in ``bench/workloads.py`` counts differently from ``run_point``.  This
test runs both for a few trials of every Monte Carlo workload, so a scoring
change in ``sim._run_trials`` that the replica does not share fails here,
not only at benchmark time.  ``bench/`` is imported as it stands.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRIALS = 20


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads, spans


def test_replica_tallies_equal_run_point(workloads):
    wl, spans = workloads
    names = sorted(name for name in wl.WORKLOADS if name.startswith("mc-"))
    assert names
    kinds = set()
    for name in names:
        w = wl.WORKLOADS[name]
        code, specs = w.build_code(), w.specs()
        plain = wl.run_mc(w, code, specs, seed=5, trials=TRIALS)
        traced = wl.replay_mc(spans.Tracer(), w, code, specs, seed=5, trials=TRIALS)
        assert plain.attempted == traced.attempted == TRIALS, name
        assert plain.errors == traced.errors == [], name
        assert plain.failed == traced.failed == 0, name
        for key in w.pipelines:
            assert plain.tallies[key].as_dict() == traced.tallies[key].as_dict(), (name, key)
            tally = plain.tallies[key]
            kinds |= {"wrong syndrome"} if tally.wrong_syndrome else set()
            kinds |= {"logical"} if tally.failures > tally.wrong_syndrome else set()
        assert wl.gate_violations(w, plain.tallies) == [], name
        assert wl.gate_violations(w, traced.tallies) == [], name
    # the trials fail both ways, so a drift in either count shows
    assert kinds == {"wrong syndrome", "logical"}
