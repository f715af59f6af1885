"""End-to-end tests of the command line interface."""

import json

import numpy as np
import pytest

from lposd import InvalidParameter, read_patterns, write_matrix
from lposd.cli import main, resolve_code, resolve_decoders
from lposd.codes import load_code, repetition_parity_check, save_code

from conftest import make_ring108


@pytest.fixture()
def surface_dir(tmp_path):
    out = tmp_path / "surface"
    assert main(["make-code", "--family", "surface", "--distance", "3",
                 "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# make-code
# ---------------------------------------------------------------------------


def test_make_code_surface(surface_dir, capsys):
    code = load_code(surface_dir)
    assert code.n == 9
    assert code.parameters().k == 1


def test_make_code_hgp_from_matrix_files(tmp_path, capsys):
    h_path = tmp_path / "h.txt"
    write_matrix(repetition_parity_check(3), h_path)
    out = tmp_path / "hgpcode"
    assert main(["make-code", "--family", "hgp", "--h1", str(h_path),
                 "--h2", str(h_path), "--out", str(out)]) == 0
    code = load_code(out)
    assert code.n == 3 * 3 + 2 * 2
    assert "n=13" in capsys.readouterr().out


def test_make_code_bb(tmp_path):
    out = tmp_path / "bb"
    assert main(["make-code", "--family", "bb", "--bb-name", "bb72",
                 "--out", str(out)]) == 0
    assert load_code(out).n == 72


def test_make_code_random_hgp(tmp_path):
    out = tmp_path / "rand"
    assert main(["make-code", "--family", "random-hgp", "--s", "2",
                 "--seed", "5", "--out", str(out)]) == 0
    load_code(out)


def test_make_code_hgp_requires_matrices(tmp_path, capsys):
    assert main(["make-code", "--family", "hgp",
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_make_code_hgp_missing_matrix_file_exits_2(tmp_path, capsys):
    h_path = tmp_path / "h.txt"
    write_matrix(repetition_parity_check(3), h_path)
    missing = tmp_path / "absent.txt"
    rc = main(["make-code", "--family", "hgp", "--h1", str(missing),
               "--h2", str(h_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_records(surface_dir, tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    rc = main(["simulate", "--code", str(surface_dir),
               "--decoder", "lp,bp", "--osd", "cs",
               "--p", "0.05,0.1", "--trials", "20", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4  # 2 rates x 2 decoders
    assert {r["pipeline"] for r in records} == {"lp-osdcs", "bp-osdcs"}
    assert {r["p"] for r in records} == {0.05, 0.1}
    for record in records:
        assert record["trials"] == 20
        assert 0 <= record["failures"] <= 20
        assert record["config"]["code"] == str(surface_dir)
        assert record["wall_seconds"] >= 0.0


def test_simulate_builds_the_code_once(monkeypatch, capsys):
    import lposd.cli as cli_mod

    calls = []

    def counting_resolve(spec, seed=0):
        calls.append(spec)
        return resolve_code(spec, seed)

    monkeypatch.setattr(cli_mod, "resolve_code", counting_resolve)
    rc = main(["simulate", "--code", "surface:3", "--decoder", "lp-osd0",
               "--p", "0.05,0.1", "--trials", "5", "--out", "-"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert calls == ["surface:3"]


def test_simulate_inline_spec_to_stdout(capsys):
    rc = main(["simulate", "--code", "surface:3", "--decoder", "lp-osd0",
               "--p", "0.1", "--trials", "10", "--out", "-"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["decoder"] == "lp-osd0"
    assert record["trials"] == 10


def test_simulate_is_reproducible(surface_dir, tmp_path):
    outs = []
    for stem in ("a", "b"):
        out = tmp_path / f"{stem}.jsonl"
        main(["simulate", "--code", str(surface_dir), "--decoder", "bp",
              "--p", "0.08", "--trials", "40", "--seed", "3",
              "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for record in records:
            record.pop("wall_seconds")
            record.pop("mean_decode_seconds")
        outs.append(records)
    assert outs[0] == outs[1]


def test_simulate_ensemble_requires_random_family(surface_dir, capsys):
    rc = main(["simulate", "--code", str(surface_dir), "--decoder", "bp",
               "--p", "0.1", "--trials", "10", "--n-codes", "2", "--out", "-"])
    assert rc == 2
    assert "random-hgp" in capsys.readouterr().err


def test_simulate_ensemble_mode(capsys):
    rc = main(["simulate", "--code", "random-hgp:2", "--decoder", "bp-osd0",
               "--p", "0.05", "--trials", "1", "--n-codes", "2",
               "--trials-per-code", "5", "--out", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    record = json.loads(lines[0])
    assert record["n_codes"] == 2
    assert record["trials"] == 10
    assert record["config"]["trials"] == 10
    assert "--trials" in captured.err
    assert len(record["per_code_failures"]) == 2


def test_simulate_ensemble_defaults_trials(capsys):
    rc = main(["simulate", "--code", "random-hgp:2", "--decoder", "bp-osd0",
               "--p", "0.05", "--n-codes", "2", "--trials-per-code", "5",
               "--out", "-"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    record = json.loads(lines[0])
    assert record["trials"] == 10
    assert record["config"]["trials"] == 10


def test_simulate_gives_bp_max_iter_to_bp_pipelines_only(capsys):
    rc = main(["simulate", "--code", "surface:3", "--decoder", "lp,bp",
               "--p", "0.05", "--trials", "2", "--bp-max-iter", "10", "--out", "-"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    caps = {d["name"]: d["bp_iteration_cap"]
            for d in json.loads(lines[0])["config"]["decoders"]}
    assert caps == {"lp-round": None, "bp": 10}


def test_simulate_gives_solver_to_lp_pipelines_only(capsys):
    rc = main(["simulate", "--code", "surface:3", "--decoder", "lp,bp",
               "--p", "0.05", "--trials", "2", "--solver", "embedded", "--out", "-"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    solvers = {d["name"]: d["solver"] for d in json.loads(lines[0])["config"]["decoders"]}
    assert solvers == {"lp-round": "embedded", "bp": None}


@pytest.mark.parametrize("argv", [
    ["--code", "surface:x", "--trials", "2"],
    ["--code", "random-hgp:x", "--trials", "2"],
    ["--code", "random-hgp:x", "--n-codes", "2"],
])
def test_simulate_bad_family_argument_exits_2(argv, capsys):
    rc = main(["simulate", "--decoder", "bp", "--p", "0.1", "--out", "-", *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x'" in err


def test_simulate_single_code_requires_trials(capsys):
    rc = main(["simulate", "--code", "surface:3", "--decoder", "bp",
               "--p", "0.1", "--out", "-"])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err


_SINGLE_CODE = ["--code", "surface:3", "--decoder", "lp,bp", "--osd", "cs",
                "--p", "0.05,0.1", "--trials", "20", "--seed", "1"]
_ENSEMBLE = ["--code", "random-hgp:2", "--decoder", "lp-osd0,bp", "--p", "0.05",
             "--n-codes", "3", "--trials-per-code", "5", "--seed", "2"]


# sha256 of the JSONL lines of two simulate runs without their timings; the
# 'scipy' runs were recorded while run_point and run_ensemble assembled their
# results from a separate per-point tally, the runs on the default solver
# when adaptive LP decoding became it
@pytest.mark.parametrize("argv, digest", [
    (_SINGLE_CODE + ["--solver", "scipy"],
     "f9ad55db814e78b5334e2972c19757ba950bc4f100aa4e6cb4923989187a87ad"),
    (_ENSEMBLE + ["--solver", "scipy"],
     "fe0155f4aff92a0139ef1b9efd09c1985d644f3cb9bfbf4a744f2a59949fb9a5"),
    (_SINGLE_CODE, "a79dfc735dcc88e71e62dbc9b4a24f316a87e529be06524b1d959dcfa1499f4a"),
    (_ENSEMBLE, "83f73eb61fa233043726b8d189983a7d6d580fdbd97ad3ab3e8b45e08db87e03"),
], ids=["single-code", "ensemble", "single-code-cuts", "ensemble-cuts"])
def test_simulate_records_unchanged(argv, digest, capsys):
    import hashlib

    assert main(["simulate", *argv, "--out", "-"]) == 0
    records = []
    for line in capsys.readouterr().out.splitlines():
        record = json.loads(line)
        record.pop("wall_seconds")
        record.pop("mean_decode_seconds", None)
        records.append(record)
    text = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


# ---------------------------------------------------------------------------
# find-patterns
# ---------------------------------------------------------------------------


def test_find_patterns_roundtrip(tmp_path, capsys):
    code, _, _ = make_ring108()
    code_dir = tmp_path / "ring"
    save_code(code, code_dir)
    out = tmp_path / "patterns.jsonl"
    rc = main(["find-patterns", "--code", str(code_dir), "--max-cycle", "8",
               "--limit", "2", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "patterns ->" in stdout
    loaded = read_patterns(out, load_code(code_dir))
    assert 1 <= len(loaded) <= 2
    assert all(p.weight >= 3 for p in loaded)


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_find_patterns_rejects_a_limit_below_one(tmp_path, capsys, limit):
    code_dir = tmp_path / "ring"
    save_code(make_ring108()[0], code_dir)
    out = tmp_path / "patterns.jsonl"
    rc = main(["find-patterns", "--code", str(code_dir), "--limit", limit,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# detector-decode
# ---------------------------------------------------------------------------


@pytest.fixture()
def detector_files(tmp_path, surface3):
    matrix_path = tmp_path / "matrix.txt"
    write_matrix(surface3.hx, matrix_path)
    probs_path = tmp_path / "probs.txt"
    probs_path.write_text(" ".join(["0.05"] * surface3.n) + "\n")
    e = np.zeros(surface3.n, dtype=np.uint8)
    e[[2, 6]] = 1
    s = surface3.syndrome(e)
    bits_path = tmp_path / "syndrome_bits.txt"
    bits_path.write_text(" ".join(str(int(b)) for b in s) + "\n")
    return matrix_path, probs_path, bits_path, s


def test_detector_decode_bits_syndrome(detector_files, surface3, capsys, tmp_path):
    matrix_path, probs_path, bits_path, s = detector_files
    rc = main(["detector-decode", "--matrix", str(matrix_path),
               "--probs", str(probs_path), "--syndrome", str(bits_path)])
    assert rc == 0
    captured = capsys.readouterr()
    support = [int(tok) for tok in captured.out.split()]
    correction = np.zeros(surface3.n, dtype=np.uint8)
    correction[support] = 1
    assert np.array_equal(surface3.hx.mat_vec(correction), s)
    assert "matched" in captured.err


def test_detector_decode_index_syndrome_and_dump(detector_files, surface3,
                                                 capsys, tmp_path):
    matrix_path, probs_path, _, s = detector_files
    idx_path = tmp_path / "syndrome_idx.txt"
    idx_path.write_text(" ".join(str(int(j)) for j in np.flatnonzero(s)))
    dump_path = tmp_path / "model.lp"
    rc = main(["detector-decode", "--matrix", str(matrix_path),
               "--probs", str(probs_path), "--syndrome", str(idx_path),
               "--osd", "0", "--dump-lp", str(dump_path)])
    assert rc == 0
    captured = capsys.readouterr()
    support = [int(tok) for tok in captured.out.split()]
    correction = np.zeros(surface3.n, dtype=np.uint8)
    correction[support] = 1
    assert np.array_equal(surface3.hx.mat_vec(correction), s)
    assert "Minimize" in dump_path.read_text()


def test_detector_decode_round_mode(detector_files, capsys):
    matrix_path, probs_path, bits_path, _ = detector_files
    rc = main(["detector-decode", "--matrix", str(matrix_path),
               "--probs", str(probs_path), "--syndrome", str(bits_path),
               "--osd", "round"])
    assert rc == 0
    assert "stage:" in capsys.readouterr().err


def test_detector_decode_rejects_bad_probs(detector_files, tmp_path, capsys):
    matrix_path, _, bits_path, _ = detector_files
    short = tmp_path / "short.txt"
    short.write_text("0.05 0.05")
    rc = main(["detector-decode", "--matrix", str(matrix_path),
               "--probs", str(short), "--syndrome", str(bits_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_detector_decode_infeasible_syndrome_exits_2(tmp_path, capsys):
    from lposd.gf2 import BinaryMatrix

    cases = [
        # detectors 0 and 1 watch the same column, so no error flips only
        # detector 0: the syndrome lies outside the column space and the LP
        # is infeasible
        (BinaryMatrix.from_entries(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)]),
         "1 0 0\n"),
        # a 4-cycle of detectors: every column flips two of them, so one
        # flipped detector is outside the column space, yet the LP stays
        # feasible at x = 1/2 and rounding alone would not notice
        (BinaryMatrix.from_entries(
            4, 4, [(0, 0), (0, 3), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]),
         "1 0 0 0\n"),
    ]
    for matrix, syndrome in cases:
        matrix_path = tmp_path / "matrix.txt"
        write_matrix(matrix, matrix_path)
        probs_path = tmp_path / "probs.txt"
        probs_path.write_text(" ".join(["0.1"] * matrix.n_cols) + "\n")
        syndrome_path = tmp_path / "syndrome.txt"
        syndrome_path.write_text(syndrome)
        for mode in ("cs", "0", "round"):
            for solver in ("scipy", "embedded"):
                rc = main(["detector-decode", "--matrix", str(matrix_path),
                           "--probs", str(probs_path), "--syndrome", str(syndrome_path),
                           "--osd", mode, "--solver", solver])
                assert rc == 2, (matrix.n_rows, mode, solver)
                captured = capsys.readouterr()
                assert "error:" in captured.err
                assert captured.out == ""


@pytest.fixture()
def wide_detector_files(tmp_path):
    """A detector matrix whose row 0 has weight 20, above the explicit model's cap."""
    from lposd.gf2 import BinaryMatrix

    matrix = BinaryMatrix.from_entries(
        3, 22, [(0, q) for q in range(20)] + [(1, 19), (1, 20), (2, 20), (2, 21)])
    matrix_path = tmp_path / "wide.txt"
    write_matrix(matrix, matrix_path)
    probs_path = tmp_path / "wide_probs.txt"
    probs_path.write_text(" ".join(["0.05"] * 22) + "\n")
    syndrome_path = tmp_path / "wide_syndrome.txt"
    syndrome_path.write_text("1 1 0\n")
    return matrix_path, probs_path, syndrome_path


@pytest.mark.parametrize("mode", ["cs", "0", "round"])
def test_detector_decode_takes_a_row_above_the_cap(wide_detector_files, mode, capsys):
    matrix_path, probs_path, syndrome_path = wide_detector_files
    rc = main(["detector-decode", "--matrix", str(matrix_path), "--probs", str(probs_path),
               "--syndrome", str(syndrome_path), "--osd", mode])
    assert rc == 0
    captured = capsys.readouterr()
    assert "syndrome matched" in captured.err
    assert captured.out.split() == ["19"]  # the one weight-1 explanation


def test_detector_decode_dump_of_a_row_above_the_cap_exits_2(wide_detector_files,
                                                            tmp_path, capsys):
    matrix_path, probs_path, syndrome_path = wide_detector_files
    rc = main(["detector-decode", "--matrix", str(matrix_path), "--probs", str(probs_path),
               "--syndrome", str(syndrome_path), "--dump-lp", str(tmp_path / "wide.lp")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "weight 20 > 12" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, text", [
    ("probs", "0.05 x\n"),
    ("syndrome", "a\n"),
    ("matrix", "1 5\n5\n"),
    ("matrix", None),
], ids=["probability-not-a-number", "syndrome-not-an-integer",
        "matrix-entry-out-of-bounds", "matrix-missing"])
def test_detector_decode_unreadable_file_exits_2(detector_files, tmp_path, capsys,
                                                 field, text):
    paths = dict(zip(("matrix", "probs", "syndrome"), detector_files[:3]))
    paths[field] = tmp_path / "bad.txt"
    if text is not None:
        paths[field].write_text(text)
    rc = main(["detector-decode", "--matrix", str(paths["matrix"]),
               "--probs", str(paths["probs"]), "--syndrome", str(paths["syndrome"])])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(paths[field]) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, text, message", [
    ("syndrome", "0 99\n", "error: detector index 99 out of range"),
    ("probs", " ".join(["0.05"] * 8 + ["1.5"]) + "\n", "error: probability 1.5 outside (0, 1)"),
], ids=["detector-index", "probability"])
def test_detector_decode_rejects_bad_input(detector_files, tmp_path, capsys,
                                           field, text, message):
    paths = dict(zip(("matrix", "probs", "syndrome"), detector_files[:3]))
    paths[field] = tmp_path / "bad.txt"
    paths[field].write_text(text)
    rc = main(["detector-decode", "--matrix", str(paths["matrix"]),
               "--probs", str(paths["probs"]), "--syndrome", str(paths["syndrome"])])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err.splitlines()
    assert captured.out == ""


@pytest.mark.parametrize("hx_text", ["1 9\n9\n", None], ids=["bad-hx", "missing-hx"])
@pytest.mark.parametrize("command", ["simulate", "find-patterns"])
def test_saved_code_with_unreadable_hx_exits_2(surface_dir, tmp_path, capsys,
                                               command, hx_text):
    hx_path = surface_dir / "hx.txt"
    if hx_text is None:
        hx_path.unlink()
    else:
        hx_path.write_text(hx_text)
    if command == "simulate":
        argv = ["simulate", "--code", str(surface_dir), "--decoder", "bp",
                "--p", "0.1", "--trials", "2", "--out", "-"]
    else:
        argv = ["find-patterns", "--code", str(surface_dir),
                "--out", str(tmp_path / "patterns.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(surface_dir) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--code", "surface:3", "--decoder", "bp", "--p", "x",
     "--trials", "2", "--out", "-"],
    ["simulate", "--code", "surface:3", "--decoder", "bp", "--p", "0.1",
     "--trials", "2", "--out", "{missing}/x.jsonl"],
    ["find-patterns", "--code", "{ring}", "--limit", "1", "--out", "{missing}/p.jsonl"],
    ["detector-decode", "--matrix", "{matrix}", "--probs", "{probs}",
     "--syndrome", "{syndrome}", "--dump-lp", "{missing}/m.lp"],
], ids=["simulate-bad-p", "simulate-out", "find-patterns-out", "detector-decode-dump-lp"])
def test_bad_value_or_unwritable_output_exits_2(argv, detector_files, tmp_path, capsys):
    ring = tmp_path / "ring"
    save_code(make_ring108()[0], ring)
    paths = dict(zip(("matrix", "probs", "syndrome"), detector_files[:3]),
                 ring=ring, missing=tmp_path / "missing")
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# resolvers
# ---------------------------------------------------------------------------


def test_resolve_code_inline_forms():
    assert resolve_code("surface:5").n == 25
    assert resolve_code("bb:bb72").n == 72
    assert resolve_code("random-hgp:2", seed=1).n == resolve_code(
        "random-hgp:2", seed=1).n
    with pytest.raises(InvalidParameter):
        resolve_code("nonsense")


def test_resolve_decoders_shorthands():
    def resolve(tokens, osd=None):
        return [spec.name for spec in
                resolve_decoders(tokens, osd, 60, None, "embedded", None)]

    assert resolve(["lp"]) == ["lp-round"]
    assert resolve(["lp"], osd="0") == ["lp-osd0"]
    assert resolve(["lp"], osd="cs") == ["lp-osdcs"]
    assert resolve(["bp"]) == ["bp"]
    assert resolve(["bp"], osd="cs") == ["bp-osdcs"]
    assert resolve(["lp-round", "bp-osd0"]) == ["lp-round", "bp-osd0"]
    with pytest.raises(InvalidParameter):
        resolve(["turbo"])


def test_every_entry_point_defaults_to_the_same_solver():
    import inspect

    from lposd import (DEFAULT_SOLVER, DecoderSpec, lp_osd_decode,
                       lp_round_decode, solve_lp)
    from lposd.cli import build_parser

    assert DEFAULT_SOLVER == "cuts"
    assert DecoderSpec("lp-osdcs").solver == DEFAULT_SOLVER
    for func in (lp_osd_decode, lp_round_decode):
        assert inspect.signature(func).parameters["solver"].default == DEFAULT_SOLVER
    # a bare solve_lp returns every column, which only 'scipy' and 'embedded' do
    assert inspect.signature(solve_lp).parameters["solver"].default == "scipy"
    parser = build_parser()
    sim = parser.parse_args(["simulate", "--code", "surface:3", "--decoder", "lp",
                             "--p", "0.1"])
    det = parser.parse_args(["detector-decode", "--matrix", "m", "--probs", "p",
                             "--syndrome", "s"])
    assert sim.solver == det.solver == DEFAULT_SOLVER
    assert resolve_decoders(["lp"], None, 60, None, sim.solver, None)[0].solver \
        == DEFAULT_SOLVER
