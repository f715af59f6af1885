"""Command line front end.

Subcommands: ``make-code`` builds and saves a code, ``simulate`` sweeps
physical error rates and writes one JSON record per (p, decoder) point,
``find-patterns`` harvests undecodable error patterns from a saved code,
and ``detector-decode`` runs one weighted decode over an arbitrary
detector matrix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .codes import (
    CssCode,
    hypergraph_product,
    load_code,
    named_bb_code,
    rotated_surface_code,
    sample_random_hgp,
    save_code,
)
from .errors import InvalidParameter, LposdError
from .gf2 import BinaryMatrix, in_rowspace, read_matrix
from .lp import DEFAULT_SOLVER, MAX_CHECK_WEIGHT, SOLVERS, build_syndrome_lp, dump_lp
from .osd import DEFAULT_LAM, OsdConfig
from .patterns import search_patterns, write_patterns
from .sim import (DecoderSpec, SimConfig, lp_osd_decode, lp_round_decode, run_ensemble,
                  run_point)

__all__ = ["main", "build_parser", "resolve_code", "resolve_decoders"]


def _add_make_code(sub) -> None:
    p = sub.add_parser("make-code", help="construct a code and save it to a directory")
    p.add_argument("--family", required=True,
                   choices=("surface", "hgp", "bb", "random-hgp"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--distance", type=int, default=3,
                   help="surface code distance (odd)")
    p.add_argument("--h1", help="first classical parity-check matrix file (hgp)")
    p.add_argument("--h2", help="second classical parity-check matrix file (hgp)")
    p.add_argument("--bb-name", default="bb72", help="registered bicycle code key")
    p.add_argument("--s", type=int, default=2, help="random product family scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_make_code)


def _cmd_make_code(args) -> int:
    if args.family == "surface":
        code = rotated_surface_code(args.distance)
    elif args.family == "bb":
        code = named_bb_code(args.bb_name)
    elif args.family == "random-hgp":
        code = sample_random_hgp(args.s, args.seed)
    else:
        if not args.h1 or not args.h2:
            raise InvalidParameter("hgp family needs --h1 and --h2 matrix files")
        h1 = _read(read_matrix, args.h1)
        h2 = _read(read_matrix, args.h2)
        code = hypergraph_product(h1, h2, name="hgp")
    save_code(code, args.out)
    params = code.parameters()
    print(f"{code.name or 'code'}: n={params.n} k={params.k} -> {args.out}")
    return 0


def resolve_code(spec: str, seed: int = 0) -> CssCode:
    """A saved-code directory path, or an inline family spec.

    Inline forms: ``surface:D``, ``bb:KEY``, ``random-hgp:S`` (seeded by
    ``seed``).
    """
    if os.path.isdir(spec):
        return _read(load_code, spec)
    family, arg = _parse_inline(spec)
    if family == "surface":
        return rotated_surface_code(arg)
    if family == "bb":
        return named_bb_code(arg)
    return sample_random_hgp(arg, seed)


def _parse_inline(spec: str) -> tuple[str, int | str]:
    """Split an inline code spec into its family and argument, an int for
    ``surface`` and ``random-hgp``; InvalidParameter when it is not one."""
    family, _, arg = spec.partition(":")
    if family not in ("surface", "bb", "random-hgp") or not arg:
        raise InvalidParameter(
            f"{spec!r} is neither a code directory nor an inline family spec")
    if family == "bb":
        return family, arg
    try:
        return family, int(arg)
    except ValueError:
        raise InvalidParameter(f"{spec!r}: {family} takes an integer, not {arg!r}") from None


def resolve_decoders(tokens, osd: str | None, lam: int, tie_break: str | None,
                     solver: str, bp_max_iter: int | None) -> list[DecoderSpec]:
    """Map CLI decoder tokens to specs.

    ``lp`` and ``bp`` are shorthands completed by ``--osd``: plain ``lp``
    is LP with independent rounding, ``lp --osd cs`` is LP with the
    combination-sweep search, and so on.  Full pipeline names pass through
    unchanged, and ``DecoderSpec`` rejects any other.  ``solver`` reaches
    the LP pipelines only, and ``bp_max_iter`` the BP pipelines only.
    """
    specs = []
    for token in tokens:
        name = token.strip()
        if name in ("lp", "bp"):
            if osd is not None:
                suffix = "osd0" if osd == "0" else "osdcs"
                name = f"{name}-{suffix}"
            elif name == "lp":
                name = "lp-round"
        bp = name.startswith("bp")
        specs.append(DecoderSpec(name=name, lam=lam, tie_break=tie_break,
                                 solver=DEFAULT_SOLVER if bp else solver,
                                 bp_iteration_cap=bp_max_iter if bp else None))
    return specs


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="Monte Carlo sweep over physical error rates")
    p.add_argument("--code", required=True,
                   help="saved-code directory or inline spec (surface:D, bb:KEY, random-hgp:S)")
    p.add_argument("--decoder", required=True,
                   help="comma-separated pipelines; lp/bp shorthands honor --osd")
    p.add_argument("--p", required=True, help="comma-separated physical error rates")
    p.add_argument("--trials", type=int,
                   help="trials per point (single code only; an ensemble "
                        "runs n-codes * trials-per-code)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="-", help="output file, '-' for stdout")
    p.add_argument("--osd", choices=("0", "cs"))
    p.add_argument("--lambda", dest="lam", type=int, default=DEFAULT_LAM,
                   help="combination-sweep window")
    p.add_argument("--tie-break", choices=("distance", "random"))
    p.add_argument("--bp-max-iter", type=int)
    p.add_argument("--solver", choices=SOLVERS, default=DEFAULT_SOLVER,
                   help="LP backend: adaptive cuts on HiGHS (cuts, the "
                        "default), HiGHS on the explicit model (scipy) or "
                        "the dependency-free embedded simplex")
    p.add_argument("--n-codes", type=int, default=1,
                   help="random-hgp only: ensemble size")
    p.add_argument("--trials-per-code", type=int, default=10,
                   help="random-hgp ensembles: trials per sampled code")
    p.set_defaults(func=_cmd_simulate)


def _cmd_simulate(args) -> int:
    decoders = resolve_decoders(args.decoder.split(","), args.osd, args.lam,
                                args.tie_break, args.solver, args.bp_max_iter)
    try:
        ps = tuple(float(tok) for tok in args.p.split(","))
    except ValueError:
        raise InvalidParameter(f"--p takes comma-separated numbers, not {args.p!r}") from None
    ensemble = args.n_codes > 1
    trials = args.trials
    if ensemble:
        if not args.code.startswith("random-hgp:"):
            raise InvalidParameter("--n-codes > 1 requires a random-hgp code spec")
        scale = _parse_inline(args.code)[1]
        trials = args.n_codes * args.trials_per_code
        if args.trials is not None and args.trials != trials:
            print(f"--trials ignored: an ensemble runs n-codes * trials-per-code = "
                  f"{trials} trials", file=sys.stderr)
    elif trials is None:
        raise InvalidParameter("--trials is required for single-code runs")
    cfg = SimConfig(
        code=args.code,
        decoders=tuple(decoders),
        ps=ps,
        trials=trials,
        seed=args.seed,
        workers=args.workers,
        n_codes=args.n_codes,
        trials_per_code=args.trials_per_code,
    )
    cfg_record = cfg.to_record()
    code = None if ensemble else resolve_code(args.code, args.seed)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        for point_index, p in enumerate(ps):
            start = time.perf_counter()
            if ensemble:
                results = run_ensemble(scale, decoders, p, args.n_codes,
                                       args.trials_per_code, args.seed,
                                       workers=args.workers)
            else:
                results = run_point(code, decoders, p, trials, args.seed,
                                    point_index=point_index, workers=args.workers)
            wall = time.perf_counter() - start
            for res in results:
                record = {"config": cfg_record, **res.to_record(),
                          "wall_seconds": wall}
                out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
            print(f"p={p}: done in {wall:.1f}s", file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _add_find_patterns(sub) -> None:
    p = sub.add_parser("find-patterns",
                       help="harvest provably undecodable error patterns")
    p.add_argument("--code", required=True, help="saved-code directory")
    p.add_argument("--max-cycle", type=int, default=12)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_find_patterns)


def _cmd_find_patterns(args) -> int:
    code = _read(load_code, args.code)
    patterns = search_patterns(code, max_cycle_len=args.max_cycle,
                               limit=args.limit, rng_seed=args.seed)
    write_patterns(patterns, args.out, code_ref=args.code)
    for pat in patterns:
        print(f"{pat.kind}: weight {pat.weight}, objective {pat.claimed_objective}, "
              f"reduced {pat.reduced_verified}")
    print(f"{len(patterns)} patterns -> {args.out}")
    return 0


def _read(reader, path, *args):
    """``reader(path, *args)``; a missing or malformed file is InvalidParameter."""
    try:
        return reader(path, *args)
    except (OSError, ValueError) as exc:
        raise InvalidParameter(f"{path}: {exc}") from None


def _read_floats(path) -> list[float]:
    with open(path, encoding="ascii") as fh:
        return [float(tok) for tok in fh.read().split()]


def _read_syndrome(path, n_checks: int) -> np.ndarray:
    """Exactly n_checks tokens, each 0 or 1, are bits; any other token list
    names flipped detectors, and a detector named twice flips back."""
    with open(path, encoding="ascii") as fh:
        tokens = [int(tok) for tok in fh.read().split()]
    s = np.zeros(n_checks, dtype=np.uint8)
    if len(tokens) == n_checks and all(t in (0, 1) for t in tokens):
        s[:] = tokens
        return s
    for idx in tokens:
        if not 0 <= idx < n_checks:
            raise InvalidParameter(f"detector index {idx} out of range")
        s[idx] ^= 1
    return s


def _add_detector_decode(sub) -> None:
    p = sub.add_parser("detector-decode",
                       help="one weighted decode over a detector matrix")
    p.add_argument("--matrix", required=True,
                   help="sparse text detector matrix (rows: detectors)")
    p.add_argument("--probs", required=True,
                   help="per-column error probability file, one real per entry")
    p.add_argument("--syndrome", required=True,
                   help="a file of exactly one 0/1 token per detector is read as "
                        "bits; any other file lists flipped detectors, and a "
                        "detector listed twice flips back")
    p.add_argument("--osd", choices=("0", "cs", "round"), default="cs")
    p.add_argument("--lambda", dest="lam", type=int, default=DEFAULT_LAM)
    p.add_argument("--solver", choices=SOLVERS, default=DEFAULT_SOLVER,
                   help="LP backend: adaptive cuts on HiGHS (cuts, the "
                        "default), HiGHS on the explicit model (scipy) or "
                        "the dependency-free embedded simplex; scipy and "
                        f"embedded cap checks at weight {MAX_CHECK_WEIGHT}")
    p.add_argument("--dump-lp", help="also write the LP model to this path")
    p.set_defaults(func=_cmd_detector_decode)


def _cmd_detector_decode(args) -> int:
    matrix = _read(read_matrix, args.matrix)
    probs = _read(_read_floats, args.probs)
    if len(probs) != matrix.n_cols:
        raise InvalidParameter(
            f"expected {matrix.n_cols} probabilities, got {len(probs)}")
    for prob in probs:
        if not 0.0 < prob < 1.0:
            raise InvalidParameter(f"probability {prob} outside (0, 1)")
    weights = [math.log((1.0 - prob) / prob) for prob in probs]
    code = CssCode(matrix, BinaryMatrix([], matrix.n_cols), name="detector")
    s = _read(_read_syndrome, args.syndrome, matrix.n_rows)
    if args.dump_lp:
        dump_lp(build_syndrome_lp(code, s, weights), args.dump_lp)
    if not in_rowspace(matrix.transpose(), s):
        raise LposdError("syndrome outside the check-matrix column space")
    if args.osd == "round":
        result = lp_round_decode(code, s, solver=args.solver, weights=weights)
    else:
        cfg = OsdConfig(order="osd0" if args.osd == "0" else "osd_cs",
                        lam=args.lam)
        result = lp_osd_decode(code, s, cfg, solver=args.solver, weights=weights)
    support = np.flatnonzero(result.correction)
    print(" ".join(str(int(q)) for q in support))
    residual = (code.syndrome(result.correction) != s).any()
    print(f"stage: {result.stage}; syndrome "
          f"{'MISMATCH' if residual else 'matched'}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lposd",
        description="LP decoding toolkit for CSS codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_make_code(sub)
    _add_simulate(sub)
    _add_find_patterns(sub)
    _add_detector_decode(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LposdError, OSError) as exc:  # bad input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
