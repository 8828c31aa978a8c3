"""Command-line front end.

Subcommands wire the exact engine, the simulator, the extractors and the
test suite into file-based experiments. Every run writes a manifest.json
echoing the full effective parameter set (seeds included), so any output can
be regenerated from its manifest alone. A subcommand only computes, and
refuses a bad run before it returns; main alone writes, after it returns
(simulate's stream is drawn as main writes it). So the manifest lists exactly
the files the run wrote, and a refused run creates no output directory.

Exit codes: 0 success, 2 usage error, 3 resource budget exceeded, 4
malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .bitstring import BitString
from .config import DETECTOR_NAMES, QrngConfig
from .errors import InputFormatError, ResourceBudgetError, UsageError
from .exact import (
    ENUMERATION_CAP,
    ExactDistribution,
    tv_distance,
    xor_distribution,  # the enumeration oracle; benchmarks/run.py traces cli.xor_distribution
    xor_distribution_transfer,
    xor_expectation_classical,
    xor_expectation_quantum,
)
from .extractors import ExtractionOutput, pair_von_neumann, peres, von_neumann, xor_offset
from .fileio import (
    read_bits,
    read_stream_ndjson,  # the whole-stream reader; benchmarks/run.py traces cli.read_stream_ndjson
    read_stream_outcomes,
    write_bits,
    write_deviation_csv,
    write_distribution_csv,
    write_json,
    write_reports_csv,
    write_stream_ndjson,
    write_sweep_csv,
)
from .simulate import _check_n, _generator, _pipeline_chunks, _tallied, demon_filter, demon_modulus
from .simulate import run_pipeline  # no command calls it; benchmarks/run.py traces cli.run_pipeline
from .stats import (
    DEFAULT_ALPHA,
    _check_alpha,
    borel_normality,
    chi2_uniformity,
    correlation_estimate,
    estimate_theta,
)
from .streams import PairStream

__all__ = ["main", "parse_angle", "parse_count"]

GRID_CAP = 1 << 16  # sweep --grid points; each point costs a CSV row, or a run with --empirical

# the exit status of each error type main reports; any other exception is a bug
_EXIT_CODES = {UsageError: 2, OSError: 2, ResourceBudgetError: 3, InputFormatError: 4}


def parse_angle(text: str) -> float:
    """Angle in radians from a decimal or a fraction of pi like 'pi/5', '3pi/4'."""
    t = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"(?:(\d+(?:\.\d*)?|\.\d+)\*?)?pi(?:/(\d+(?:\.\d*)?|\.\d+))?", t)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise UsageError(f"zero denominator in angle {text!r}")
        return num * math.pi / den
    try:
        return float(t)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_count(text: str) -> int:
    """Positive integer: plain digits read exactly, scientific notation (1e6) as a float."""
    try:
        # int() stops at 4300 digits; a longer digit string reads as a float, inf or 0
        exact = text.isascii() and text.isdigit() and len(text) <= 4300
        value = int(text) if exact else float(text)
    except ValueError:
        raise UsageError(f"cannot parse count {text!r}") from None
    if not (value >= 1 and value % 1 == 0):  # nan and inf fail too
        raise UsageError(f"count must be a positive integer, got {text!r}")
    return int(value)


def _parse_alpha(text: str) -> float:
    return _check_alpha(float(text))


def _parse_efficiencies(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--e takes four comma-separated values: e0+,e1+,e0x,e1x")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse efficiencies {text!r}") from None
    return dict(zip(DETECTOR_NAMES, values))


def _add_config_flags(p: argparse.ArgumentParser, theta: bool = True):
    p.add_argument("--config", metavar="FILE", help="JSON file of generator settings; flags override it")
    if theta:
        p.add_argument("--theta", metavar="ANGLE", help="context misalignment, e.g. 0.635 or pi/5")
    p.add_argument("--e", metavar="Q", help="efficiency quadruple e0+,e1+,e0x,e1x")


def _build_config(args, extra: dict | None = None) -> QrngConfig:
    """The --config file (or the defaults) with the given flags applied over it."""
    cfg = QrngConfig.from_json(args.config) if args.config else QrngConfig()
    overrides = {key: value for key, value in (extra or {}).items() if value is not None}
    if getattr(args, "theta", None) is not None:
        overrides["theta"] = parse_angle(args.theta)
    if args.e is not None:
        overrides.update(_parse_efficiencies(args.e))
    return dataclasses.replace(cfg, **overrides)


def _refuse_unread(args, reason: str, *dests: str) -> None:
    """Usage error naming each flag of ``dests`` the run was given but would ignore."""
    given = ["--" + dest for dest in dests if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"{' and '.join(given)} would be ignored: {reason}")


# --- subcommands -----------------------------------------------------------------
# Each returns (params, results, artifacts, lines) and writes nothing: the
# manifest's params and results, its files as {name: (writer, *data)} in write
# order, and its stdout lines. main does every write; data drawn as it is
# written may fill in results and lines, which main reads only after the writes.


def cmd_exact(args) -> tuple:
    cfg = _build_config(args)
    dist = xor_distribution_transfer(args.n, args.j, cfg, max_bits=args.max_bits)
    tv = tv_distance(dist, ExactDistribution.uniform(args.n))
    lines = [f"tv_to_uniform {tv!r}"] if args.tv else []
    return (
        {"n": args.n, "j": args.j, "max_bits": args.max_bits, "config": cfg.to_dict()},
        {"tv_to_uniform": tv, "l1_to_uniform": 2.0 * tv},
        {"distribution.csv": (write_distribution_csv, dist),
         "deviation.csv": (write_deviation_csv, dist)},
        [*lines, f"wrote {Path(args.out_dir) / 'distribution.csv'}"],
    )


def cmd_simulate(args) -> tuple:
    cfg = _build_config(
        args,
        {
            "mean_pair_interval": args.mean_interval,
            "dead_time_Td": args.dead_time,
            "double_count_prob": args.double_count,
            "demon_rho": args.demon,
        },
    )
    # every refusal comes from _pipeline_chunks, before main writes; the stream is drawn
    # as main writes it, which fills in the counters before main writes the manifest
    counters: dict = {}
    chunks = _tallied(_pipeline_chunks(args.pairs, cfg, args.seed, args.mode),
                      args.pairs, args.seed, counters)
    return (
        {"pairs": args.pairs, "seed": args.seed, "mode": args.mode, "config": cfg.to_dict()},
        counters,
        {"stream.ndjson": (write_stream_ndjson, itertools.starmap(PairStream, chunks))},
        # formed as main prints it, after the write
        (f"kept {c['kept']} of {c['generated']} pairs -> {Path(args.out_dir) / 'stream.ndjson'}"
         for c in [counters]),
    )


# extract's input flags by argparse dest, in the order the manifest lists them
_EXTRACT_SOURCES = {"stream": "--stream", "in_x": "--in-x", "in_y": "--in-y", "infile": "--in"}


def _extract_source(args):
    """The dests of extract's one input source, and the strings the method reads from it.

    The source is either --stream or exactly the files the method reads: --in
    for vn and peres, --in-x with --in-y for xor and pair-vn. The strings are
    (x, y) for xor and pair-vn, and (z,) for vn and peres, z being the
    offset-0 XOR when the source is a stream.
    """
    two_sided = args.method in ("xor", "pair-vn")
    files = ("in_x", "in_y") if two_sided else ("infile",)
    given = tuple(dest for dest in _EXTRACT_SOURCES if getattr(args, dest) is not None)
    if given not in (("stream",), files):
        wanted = " and ".join(_EXTRACT_SOURCES[dest] for dest in files)
        got = " and ".join(_EXTRACT_SOURCES[dest] for dest in given) or "no input"
        raise UsageError(f"method {args.method} reads --stream or {wanted}, got {got}")
    if given == ("stream",):
        x, y = read_stream_outcomes(args.stream)
        return given, (x, y) if two_sided else (xor_offset(x, y, 0),)
    return given, tuple(read_bits(getattr(args, dest)) for dest in files)


def cmd_extract(args) -> tuple:
    for method, dest in (("xor", "j"), ("peres", "depth")):
        if args.method != method:
            _refuse_unread(args, f"only method {method} reads it", dest)
    given, strings = _extract_source(args)
    j = 0 if args.j is None else args.j
    depth = 4 if args.depth is None else args.depth
    params = {"xor": {"j": j}, "peres": {"depth": depth}}.get(args.method, {})
    if args.method == "xor":
        x, y = strings
        result = ExtractionOutput(xor_offset(x, y, j), len(x))
    elif args.method == "vn":
        result = von_neumann(*strings)
    elif args.method == "peres":
        result = peres(*strings, depth)
    else:
        result = pair_von_neumann(*strings)
    bits = result.bits
    return (
        {"method": args.method, "format": args.format,
         "inputs": [getattr(args, dest) for dest in given], **params},
        {"in": result.consumed, "out": len(bits), "discarded": result.discarded,
         "method": args.method, "params": params},
        {"extracted.bits": (write_bits, bits, args.format)},
        [f"{args.method}: {result.consumed} positions in, {len(bits)} bits out"],
    )


def _chi2_blocks(args, n_bits: int) -> list[int]:
    if args.k is not None:
        try:
            return sorted({int(p) for p in args.k.split(",")})
        except ValueError:
            raise UsageError(f"cannot parse block list {args.k!r}") from None
    return [k for k in range(1, 6) if k == 1 or n_bits >= 100 << k]


def cmd_analyze(args) -> tuple:
    tests = args.tests.split(",")
    unknown = set(tests) - {"chi2", "borel"}
    if unknown:
        raise UsageError(f"unknown tests: {', '.join(sorted(unknown))}")
    if "chi2" not in tests:
        _refuse_unread(args, f"--tests {args.tests} runs no chi2", "k", "alpha")
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    results: dict = {}
    if args.stream is not None:
        x, y = read_stream_outcomes(args.stream)
        if not len(x):
            raise UsageError(f"stream {args.stream} holds 0 records; the tests need bits")
        bits = xor_offset(x, y, 0)
        results["correlation"] = correlation_estimate(x, y)
        if len(x) >= 10_000:
            results["theta"] = estimate_theta(x, y).to_dict()
    else:
        bits = read_bits(args.infile)
    reports = []
    if "chi2" in tests:
        for k in _chi2_blocks(args, len(bits)):
            reports.append(chi2_uniformity(bits, k, alpha=alpha))
    if "borel" in tests:
        reports.extend(borel_normality(bits))
    lines = []
    for r in reports:
        p = "-" if r.p_value is None else f"{r.p_value:.6g}"
        lines.append(f"{r.test_name} k={r.params.get('k')} stat={r.statistic:.6g} "
                     f"p={p} {'pass' if r.passed else 'FAIL'}")
    return (
        {"in": args.infile, "stream": args.stream, "tests": args.tests,
         "k": args.k, "alpha": alpha, "bits": len(bits)},
        results,
        {"reports.json": (write_json, [r.to_dict() for r in reports]),
         "reports.csv": (write_reports_csv, reports)},
        lines,
    )


def _parse_grid(args) -> list[float]:
    if args.thetas is not None:
        return [parse_angle(p) for p in args.thetas.split(",")]
    m = re.fullmatch(r"([^:]+):([^:]+):(\d+)", args.grid)
    if not m:
        raise UsageError(f"--grid takes start:stop:count, got {args.grid!r}")
    start, stop = parse_angle(m.group(1)), parse_angle(m.group(2))
    digits = m.group(3).lstrip("0") or "0"
    # a count with more digits than the cap is over it; int() refuses past 4300 digits
    if len(digits) > len(str(GRID_CAP)) or int(digits) > GRID_CAP:
        raise ResourceBudgetError(f"a grid holds at most {GRID_CAP} points")
    count = int(digits)
    if count < 2:
        raise UsageError("grid needs at least two points")
    return list(np.linspace(start, stop, count))


def _agreement(n: int, cfg: QrngConfig, seed: int) -> float:
    """Fraction of a run's records whose outcomes agree, a == b: one point of a sweep.
    It counts over the run's chunks, so a point holds one chunk, not its n pairs."""
    kept = disagree = 0
    for _, a, b, *_ in _pipeline_chunks(n, cfg, seed):
        kept += a.size
        disagree += int(np.count_nonzero(a ^ b))
    return 1.0 - disagree / kept  # as 1 - mean(a ^ b), whose sum of 0s and 1s is exact


def cmd_sweep(args) -> tuple:
    if not args.empirical:
        _refuse_unread(args, "only --empirical draws pairs", "e", "config", "seed")
    seed = 0 if args.seed is None else args.seed
    thetas = _parse_grid(args)
    cfg = _build_config(args)
    if args.empirical:
        # point i draws with seed + i, so the last point's seed must be valid before the first draws
        if not 0 <= seed <= 2**64 - len(thetas):
            raise UsageError(f"--seed must lie in [0, 2**64 - {len(thetas)}] "
                             f"for {len(thetas)} points, got {seed}")
        _check_n(args.empirical)
    # the analytic columns refuse an angle out of range before any point draws
    rows = [[theta, xor_expectation_quantum(theta), xor_expectation_classical(theta)]
            for theta in thetas]
    if args.empirical:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # point i is keyed by seed + i alone, so the points run in forked workers in any order
        n, points = args.empirical, len(thetas)
        workers = min(points, len(os.sched_getaffinity(0)))
        cfgs = [dataclasses.replace(cfg, theta=theta) for theta in thetas]
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            # a failed point cancels the points not yet started and reaches main
            agreements = pool.map(_agreement, [n] * points, cfgs, range(seed, seed + points))
            for row, agreement in zip(rows, agreements):
                row.append(agreement)
    params_cfg = cfg.to_dict()
    del params_cfg["theta"]  # each point runs at its own angle, listed in thetas
    return (
        {"thetas": thetas, "empirical": args.empirical, "seed": seed, "config": params_cfg},
        {"points": len(rows)},
        {"sweep.csv": (write_sweep_csv, rows)},
        [f"wrote {Path(args.out_dir) / 'sweep.csv'} ({len(rows)} points)"],
    )


def cmd_demon_demo(args) -> tuple:
    _check_n(args.n)
    k = demon_modulus(args.rho)
    rng = _generator(args.seed, 0)  # Philox key [seed, 0] draws as the bare key seed
    source = BitString.from_array((rng.random(args.n) < 0.5).astype(np.uint8))
    sieved = demon_filter(source, args.rho)
    forced = sieved.to_array()[k - 1 :: k]
    results = {
        "k": k,
        "in": len(source),
        "out": len(sieved),
        "rejected_fraction": 1.0 - len(sieved) / len(source),
        "forced_slots_all_zero": bool(forced.size == 0 or not forced.any()),
    }
    return (
        {"rho": args.rho, "n": args.n, "seed": args.seed},
        results,
        {"source.bits": (write_bits, source), "sieved.bits": (write_bits, sieved)},
        [f"k={k}: kept {len(sieved)} of {len(source)} bits "
         f"(rejected {results['rejected_fraction']:.4f})"],
    )


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrngkit",
        description="Entangled-pair randomness toolkit: exact laws, simulation, "
        "extraction, and statistical analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="compute the exact offset-XOR output law",
                       description="Exact offset-XOR law of the ideal pair source. A config's "
                       "dead_time_Td and mean_pair_interval leave it unchanged; a drift, a "
                       "non-zero double_count_prob or a demon_rho exits 2.")
    p.add_argument("--n", type=parse_count, required=True, help="output string length")
    p.add_argument("--j", type=int, default=0, help="XOR offset (default 0)")
    p.add_argument("--max-bits", type=parse_count, default=ENUMERATION_CAP,
                   help=f"budget on n+j, the input string length (default {ENUMERATION_CAP})")
    p.add_argument("--tv", action="store_true", help="print the distance to uniform")
    _add_config_flags(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="generate a pair stream")
    p.add_argument("--pairs", type=parse_count, required=True, help="raw pairs to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("ideal", "physical"), default="ideal")
    p.add_argument("--mean-interval", type=float, default=None, help="mean seconds between pairs")
    p.add_argument("--dead-time", type=float, default=None, help="detector dead time in seconds")
    p.add_argument("--double-count", type=float, default=None, help="double-count probability")
    p.add_argument("--demon", type=float, default=None, metavar="RHO",
                   help="apply the fair-sampling demon with budget RHO")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="post-process bit files or a stream")
    p.add_argument("--method", choices=("xor", "vn", "peres", "pair-vn"), required=True)
    p.add_argument("--in", dest="infile", help="input bit file (vn, peres)")
    p.add_argument("--in-x", help="first input bit file (xor, pair-vn)")
    p.add_argument("--in-y", help="second input bit file (xor, pair-vn)")
    p.add_argument("--stream", help="NDJSON stream as input instead of bit files")
    p.add_argument("--j", type=int, help="offset for method xor (default 0)")
    p.add_argument("--depth", type=int, help="recursion depth for method peres (default 4)")
    p.add_argument("--format", choices=("ascii", "packed"), default="ascii",
                   help="output bit-file mode")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="run statistical tests over bits")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--in", dest="infile", help="input bit file")
    g.add_argument("--stream", help="NDJSON stream; tests run on its offset-0 XOR bits")
    p.add_argument("--tests", default="chi2,borel", help="comma list from: chi2, borel")
    p.add_argument("--k", help="comma list of block lengths for chi2")
    p.add_argument("--alpha", type=_parse_alpha,
                   help=f"chi2 significance level in (0, 1) (default {DEFAULT_ALPHA})")
    p.set_defaults(func=cmd_analyze)

    # no abbreviations: --theta would otherwise silently stand for --thetas
    p = sub.add_parser("sweep", help="tabulate expectation curves over angles", allow_abbrev=False)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--thetas", help="comma list of angles")
    g.add_argument("--grid", help=f"angle grid start:stop:count, at most {GRID_CAP} points")
    p.add_argument("--empirical", type=parse_count, default=None, metavar="PAIRS",
                   help="add a simulated column with this many pairs per angle")
    p.add_argument("--seed", type=int, help="seed of the first angle's draw (default 0)")
    _add_config_flags(p, theta=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demon-demo", help="show the fair-sampling demon on coin flips")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--n", type=parse_count, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demon_demo)

    for p in sub.choices.values():
        p.add_argument("--out-dir", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; only after it returns, create --out-dir and write its
    artifacts in order, then manifest.json listing exactly those files, then stdout."""
    args = build_parser().parse_args(argv)
    try:
        params, results, artifacts, lines = args.func(args)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, (writer, *data) in artifacts.items():
            writer(out / name, *data)
        manifest = "manifest.json"
        write_json(out / manifest, {"command": args.command, "params": params, "results": results,
                                    "outputs": sorted([*artifacts, manifest])})
        for line in lines:
            print(line)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
