#!/usr/bin/env python3
"""qrngkit benchmark: the CLI pipeline, the imperfect sweep and the exact grid.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload pipeline-1e6 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 runs each `qrngkit` invocation as its own process, one at a time,
and reports the end-to-end metrics of BENCHMARK.json. --trace 1 calls
`qrngkit.cli.main` in-process, alternating untraced passes with passes traced
by wrapping the package's public functions (see spans.py), and reports the
per-layer metrics. Passes repeat while the next one should end within
--seconds (there is always one); every metric is the median over passes. Each invocation's output is checked outside the timed
region, and a failed check counts the invocation as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Spans of the traced run are
written to .bench_run/spans-<workload>.json. The benchmark exits with status 2
and prints no result when the checkout holds no qrngkit sources.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
PROBES_PER_PASS = 2
LAYERS = ("cli", "simulate", "fileio", "extractors", "stats", "exact")

sys.path.insert(0, str(HERE))
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402


def fail(message: str):
    """Exit with status 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    """Import qrngkit.cli from this checkout's src/, or exit with status 2."""
    if not (SRC / "qrngkit" / "cli.py").is_file():
        fail(f"no qrngkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrngkit.cli

    if Path(qrngkit.cli.__file__).resolve().parent != SRC / "qrngkit":
        fail(f"imported qrngkit from {qrngkit.cli.__file__}, not {SRC}")
    return qrngkit.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, stdout) -> tuple[float, float, int]:
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, env=env, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_probe(env: dict) -> float:
    """Interpreter start plus `import qrngkit.cli`, timed in a fresh process."""
    wall, _, code = spawn([sys.executable, "-c", "import qrngkit.cli"], env, subprocess.DEVNULL)
    if code != 0:
        fail("`import qrngkit.cli` failed in a fresh interpreter")
    return wall


def check(workload, op, code: int, stdout: str) -> bool:
    if code != 0:
        print(f"FAILED {workload.name} {op.command}: exit code {code}", file=sys.stderr)
        return False
    try:
        op.check(stdout)
    except (CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"FAILED {workload.name} {op.command}: {exc}", file=sys.stderr)
        return False
    return True


class Tally:
    """Operations attempted and failed over a run; one op is an invocation plus its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def subprocess_pass(workload, pass_dir: Path, env: dict, tally: Tally) -> dict:
    """One pass with each invocation in its own process; returns per-command walls and peak RSS."""
    walls: dict[str, float] = {}
    peak = 0.0
    for i, op in enumerate(workload.ops(pass_dir)):
        out_file = pass_dir / f"op{i}.stdout"
        out_file.parent.mkdir(parents=True, exist_ok=True)
        with open(out_file, "wb") as fh:
            wall, rss, code = spawn([sys.executable, "-m", "qrngkit.cli", *op.args], env, fh)
        walls[op.command] = walls.get(op.command, 0.0) + wall
        peak = max(peak, rss)
        tally.add(check(workload, op, code, out_file.read_text()))
    return {"walls": walls, "wall": sum(walls.values()), "peak_rss_mb": peak}


def inprocess_pass(workload, pass_dir: Path, cli, tally: Tally, tracer: Tracer | None) -> float:
    """One pass calling cli.main in this process; returns the summed wall of the calls."""
    total = 0.0
    for op in workload.ops(pass_dir):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(op.args)
                else:
                    with tracer.span(f"cli.{op.command}"):
                        code = cli.main(op.args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; keep measuring the rest
            traceback.print_exc()
            code = 1
        total += time.perf_counter() - t0
        tally.add(check(workload, op, code, buf.getvalue()))
    return total


def repeat_for(seconds: float, one_pass) -> list:
    """Call one_pass(i) for i = 0, 1, ... while the next call should end within `seconds`.

    The first call always runs; the length of the last call predicts the next.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def run_end_to_end(workload, seconds: float, work_dir: Path, tally: Tally) -> dict:
    env = child_env()
    setup_probe(env)  # discarded: it may compile the package's bytecode
    setup = []

    def one_pass(i):
        # probes spread over the run see the same host load as the passes
        setup.extend(setup_probe(env) for _ in range(PROBES_PER_PASS))
        pass_dir = work_dir / f"pass{i}"
        result = subprocess_pass(workload, pass_dir, env, tally)
        shutil.rmtree(pass_dir)
        return result

    passes = repeat_for(seconds, one_pass)
    wall = statistics.median(p["wall"] for p in passes)
    commands = {c: statistics.median(p["walls"][c] for p in passes) for c in passes[0]["walls"]}
    return {
        "metrics": {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
            "pairs_per_s": workload.work / wall,
        },
        "commands": commands,
        "passes": len(passes),
    }


def install_wraps(tracer: Tracer) -> None:
    """Wrap the public functions each workload reaches, where their callers look them up."""
    from qrngkit import cli, simulate

    size_of = os.path.getsize
    wraps = [
        (cli, "write_stream_ndjson", "fileio.write_stream",
         lambda a, k, r: {"fileio.write_stream.bytes": size_of(r)}),
        (cli, "read_stream_ndjson", "fileio.read_stream",
         lambda a, k, r: {"fileio.read_stream.records": len(r)}),
        (cli, "read_bits", "fileio.read_bits", lambda a, k, r: {"fileio.bits_bytes": size_of(a[0])}),
        (cli, "write_bits", "fileio.write_bits", lambda a, k, r: {"fileio.bits_bytes": size_of(r)}),
        *[(cli, name, "fileio.write_tables", None) for name in (
            "write_json", "write_distribution_csv", "write_deviation_csv",
            "write_reports_csv", "write_sweep_csv")],
        (cli, "run_pipeline", "simulate.run_pipeline", lambda a, k, r: {
            "simulate.pairs_generated": r.generated, "simulate.records_kept": len(r.records),
            "simulate.dropped_dead_time": r.dropped_dead_time,
            "simulate.dropped_demon": r.dropped_demon}),
        (simulate, "sample_pairs", "simulate.sample_pairs", None),
        (simulate, "apply_double_counting", "simulate.apply_double_counting", None),
        (simulate, "dead_time_filter", "simulate.dead_time_filter", None),
        (cli, "xor_distribution", "exact.xor_distribution",
         lambda a, k, r: {"exact.terms": 4 ** (a[0] + a[1])}),
        (cli, "tv_distance", "exact.tv_distance", None),
        (cli, "xor_expectation_quantum", "exact.expectation", None),
        (cli, "xor_expectation_classical", "exact.expectation", None),
        (cli, "xor_offset", "extractors.xor_offset",
         lambda a, k, r: {"extractors.bits_in": len(a[0]), "extractors.bits_out": len(r)}),
        (cli, "peres", "extractors.peres", lambda a, k, r: {
            "extractors.bits_in": r.consumed, "extractors.bits_out": len(r.bits),
            "extractors.peres.bits_in": r.consumed, "extractors.peres.bits_out": len(r.bits)}),
        (cli, "chi2_uniformity", "stats.chi2_uniformity", lambda a, k, r: {"stats.tests_run": 1}),
        (cli, "borel_normality", "stats.borel_normality",
         lambda a, k, r: {"stats.tests_run": len(r)}),
    ]
    for module, attr, name, count in wraps:
        tracer.wrap(module, attr, name, count)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass."""
    s = summarize(spans)
    total, own, layer, counts = s["total"], s["self"], s["layer"], s["counts"]
    wall = sum(v for k, v in total.items() if k.startswith("cli."))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}.s": t for name, t in total.items()}
    m["simulate.run_pipeline.self_s"] = own.get("simulate.run_pipeline", 0.0)
    for name in LAYERS:
        m[f"{name}.self_s"] = layer.get(name, 0.0)
        m[f"{name}.share"] = ratio(layer.get(name, 0.0), wall)
    m.update(counts)
    m["simulate.kept_frac"] = ratio(counts.get("simulate.records_kept", 0),
                                    counts.get("simulate.pairs_generated", 0))
    m["exact.terms_per_s"] = ratio(counts.get("exact.terms", 0), total.get("exact.xor_distribution", 0))
    m["extractors.peres.yield"] = ratio(counts.get("extractors.peres.bits_out", 0),
                                        counts.get("extractors.peres.bits_in", 0))
    m["trace.wall_s"] = wall
    return m


def run_traced(workload, seconds: float, work_dir: Path, tally: Tally, cli) -> dict:
    tracer = Tracer()
    # The first in-process pass is slower: it grows the heap that later passes
    # reuse. An untimed warm-up pass lets untraced and traced passes compare
    # like with like.
    inprocess_pass(workload, work_dir / "warmup", cli, tally, None)
    shutil.rmtree(work_dir / "warmup", ignore_errors=True)

    def untraced_then_traced(i):
        pass_dir = work_dir / f"pass{i}u"
        untraced = inprocess_pass(workload, pass_dir, cli, tally, None)
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir = work_dir / f"pass{i}t"
        first = len(tracer.spans)
        install_wraps(tracer)
        try:
            inprocess_pass(workload, pass_dir, cli, tally, tracer)
        finally:
            tracer.restore()
        shutil.rmtree(pass_dir, ignore_errors=True)
        for span in tracer.spans[first:]:
            span["pass"] = i
        return untraced, layer_metrics(tracer.spans[first:])

    untraced, traced = zip(*repeat_for(seconds, untraced_then_traced))
    names = set().union(*traced)
    metrics = {k: statistics.median(p.get(k, 0.0) for p in traced) for k in names}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    spans_file = WORK / f"spans-{workload.name}.json"
    spans_file.write_text(json.dumps({"workload": workload.name, "spans": tracer.spans}) + "\n")
    return {"metrics": metrics, "passes": len(traced), "spans_file": spans_file}


def select(metrics: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, with their units; a metric not measured reads 0."""
    return {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec}


def report(workload, result: dict, spec: list[dict], tally: Tally, trace: bool) -> None:
    print(f"== {workload.name}: {result['passes']} pass(es), "
          f"failed_frac {tally.failed / tally.attempted:.4g} ({tally.failed}/{tally.attempted})")
    for name, seconds in result.get("commands", {}).items():
        print(f"  {name}_s {seconds:.4f} s")
    if trace:
        m = result["metrics"]
        for layer in LAYERS:
            print(f"  layer {layer:<10} self {m[f'{layer}.self_s']:9.4f} s  "
                  f"share {100 * m[f'{layer}.share']:5.1f}% of traced wall")
        print(f"  spans written to {result['spans_file'].relative_to(ROOT)}")
    for name, v in select(result["metrics"], spec).items():
        if v["value"] or not trace:  # layers a workload never reaches read 0; omit them here
            print(f"  {name} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    # on SIGTERM, unwind so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for a smoke run of the harness")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    cli = load_cli()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    tally = Tally()
    metrics = {}
    for name in names:
        workload = WORKLOADS[name](args.seed, args.tiny)
        work_dir = WORK / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        own = Tally()
        try:
            workload.prepare(work_dir)
            if args.trace:
                result = run_traced(workload, args.seconds, work_dir, own, cli)
            else:
                result = run_end_to_end(workload, args.seconds, work_dir, own)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        report(workload, result, spec, own, bool(args.trace))
        tally.attempted += own.attempted
        tally.failed += own.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in select(result["metrics"], spec).items()})

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
