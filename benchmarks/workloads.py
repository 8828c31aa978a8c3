"""The three benchmark workloads: the CLI invocations of one pass and their output checks.

Every workload uses the reference configuration (theta = pi/5, efficiencies
0.30, 0.33, 0.29, 0.30). A pass is the list of `Op`s a workload returns for a
fresh output directory; each op is one `qrngkit` invocation plus the check of
what it wrote. Checks compare against values the benchmark computes itself,
never against the bytes of the pair-stream file, whose format is expected to
change.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

THETA = math.pi / 5
EFFICIENCIES = (0.30, 0.33, 0.29, 0.30)  # e0_plus, e1_plus, e0_times, e1_times
REFERENCE_FLAGS = ["--theta", "pi/5", "--e", ",".join(f"{e:.2f}" for e in EFFICIENCIES)]

# tv_to_uniform of the exact grid at j >= 1, recorded from the enumeration
# engine as first benchmarked. A faster route for the same law must agree
# within EXACT_TV_TOL (absolute).
RECORDED_TV = {
    (10, 2): 0.002200305863619203,
    (12, 1): 0.002420961638273352,
    (9, 4): 0.0020774295483426573,
    (6, 7): 0.0015695875640649119,
    (3, 1): 0.0012144988656443423,
    (2, 2): 0.0008371149298467967,
}
EXACT_TV_TOL = 1e-11
FLOAT_TOL = 1e-12


class CheckError(Exception):
    """An invocation's output does not match what the benchmark expects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One CLI invocation: its subcommand, argv and output check."""

    command: str
    args: list[str]
    check: Callable[[str], None]  # receives the invocation's stdout


def _manifest_results(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["results"]


def read_bit_file(path: Path, packed: bool) -> np.ndarray:
    """Bits of a `#bits=<n>` file as a uint8 array, parsed independently of qrngkit."""
    head, _, payload = path.read_bytes().partition(b"\n")
    require(head.startswith(b"#bits="), f"{path}: no '#bits=' header")
    n = int(head[6:])
    if packed:
        require(len(payload) == (n + 7) // 8, f"{path}: packed payload length")
        return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")[:n]
    bits = np.frombuffer(payload.replace(b"\n", b""), dtype=np.uint8) - np.uint8(48)
    require(bits.size == n and (n == 0 or bits.max() <= 1), f"{path}: ascii payload")
    return bits


def product_law(n: int) -> np.ndarray:
    """Offset-0 XOR law p1^k p0^(n-k), from the pair weights of the reference config."""
    s, c = math.sin(THETA) ** 2, math.cos(THETA) ** 2
    e0p, e1p, e0t, e1t = EFFICIENCIES
    same = c * e0p * e0t + c * e1p * e1t
    diff = s * e0p * e1t + s * e1p * e0t
    p0, p1 = same / (same + diff), diff / (same + diff)
    ones = np.array([bin(i).count("1") for i in range(1 << n)])
    return p1 ** ones * p0 ** (n - ones)


class Pipeline:
    """simulate -> extract xor j=1 -> analyze -> extract peres (packed)."""

    name = "pipeline-1e6"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.pairs = 70_000 if tiny else 1_000_000  # >= 2^16 bits: 4 Borel reports
        self.work = self.pairs

    def prepare(self, work_dir: Path) -> None:
        from qrngkit.config import QrngConfig
        from qrngkit.simulate import run_pipeline

        cfg = QrngConfig(THETA, *EFFICIENCIES)
        stream = run_pipeline(self.pairs, cfg, self.seed).records
        self.kept = len(stream)
        self.xor_bits = stream.a[:-1] ^ stream.b[1:]

    def ops(self, d: Path) -> list[Op]:
        sim, xor, ana, per = d / "simulate", d / "xor", d / "analyze", d / "peres"

        def check_simulate(stdout):
            r = _manifest_results(sim)
            lost = r["dropped_undetected"] + r["dropped_dead_time"] + r["dropped_demon"]
            require(r["generated"] == self.pairs, "generated != pairs requested")
            require(r["kept"] + lost == r["generated"], "drop counters do not add up")
            require(r["kept"] == self.kept, "kept differs from run_pipeline in-process")
            require((sim / "stream.ndjson").stat().st_size > 0, "empty stream file")

        def check_xor(stdout):
            bits = read_bit_file(xor / "extracted.bits", packed=False)
            require(bits.size == self.kept - 1, "xor output is not kept - 1 bits")
            require(np.array_equal(bits, self.xor_bits), "xor bits != a[:-1] ^ b[1:]")

        def check_analyze(stdout):
            reports = json.loads((ana / "reports.json").read_text())
            chi2 = [r for r in reports if r["test"] == "chi2_uniformity"]
            borel = [r for r in reports if r["test"] == "borel_normality"]
            require(len(chi2) == 5 and len(borel) == 4 and len(reports) == 9, "report counts")
            require(all(0.0 <= r["p_value"] <= 1.0 for r in chi2), "chi2 p-value outside [0, 1]")
            require(all(r["p_value"] is None for r in borel), "borel report carries a p-value")
            require(all(r["sample_size"] == self.kept - 1 for r in reports), "sample size")

        def check_peres(stdout):
            r = _manifest_results(per)
            require(r["in"] == self.kept - 1, "peres input is not the xor output")
            require(r["in"] == r["out"] + r["discarded"], "peres in != out + discarded")
            bits = read_bit_file(per / "extracted.bits", packed=True)
            require(bits.size == r["out"], "peres file length != manifest out")

        bits = str(xor / "extracted.bits")
        return [
            Op("simulate", ["simulate", "--pairs", str(self.pairs), "--seed", str(self.seed),
                            *REFERENCE_FLAGS, "--out-dir", str(sim)], check_simulate),
            Op("extract", ["extract", "--method", "xor", "--j", "1",
                           "--stream", str(sim / "stream.ndjson"), "--out-dir", str(xor)], check_xor),
            Op("analyze", ["analyze", "--in", bits, "--out-dir", str(ana)], check_analyze),
            Op("extract", ["extract", "--method", "peres", "--in", bits, "--format", "packed",
                           "--out-dir", str(per)], check_peres),
        ]


class SweepImperfect:
    """One sweep over 9 angles with every imperfection of the simulator switched on."""

    name = "sweep-imperfect"
    points = 9

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.pairs = 2_000 if tiny else 1_000_000
        self.work = self.points * self.pairs

    def prepare(self, work_dir: Path) -> None:
        self.config = work_dir / "imperfect.json"
        e0p, e1p, e0t, e1t = EFFICIENCIES
        self.config.write_text(json.dumps({
            "theta": THETA, "e0_plus": e0p, "e1_plus": e1p, "e0_times": e0t, "e1_times": e1t,
            "drift": {"amplitudes": [0.02] * 4, "period": 1000.0},
            "double_count_prob": 0.01, "dead_time_Td": 0.3, "demon_rho": 0.5,
        }))

    def ops(self, d: Path) -> list[Op]:
        out = d / "sweep"

        def check_sweep(stdout):
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            require(rows[0] == ["theta", "expectation_quantum", "expectation_classical",
                                "expectation_empirical"], "sweep.csv header")
            require(len(rows) == 1 + self.points, "sweep.csv row count")
            for i, row in enumerate(rows[1:]):
                theta, quantum, classical, empirical = map(float, row)
                expected = i * (math.pi / 2) / (self.points - 1)
                require(abs(theta - expected) <= FLOAT_TOL, f"theta of row {i}")
                require(abs(quantum - math.cos(theta) ** 2) <= FLOAT_TOL, f"quantum at row {i}")
                require(abs(classical - (1 - 2 * theta / math.pi)) <= FLOAT_TOL,
                        f"classical at row {i}")
                require(0.0 <= empirical <= 1.0, f"empirical outside [0, 1] at row {i}")

        return [Op("sweep", ["sweep", "--grid", f"0:pi/2:{self.points}",
                             "--empirical", str(self.pairs), "--seed", str(self.seed),
                             "--config", str(self.config), "--out-dir", str(out)], check_sweep)]


class ExactGrid:
    """`exact --tv` over a fixed (n, j) grid at m = n + j of 12 and 13. Ignores the seed."""

    name = "exact-grid"

    def __init__(self, seed: int, tiny: bool):
        self.grid = [(4, 0), (3, 1), (2, 2)] if tiny else [(12, 0), (10, 2), (12, 1), (9, 4), (6, 7)]
        self.work = sum(4 ** (n + j) for n, j in self.grid)

    def prepare(self, work_dir: Path) -> None:
        pass

    def ops(self, d: Path) -> list[Op]:
        return [self._op(d / f"n{n}-j{j}", n, j) for n, j in self.grid]

    def _op(self, out: Path, n: int, j: int) -> Op:
        def check_exact(stdout):
            tv_lines = [line for line in stdout.splitlines() if line.startswith("tv_to_uniform ")]
            require(len(tv_lines) == 1, "no tv_to_uniform line")
            tv = float(tv_lines[0].split()[1])
            with open(out / "distribution.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            require([int(r[0]) for r in rows] == list(range(1 << n)), "distribution index column")
            probs = np.array([float(r[2]) for r in rows])
            require(abs(math.fsum(probs) - 1.0) <= FLOAT_TOL, f"law ({n},{j}) does not sum to 1")
            if j == 0:
                law = product_law(n)
                require(np.all(np.abs(probs - law) <= FLOAT_TOL * law), "j=0 law != product law")
                expected_tv = 0.5 * math.fsum(np.abs(law - 1.0 / (1 << n)))
            else:
                expected_tv = RECORDED_TV[(n, j)]
            require(abs(tv - expected_tv) <= EXACT_TV_TOL, f"tv_to_uniform at ({n},{j})")

        return Op("exact", ["exact", "--n", str(n), "--j", str(j), "--tv", "--max-bits", "13",
                            *REFERENCE_FLAGS, "--out-dir", str(out)], check_exact)


WORKLOADS = {w.name: w for w in (Pipeline, SweepImperfect, ExactGrid)}
