"""Experiment configuration for the pair source and its imperfections.

QrngConfig collects everything the exact engine and the simulator need: the
relative analyzer angle theta, the four detector efficiency weights (order
e0_plus, e1_plus, e0_times, e1_times throughout the package), optional
sinusoidal efficiency drift, dead time, pair rate, double-counting
probability and the adversarial efficiency bound. Configs are immutable and
round-trip through plain JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import InputFormatError, UsageError

__all__ = ["DriftSpec", "QrngConfig", "DETECTOR_NAMES"]

DETECTOR_NAMES = ("e0_plus", "e1_plus", "e0_times", "e1_times")


@dataclass(frozen=True)
class DriftSpec:
    """Sinusoidal per-detector efficiency drift.

    Each detector's efficiency follows e(t) = e + A * sin(2*pi*t/period + phase)
    with its own amplitude A (efficiency units) and phase (radians); the period
    (seconds) is shared. Amplitudes of zero switch a detector's drift off.
    """

    amplitudes: tuple[float, float, float, float]
    period: float
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if len(self.amplitudes) != 4 or len(self.phases) != 4:
            raise UsageError("drift amplitudes and phases must have one entry per detector")
        if any(a < 0 for a in self.amplitudes):
            raise UsageError("drift amplitudes must be non-negative")
        if not self.period > 0:
            raise UsageError("drift period must be positive")


@dataclass(frozen=True)
class QrngConfig:
    theta: float = math.pi / 4
    e0_plus: float = 1.0
    e1_plus: float = 1.0
    e0_times: float = 1.0
    e1_times: float = 1.0
    drift: DriftSpec | None = None
    dead_time_Td: float = 0.0
    mean_pair_interval: float = 1.0
    double_count_prob: float = 0.0
    demon_rho: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise UsageError(f"theta must lie in [0, pi/2], got {self.theta}")
        for name, e in zip(DETECTOR_NAMES, self.efficiencies):
            if not 0.0 < e <= 1.0:
                raise UsageError(f"{name} must lie in (0, 1], got {e}")
        if self.drift is not None:
            for name, e, a in zip(DETECTOR_NAMES, self.efficiencies, self.drift.amplitudes):
                # Keep e(t) inside (0, 1] for every phase of the sinusoid.
                if a >= e:
                    raise UsageError(f"drift amplitude {a} on {name} reaches zero efficiency")
                if e + a > 1.0:
                    raise UsageError(f"drift amplitude {a} on {name} exceeds unit efficiency")
        if not self.dead_time_Td >= 0:  # NaN included
            raise UsageError("dead_time_Td must be >= 0")
        if not 0 < self.mean_pair_interval < math.inf:
            raise UsageError("mean_pair_interval must be positive and finite")
        if not 0.0 <= self.double_count_prob <= 1.0:
            raise UsageError("double_count_prob must lie in [0, 1]")
        if self.demon_rho is not None and not 0.0 < self.demon_rho < 1.0:
            raise UsageError("demon_rho must lie strictly between 0 and 1")

    @property
    def efficiencies(self) -> tuple[float, float, float, float]:
        return (self.e0_plus, self.e1_plus, self.e0_times, self.e1_times)

    def efficiency_columns(self, t) -> tuple:
        """The four efficiencies at time(s) ``t``: the plain floats of `efficiencies`
        without drift, else one array shaped like ``t`` per detector."""
        if self.drift is None:
            return self.efficiencies
        angle = 2.0 * math.pi * np.asarray(t, dtype=np.float64) / self.drift.period
        # one sin per distinct phase (by default all four are 0)
        sines = {p: np.sin(angle + p) for p in set(self.drift.phases)}
        return tuple(
            e + a * sines[p]
            for e, a, p in zip(self.efficiencies, self.drift.amplitudes, self.drift.phases)
        )

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "QrngConfig":
        """Config from plain JSON material.

        A field that is not a finite number (or null where allowed) raises
        InputFormatError; a number out of range raises UsageError.
        """
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {
            key: _number(value, key)
            for key, value in d.items()
            if key != "drift" and not (key == "demon_rho" and value is None)
        }
        drift = d.get("drift")
        if drift is not None:
            if not isinstance(drift, dict) or set(drift) - {"amplitudes", "period", "phases"}:
                raise InputFormatError("drift must be an object with amplitudes/period[/phases]")
            try:
                kwargs["drift"] = DriftSpec(
                    amplitudes=_four_numbers(drift["amplitudes"], "drift amplitudes"),
                    period=_number(drift["period"], "drift period"),
                    phases=_four_numbers(drift.get("phases", [0.0] * 4), "drift phases"),
                )
            except KeyError as exc:
                raise InputFormatError(f"drift spec missing key {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "QrngConfig":
        """Config from a JSON file; any defect in the file raises InputFormatError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                raise InputFormatError("expected a JSON object")
            return cls.from_dict(data)
        except ValueError as exc:  # bad bytes, bad JSON, bad or out-of-range fields
            raise InputFormatError(f"config file {path}: {exc}") from None


def _number(value, name: str):
    """``value`` if it is a finite JSON number (a bool is not one)."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and -math.inf < value < math.inf):
        raise InputFormatError(f"{name} must be a finite number, got {value!r}")
    return value


def _four_numbers(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)) or len(values) != 4:
        raise InputFormatError(f"{name} must be a list of four numbers, got {values!r}")
    return tuple(_number(v, name) for v in values)
