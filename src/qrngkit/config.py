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
import sys
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
        if not all(map(math.isfinite, (*self.amplitudes, *self.phases, self.period))):
            raise UsageError("drift amplitudes, phases and period must be finite")
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
        # Each cell weight has one plus and one times efficiency as factors; below the
        # normal floats it loses its digits or reaches zero, and sampler and laws go wrong.
        amplitudes = self.drift.amplitudes if self.drift is not None else (0.0,) * 4
        troughs = [e - a for e, a in zip(self.efficiencies, amplitudes)]
        for plus, ep in zip(DETECTOR_NAMES[:2], troughs[:2]):
            for times, et in zip(DETECTOR_NAMES[2:], troughs[2:]):
                if ep * et < sys.float_info.min:
                    raise UsageError(f"{plus} * {times} = {ep} * {et} at its lowest is "
                                     "below the smallest normal float")
        if not 0 <= self.dead_time_Td < math.inf:  # NaN included
            raise UsageError("dead_time_Td must be non-negative and finite")
        if not 0 < self.mean_pair_interval < math.inf:
            raise UsageError("mean_pair_interval must be positive and finite")
        if not 0.0 <= self.double_count_prob <= 1.0:
            raise UsageError("double_count_prob must lie in [0, 1]")
        _check_demon_floor(self.demon_rho)

    @property
    def efficiencies(self) -> tuple[float, float, float, float]:
        return (self.e0_plus, self.e1_plus, self.e0_times, self.e1_times)

    def efficiency_columns(self, t) -> tuple:
        """The four efficiencies at time(s) ``t``: the plain floats of `efficiencies`
        without drift, else arrays shaped like ``t``, one shared by the detectors of each
        (e, A, phase). A drift phase that overflows a float at some time raises UsageError."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            columns = self._efficiencies_at(t)
        if not all(np.isfinite(e).all() for e in columns):  # sin(inf) is NaN
            raise UsageError(f"drift period {self.drift.period} is too short: the drift "
                             "phase 2*pi*t/period overflows a float")
        return columns

    def _efficiencies_at(self, t) -> tuple:
        """`efficiency_columns` unrefused, for times already checked at a bound."""
        if self.drift is None:
            return self.efficiencies
        angle = np.multiply(t, 2.0 * math.pi, out=np.empty(np.shape(t)))  # 0-d for a scalar
        angle /= self.drift.period
        # a zero phase is not added: that changes only an angle of -0.0, to the same efficiency
        sines = {p: np.sin(angle + p if p else angle) for p in set(self.drift.phases)}
        detectors = list(zip(self.efficiencies, self.drift.amplitudes, self.drift.phases))
        columns = {(e, a, p): sines[p] * a + e for e, a, p in set(detectors)}
        return tuple(columns[d] for d in detectors)

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
        except (ValueError, RecursionError) as exc:  # bad bytes, bad or too deep JSON, bad fields
            raise InputFormatError(f"config file {path}: {exc}") from None


def _check_demon_floor(rho: float | None):
    """The one check of a demon efficiency floor, demon_rho's and `demon_modulus`'s."""
    if rho is not None and not 0.0 < rho < 1.0:
        raise UsageError(f"demon efficiency floor rho must lie strictly between 0 and 1, got {rho}")


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
