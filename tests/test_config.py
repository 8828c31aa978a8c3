import json
import math

import numpy as np
import pytest

from helpers import BAD_CONFIG_TEXTS
from qrngkit import DriftSpec, InputFormatError, QrngConfig, UsageError


def test_defaults():
    cfg = QrngConfig()
    assert cfg.theta == pytest.approx(math.pi / 4)
    assert cfg.efficiencies == (1.0, 1.0, 1.0, 1.0)
    assert cfg.drift is None
    assert cfg.demon_rho is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta": -0.1},
        {"theta": math.pi / 2 + 0.01},
        {"e0_plus": 0.0},
        {"e1_times": 1.2},
        {"dead_time_Td": -1.0},
        {"mean_pair_interval": 0.0},
        {"double_count_prob": 1.5},
        {"demon_rho": 0.0},
        {"demon_rho": 1.0},
        {"dead_time_Td": math.nan},
        {"mean_pair_interval": math.inf},
    ],
)
def test_rejects_out_of_range_fields(kwargs):
    with pytest.raises(UsageError):
        QrngConfig(**kwargs)


def test_drift_spec_validation():
    DriftSpec(amplitudes=(0.1, 0, 0, 0), period=10.0)
    with pytest.raises(UsageError):
        DriftSpec(amplitudes=(0.1, 0, 0), period=10.0)
    with pytest.raises(UsageError):
        DriftSpec(amplitudes=(-0.1, 0, 0, 0), period=10.0)
    with pytest.raises(UsageError):
        DriftSpec(amplitudes=(0.1, 0, 0, 0), period=0.0)


def test_drift_must_keep_efficiencies_in_range():
    # amplitude reaching zero efficiency or pushing past 1 is rejected up front
    with pytest.raises(UsageError):
        QrngConfig(e0_plus=0.1, drift=DriftSpec(amplitudes=(0.1, 0, 0, 0), period=5.0))
    with pytest.raises(UsageError):
        QrngConfig(e0_plus=0.95, drift=DriftSpec(amplitudes=(0.1, 0, 0, 0), period=5.0))
    QrngConfig(e0_plus=0.5, drift=DriftSpec(amplitudes=(0.1, 0, 0, 0), period=5.0))


def test_efficiencies_at_without_drift_broadcasts():
    # plain floats broadcast against any t
    cfg = QrngConfig(e0_plus=0.3, e1_plus=0.4, e0_times=0.5, e1_times=0.6)
    assert cfg.efficiency_columns(np.array([0.0, 7.5, 123.0])) == (0.3, 0.4, 0.5, 0.6)


def test_efficiencies_at_applies_sinusoid():
    drift = DriftSpec(amplitudes=(0.2, 0.0, 0.0, 0.0), period=8.0, phases=(0.0,) * 4)
    cfg = QrngConfig(e0_plus=0.5, drift=drift)
    e0p, *rest = cfg.efficiency_columns(np.array([0.0, 2.0, 4.0, 6.0]))
    assert e0p == pytest.approx([0.5, 0.7, 0.5, 0.3])
    assert np.all(np.array(rest) == 1.0)


def test_efficiencies_at_honours_phase():
    drift = DriftSpec(
        amplitudes=(0.0, 0.0, 0.2, 0.0), period=8.0, phases=(0.0, 0.0, math.pi / 2, 0.0)
    )
    cfg = QrngConfig(e0_times=0.5, drift=drift)
    assert cfg.efficiency_columns(np.array([0.0]))[2][0] == pytest.approx(0.7)


@pytest.mark.parametrize("phases", [(0.0,) * 4, (0.5, 0.5, 1.0, 0.5), (3.0, 2.0, 1.0, 0.25)])
def test_efficiencies_at_equals_the_per_column_sinusoid(phases):
    # one sin per distinct phase gives the same floats as one per column
    drift = DriftSpec(amplitudes=(0.02, 0.01, 0.03, 0.0), period=37.0, phases=phases)
    cfg = QrngConfig(e0_plus=0.3, e1_plus=0.33, e0_times=0.29, e1_times=0.3, drift=drift)
    t = np.cumsum(np.random.default_rng(5).exponential(1.0, 1000))[:, None]
    expected = np.asarray(cfg.efficiencies) + np.asarray(drift.amplitudes) * np.sin(
        2.0 * math.pi * t / drift.period + np.asarray(phases)
    )
    assert np.array_equal(np.stack(cfg.efficiency_columns(t[:, 0]), axis=-1), expected)
    at_scalar = np.stack(cfg.efficiency_columns(7.5))
    assert np.array_equal(at_scalar, np.stack(cfg.efficiency_columns(np.array([7.5])))[:, 0])


def test_dict_round_trip_with_drift():
    cfg = QrngConfig(
        theta=0.4,
        e0_plus=0.8,
        drift=DriftSpec(amplitudes=(0.1, 0, 0, 0), period=50.0, phases=(1.0, 0, 0, 0)),
        dead_time_Td=2e-6,
        demon_rho=0.5,
    )
    again = QrngConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # and the dict itself is plain JSON material
    json.dumps(cfg.to_dict())


def test_config_json_text_is_pinned():
    # manifests embed this text, so its bytes are part of the determinism contract
    drift = DriftSpec(amplitudes=(0.05, 0.02, 0.03, 0.04), period=50.0, phases=(0.0, 1.0, 0.0, 2.0))
    cfg = QrngConfig(0.6, 0.8, 0.85, 0.78, 0.82, drift=drift, dead_time_Td=0.3,
                     double_count_prob=0.05, demon_rho=0.6)
    assert json.dumps(cfg.to_dict(), sort_keys=True) == (
        '{"dead_time_Td": 0.3, "demon_rho": 0.6, "double_count_prob": 0.05, "drift": '
        '{"amplitudes": [0.05, 0.02, 0.03, 0.04], "period": 50.0, "phases": [0.0, 1.0, 0.0, 2.0]}, '
        '"e0_plus": 0.8, "e0_times": 0.78, "e1_plus": 0.85, "e1_times": 0.82, '
        '"mean_pair_interval": 1.0, "theta": 0.6}'
    )


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(InputFormatError):
        QrngConfig.from_dict({"theta": 0.2, "efficiency": 0.5})


def test_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta": 0.25, "e0_plus": 0.9}))
    cfg = QrngConfig.from_json(path)
    assert cfg.theta == 0.25
    assert cfg.e0_plus == 0.9
    path.write_text("{not json")
    with pytest.raises(InputFormatError):
        QrngConfig.from_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(InputFormatError):
        QrngConfig.from_json(path)
    for text in BAD_CONFIG_TEXTS:
        path.write_bytes(text)
        with pytest.raises(InputFormatError):
            QrngConfig.from_json(path)
