"""Closed-loop surrogate: equilibrium, faults, excitation, invariants."""

import dataclasses

import numpy as np
import pytest

from fddkit.errors import ConfigError, NumericDivergenceError
from fddkit.plant import (DIVERGENCE_LIMIT, FaultSpec, FaultState,
                          INCIPIENT_CLASSES, ScenarioDataset, _prbs_injection,
                          apply_fault, default_fault_library, default_plant,
                          equilibrium, simulate_scenario)
from fddkit.prbs import BandSpec, plan_from_band


def quiet_plant(seed=0):
    p = default_plant(seed=seed)
    return dataclasses.replace(p, noise_std=np.zeros(8))


def steady_state_records(plant, sensor_step=None, actuator_step=None):
    """Expected late-sample record row under integral control.

    Controlled measurements settle on their set-points, so the true
    controlled states absorb any sensor bias and the commands absorb any
    actuator bias. Solves the 2x2 steady-state system directly.
    """
    n = plant.a.shape[0]
    inv = np.linalg.inv(np.eye(n) - plant.a)
    ctrl = list(plant.controlled)
    g = plant.c[ctrl] @ inv @ plant.b
    target = np.asarray(plant.setpoints, dtype=np.float64).copy()
    if sensor_step is not None:
        ch, d = sensor_step
        if ch in ctrl:
            target[ctrl.index(ch)] -= d
    u_eff = np.linalg.solve(g, target)
    u_cmd = u_eff.copy()
    if actuator_step is not None:
        loop, d = actuator_step
        u_cmd[loop] -= d
    x = inv @ plant.b @ u_eff
    y = plant.c @ x
    if sensor_step is not None:
        ch, d = sensor_step
        y[ch] += d
    return np.concatenate([y, u_cmd])


def test_equilibrium_is_exact():
    p = quiet_plant()
    x_star, u_star = equilibrium(p)
    np.testing.assert_allclose(p.a @ x_star + p.b @ u_star, x_star,
                               atol=1e-12)
    y = p.c @ x_star
    assert y[0] == pytest.approx(p.setpoints[0], abs=1e-10)
    assert y[1] == pytest.approx(p.setpoints[1], abs=1e-10)


def test_noise_free_run_has_no_transient():
    ds = simulate_scenario(quiet_plant(), horizon=50)
    np.testing.assert_allclose(
        ds.records, np.broadcast_to(ds.records[0], ds.records.shape),
        atol=1e-9)
    assert ds.n_outputs == 8
    assert ds.n_loops == 2


def test_sensor_step_on_free_channel_shows_full_magnitude():
    p = quiet_plant()
    fault = FaultSpec("step", target=2, magnitude=0.7, onset=5)
    ds = simulate_scenario(p, fault=fault, horizon=120)
    expect = steady_state_records(p, sensor_step=(2, 0.7))
    np.testing.assert_allclose(ds.records[-1], expect, atol=1e-8)
    assert ds.records[-1, 2] - ds.records[0, 2] == pytest.approx(0.7)


def test_sensor_step_on_controlled_channel_is_masked():
    p = quiet_plant()
    fault = FaultSpec("step", target=0, magnitude=0.5, onset=5)
    ds = simulate_scenario(p, fault=fault, horizon=400)
    expect = steady_state_records(p, sensor_step=(0, 0.5))
    np.testing.assert_allclose(ds.records[-1], expect, atol=1e-6)
    # the corrupted measurement is pulled back to set-point: invisible
    assert ds.records[-1, 0] == pytest.approx(p.setpoints[0], abs=1e-6)
    # but the true state moved, so coupled sensors drift off baseline
    coupled_shift = np.abs(ds.records[-1, 2:8] - ds.records[0, 2:8])
    assert coupled_shift.max() > 0.05


def test_actuator_step_is_rejected_and_logged_in_command():
    p = quiet_plant()
    fault = FaultSpec("step", target=0, magnitude=0.4, onset=5,
                      site="actuator")
    ds = simulate_scenario(p, fault=fault, horizon=400)
    expect = steady_state_records(p, actuator_step=(0, 0.4))
    np.testing.assert_allclose(ds.records[-1], expect, atol=1e-6)
    assert ds.records[-1, 8] - ds.records[0, 8] == pytest.approx(-0.4,
                                                                 abs=1e-6)


def test_slow_drift_grows_linearly():
    p = quiet_plant()
    fault = FaultSpec("slow_drift", target=5, slope=0.01, onset=30)
    ds = simulate_scenario(p, fault=fault, horizon=60)
    base = ds.records[0, 5]
    assert ds.records[29, 5] == pytest.approx(base)
    assert ds.records[40, 5] - base == pytest.approx(0.01 * 10)
    assert ds.records[59, 5] - base == pytest.approx(0.01 * 29)


def test_zero_magnitude_fault_leaves_records_untouched():
    p = default_plant(seed=4)
    fault = FaultSpec("step", target=3, magnitude=0.0, onset=10)
    faulty = simulate_scenario(p, fault=fault, horizon=200)
    normal = simulate_scenario(default_plant(seed=4), horizon=200)
    assert faulty.records.tobytes() == normal.records.tobytes()
    assert faulty.labels[10:].min() == fault.fault_class


def test_stiction_hand_trace():
    spec = FaultSpec("stiction", target=0, deadband=0.5, onset=2)
    state = FaultState(rng=np.random.default_rng(0))
    commands = [1.0, 1.0, 1.2, 1.3, 1.7, 1.1]
    got = [apply_fault(v, t, spec, state) for t, v in enumerate(commands)]
    # sticks at the pre-onset mean 1.0, slips only past the deadband
    assert got == [1.0, 1.0, 1.0, 1.0, 1.7, 1.1]


def test_stiction_sticks_at_pre_onset_mean():
    spec = FaultSpec("stiction", target=0, deadband=10.0, onset=4)
    state = FaultState(rng=np.random.default_rng(0))
    commands = [2.0, 4.0, 6.0, 8.0, 5.5, 9.9]
    got = [apply_fault(v, t, spec, state) for t, v in enumerate(commands)]
    assert got[:4] == commands[:4]
    assert got[4:] == [5.0, 5.0]


def test_label_integrity():
    fault = FaultSpec("step", target=2, magnitude=1.0, onset=100,
                      fault_class=7)
    ds = simulate_scenario(default_plant(seed=1), fault=fault, horizon=300)
    assert ds.labels[:100].tolist() == [0] * 100
    assert ds.labels[100:].tolist() == [7] * 200


def test_runs_are_deterministic():
    a = simulate_scenario(default_plant(seed=9), horizon=250)
    b = simulate_scenario(default_plant(seed=9), horizon=250)
    c = simulate_scenario(default_plant(seed=10), horizon=250)
    assert a.records.tobytes() == b.records.tobytes()
    assert a.records.tobytes() != c.records.tobytes()


def test_divergence_error_names_the_sample():
    # The actuator step reaches the records through the state, one sample
    # after its onset; the sensor step shows at its onset.
    cases = [
        (FaultSpec("step", target=0, magnitude=5e7, onset=10,
                   site="actuator"), 11),
        (FaultSpec("step", target=2, magnitude=1e300, onset=10), 10),
    ]
    for fault, sample in cases:
        with pytest.raises(NumericDivergenceError,
                           match=rf"^simulation diverged at sample {sample}$"):
            simulate_scenario(default_plant(seed=0), fault=fault,
                              horizon=100)


@pytest.mark.filterwarnings("error")
def test_a_run_that_overflows_to_inf_raises_the_same_error_quietly():
    # Proportional gains this high make the closed loop unstable: the
    # records pass the limit at sample 6 and overflow to inf and NaN long
    # before sample 5000, and no floating-point warning escapes the run.
    plant = dataclasses.replace(default_plant(seed=0), kp=(40.0, 40.0))
    with pytest.raises(NumericDivergenceError,
                       match=r"^simulation diverged at sample 6$"):
        simulate_scenario(plant, horizon=5000)


def default_excitation(amplitude=0.4, target="loop1"):
    band = BandSpec(0.000278, 2.8 / 360.0 * 0.999,
                    omega_nyquist=np.pi / 180.0)
    return plan_from_band(band, 180.0, amplitude=amplitude, target=target)


def reference_simulate_scenario(plant, fault=None, prbs=None, horizon=500):
    """The per-sample loop simulate_scenario replaced, kept as written.

    Its PI law runs on numpy scalars and it checks for divergence at
    every sample; the records and labels must match it byte for byte.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if fault is not None:
        n = plant.n_outputs if fault.site == "sensor" else plant.n_loops
        if not 0 <= fault.target < n:
            raise ConfigError(f"fault target {fault.target} outside the "
                              f"{fault.site} indices [0, {n})")
    x, u_star = equilibrium(plant)
    x = x.copy()
    n_y, n_u = plant.n_outputs, plant.n_loops
    integ = u_star / np.asarray(plant.ki, dtype=np.float64)
    noise_rng = np.random.default_rng([plant.seed, 0])
    noise = noise_rng.normal(0.0, 1.0, size=(horizon, n_y)) * plant.noise_std
    fstate = FaultState(rng=np.random.default_rng([plant.seed, 1]))
    offsets = _prbs_injection(plant, prbs, horizon)

    records = np.empty((horizon, n_y + n_u))
    labels = np.zeros(horizon, dtype=np.int64)
    u_cmd = np.empty(n_u)
    ctrl = list(plant.controlled)
    for t in range(horizon):
        y = plant.c @ x + noise[t]
        if fault is not None and fault.site == "sensor":
            y[fault.target] = apply_fault(y[fault.target], t, fault, fstate)
        for j in range(n_u):
            err = plant.setpoints[j] + offsets[t, j] - y[ctrl[j]]
            integ[j] += err
            u_cmd[j] = plant.kp[j] * err + plant.ki[j] * integ[j]
        u_eff = u_cmd.copy()
        if fault is not None and fault.site == "actuator":
            u_eff[fault.target] = apply_fault(u_cmd[fault.target], t, fault,
                                              fstate)
        records[t, :n_y] = y
        records[t, n_y:] = u_cmd
        if fault is not None and t >= fault.onset:
            labels[t] = fault.fault_class
        if np.max(np.abs(records[t])) > DIVERGENCE_LIMIT:
            raise NumericDivergenceError(
                f"simulation diverged at sample {t}")
        x = plant.a @ x + plant.b @ u_eff
    return ScenarioDataset(records, labels, n_u)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("probed", [False, True])
def test_records_match_the_reference_loop_byte_for_byte(seed, probed):
    plan = default_excitation() if probed else None
    faults = [None] + [spec for _, spec in
                       sorted(default_fault_library().items())]
    for fault in faults:
        got, want = (sim(default_plant(seed=seed), fault=fault, prbs=plan,
                         horizon=500)
                     for sim in (simulate_scenario,
                                 reference_simulate_scenario))
        assert got.records.tobytes() == want.records.tobytes(), fault
        assert got.labels.tobytes() == want.labels.tobytes(), fault
        assert got.records.shape == want.records.shape
        assert got.labels.dtype == want.labels.dtype


def test_a_plan_built_with_the_defaults_probes_loop1():
    band = BandSpec(0.000278, 2.8 / 360.0 * 0.999,
                    omega_nyquist=np.pi / 180.0)
    plan = plan_from_band(band, 180.0, amplitude=0.4)
    assert plan.target == "loop1"
    fault = default_fault_library()[3]
    got, want = (simulate_scenario(default_plant(seed=2), fault=fault,
                                   prbs=p, horizon=200)
                 for p in (plan, default_excitation(target="loop1")))
    assert got.records.tobytes() == want.records.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_superposition_for_additive_faults():
    """Linear plant + additive fault: excitation response is identical
    with and without the fault, so excitation alone cannot help."""
    plan = default_excitation()
    fault = FaultSpec("step", target=4, magnitude=0.8, onset=60)
    quiet_f = simulate_scenario(default_plant(seed=3), fault=fault)
    quiet_n = simulate_scenario(default_plant(seed=3))
    loud_f = simulate_scenario(default_plant(seed=3), fault=fault, prbs=plan)
    loud_n = simulate_scenario(default_plant(seed=3), prbs=plan)
    lhs = loud_f.records - loud_n.records
    rhs = quiet_f.records - quiet_n.records
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_stiction_breaks_superposition():
    plan = default_excitation()
    fault = default_fault_library(onset=60)[11]
    quiet_f = simulate_scenario(default_plant(seed=3), fault=fault)
    quiet_n = simulate_scenario(default_plant(seed=3))
    loud_f = simulate_scenario(default_plant(seed=3), fault=fault, prbs=plan)
    loud_n = simulate_scenario(default_plant(seed=3), prbs=plan)
    lhs = loud_f.records - loud_n.records
    rhs = quiet_f.records - quiet_n.records
    assert np.max(np.abs(lhs - rhs)) > 0.1


def test_prbs_targets_the_named_loop():
    plan = default_excitation(target="loop0")
    quiet = simulate_scenario(quiet_plant(), horizon=200)
    loud = simulate_scenario(quiet_plant(), prbs=plan, horizon=200)
    assert np.abs(loud.records[:, 0] - quiet.records[:, 0]).max() > 0.1
    with pytest.raises(ConfigError):
        simulate_scenario(quiet_plant(),
                          prbs=default_excitation(target="loop7"),
                          horizon=10)


def test_incipient_analogs_stay_under_unit_snr():
    lib = default_fault_library(onset=100)
    # per sensor, past the onset: the shift of the mean over the normal
    # run's spread, a spread of zero counting as one
    normal = simulate_scenario(default_plant(seed=0), horizon=500)
    n = normal.records[100:, :8]
    spread = n.std(axis=0)
    spread = np.where(spread <= 1e-12, 1.0, spread)
    quiet_count = 0
    for cls, spec in sorted(lib.items()):
        ds = simulate_scenario(default_plant(seed=0), fault=spec,
                               horizon=500)
        f = ds.records[100:, :8]
        snr = np.abs(f.mean(axis=0) - n.mean(axis=0)) / spread
        if np.max(snr) < 1.0:
            quiet_count += 1
        if cls in INCIPIENT_CLASSES:
            assert np.max(snr) < 1.0, f"class {cls} too loud: {snr}"
    assert quiet_count >= 3


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec("melt", target=0)
    with pytest.raises(ConfigError):
        FaultSpec("step", target=0, site="pipe")
    with pytest.raises(ConfigError):
        FaultSpec("step", target=0, onset=-1)
    spec = FaultSpec("stiction", target=1, site="sensor")
    assert spec.site == "actuator"


def test_plant_validation_rejects_unstable_dynamics():
    p = default_plant()
    with pytest.raises(ConfigError):
        dataclasses.replace(p, a=np.eye(4) * 1.01)
