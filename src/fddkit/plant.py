"""Desk-scale closed-loop plant surrogate.

A small linear discrete-time process under per-loop PI control, with
Gaussian sensor noise, a four-kind fault library (step, random variation,
slow drift, valve stiction), and a set-point hook for PRBS injection.
Records hold the measured outputs followed by the commanded manipulated
variables, one row per sample, so a sticky valve's true position never
appears directly in the data.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, NumericDivergenceError
from .prbs import prbs_waveform, schedule_injection

DIVERGENCE_LIMIT = 1e6

FAULT_KINDS = ("step", "random_variation", "slow_drift", "stiction")


@dataclass
class PlantConfig:
    a: np.ndarray                 # state transition, spectral radius < 1
    b: np.ndarray                 # input map, one column per actuator
    c: np.ndarray                 # output map, one row per sensor
    controlled: tuple             # sensor index regulated by each loop
    setpoints: tuple              # one per loop
    setpoint_ranges: tuple        # operating range per loop, for amplitudes
    kp: tuple
    ki: tuple
    noise_std: np.ndarray         # per sensor
    t_s: float = 180.0
    seed: int = 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.noise_std = np.asarray(self.noise_std, dtype=np.float64)
        if not self.t_s > 0:
            raise ConfigError(f"sample time t_s must be positive, not "
                              f"{self.t_s}")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionError("state matrix must be square")
        if np.max(np.abs(np.linalg.eigvals(self.a))) >= 1.0:
            raise ConfigError("open-loop state matrix is not stable")
        if self.b.ndim != 2 or self.c.ndim != 2 \
                or self.b.shape[0] != n or self.c.shape[1] != n:
            raise DimensionError("input/output maps do not match the state size")
        n_u = self.b.shape[1]
        if not (len(self.controlled) == len(self.setpoints) == len(self.kp)
                == len(self.ki) == len(self.setpoint_ranges) == n_u):
            raise DimensionError("need one loop definition per actuator")
        n_y = self.c.shape[0]
        if any(not 0 <= k < n_y for k in self.controlled):
            raise ConfigError(f"controlled sensor indices "
                              f"{list(self.controlled)} outside [0, {n_y})")
        if self.noise_std.shape != (n_y,):
            raise DimensionError("need one noise std per sensor")
        if np.any(self.noise_std < 0):
            raise ConfigError("noise stds must be nonnegative")
        # records past DIVERGENCE_LIMIT count as divergence, so inputs
        # that alone exceed it are a config fault, not a numeric one
        if np.any(self.noise_std > DIVERGENCE_LIMIT):
            raise ConfigError(f"noise stds must be at most "
                              f"{DIVERGENCE_LIMIT:g}")
        if np.any(np.abs(np.asarray(self.setpoints, dtype=np.float64))
                  > DIVERGENCE_LIMIT):
            raise ConfigError(f"set-points must lie within "
                              f"+-{DIVERGENCE_LIMIT:g}")
        if any(k <= 0 for k in self.ki):
            raise ConfigError("integral gains must be positive")

    @property
    def n_outputs(self):
        return self.c.shape[0]

    @property
    def n_loops(self):
        return self.b.shape[1]


@dataclass
class FaultSpec:
    """One fault scenario.

    Additive kinds (step, random_variation, slow_drift) act on a sensor
    channel by default or on an actuator command when site="actuator";
    stiction always acts on the actuator named by target. magnitude gates
    every kind except stiction: magnitude 0 means the fault never fires.
    """

    kind: str
    target: int
    magnitude: float = 1.0
    onset: int = 0
    slope: float = 0.0
    deadband: float = 0.0
    std: float = 0.0
    site: str = "sensor"
    fault_class: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.kind == "stiction":
            self.site = "actuator"
        if self.site not in ("sensor", "actuator"):
            raise ConfigError(f"unknown fault site {self.site!r}")
        if self.onset < 0:
            raise ConfigError("onset must be nonnegative")
        if not np.isfinite(self.magnitude):
            raise ConfigError("magnitude must be finite")
        if not 0 <= self.fault_class <= np.iinfo(np.int64).max:
            raise ConfigError(f"fault_class must be a nonnegative int64, "
                              f"not {self.fault_class}")
        if not self.std >= 0:
            raise ConfigError(f"std must be nonnegative, not {self.std}")


@dataclass
class FaultState:
    """Mutable per-run bookkeeping for apply_fault."""

    rng: np.random.Generator
    held: float = None
    rest_sum: float = 0.0
    rest_n: int = 0


def apply_fault(value, t, fault, state):
    """Transform one channel value at sample t according to the fault."""
    if fault.kind == "stiction":
        if t < fault.onset:
            state.rest_sum += value
            state.rest_n += 1
            return value
        if state.held is None:
            # Stick at the resting position (mean pre-onset command), not at
            # one noisy command, so the freeze alone leaves no sensor offset.
            state.held = (state.rest_sum / state.rest_n if state.rest_n
                          else value)
        if abs(value - state.held) < fault.deadband:
            return state.held
        state.held = value
        return value
    if t < fault.onset or fault.magnitude == 0.0:
        return value
    if fault.kind == "step":
        return value + fault.magnitude
    if fault.kind == "random_variation":
        return value + state.rng.normal(0.0, fault.std)
    if fault.kind == "slow_drift":
        return value + fault.slope * (t - fault.onset)
    raise ConfigError(f"unknown fault kind {fault.kind!r}")


@dataclass
class ScenarioDataset:
    """records: horizon x (n_outputs + n_loops); labels: one class per sample."""

    records: np.ndarray
    labels: np.ndarray
    n_loops: int = 0

    @property
    def n_outputs(self):
        return self.records.shape[1] - self.n_loops


def equilibrium(plant):
    """Steady state (x*, u*) putting every controlled output on set-point."""
    n = plant.a.shape[0]
    inv = np.linalg.inv(np.eye(n) - plant.a)
    # a singular or overflowing gain is checked below, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        g = plant.c[list(plant.controlled)] @ inv @ plant.b
        try:
            u_star = np.linalg.solve(g, np.asarray(plant.setpoints,
                                                   dtype=np.float64))
        except np.linalg.LinAlgError:   # two loops on one sensor, say
            u_star = np.full(plant.n_loops, np.nan)
        x_star = inv @ plant.b @ u_star
    if not (np.all(np.isfinite(u_star)) and np.all(np.isfinite(x_star))):
        raise ConfigError("no finite input holds every controlled sensor on "
                          "its set-point: the loops' steady-state gain is "
                          "singular or overflows")
    return x_star, u_star


def _prbs_injection(plant, prbs, horizon):
    """Per-sample set-point offsets (horizon x n_loops) from a plan."""
    offsets = np.zeros((horizon, plant.n_loops))
    if prbs is None:
        return offsets
    if abs(prbs.amplitude) > DIVERGENCE_LIMIT:
        raise ConfigError(f"PRBS amplitude {prbs.amplitude:g} exceeds the "
                          f"divergence limit {DIVERGENCE_LIMIT:g}")
    loop = _target_loop(prbs.target, plant.n_loops)
    wave = prbs_waveform(prbs, horizon, plant.t_s)
    mask = schedule_injection(horizon, prbs.burst_len, prbs.burst_interval)
    offsets[:, loop] = wave * mask
    return offsets


def _target_loop(target, n_loops):
    name = str(target)
    if name.startswith("loop"):
        name = name[4:]
    try:
        loop = int(name)
    except ValueError:
        raise ConfigError(f"cannot read a loop index from target {target!r}") from None
    if not 0 <= loop < n_loops:
        raise ConfigError(f"target loop {loop} outside [0, {n_loops})")
    return loop


def simulate_scenario(plant, fault=None, prbs=None, horizon=500):
    """Step the closed loop and record measurements plus commands.

    The loop starts at the analytic equilibrium, so a no-fault, no-noise
    run shows no transient at all. Sensor-site faults corrupt what both
    the controller and the record see; actuator-site faults act between
    the commanded and the effective input, and only the command is
    recorded. Deterministic given plant.seed.

    Divergence: if any record entry exceeds DIVERGENCE_LIMIT (1e6) in
    magnitude, NumericDivergenceError names the first sample that has
    one. The check runs once, after the loop, so a diverging run costs
    its full horizon.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if fault is not None:
        n = plant.n_outputs if fault.site == "sensor" else plant.n_loops
        if not 0 <= fault.target < n:
            raise ConfigError(f"fault target {fault.target} outside the "
                              f"{fault.site} indices [0, {n})")
    x, u_star = equilibrium(plant)
    n_y, n_u = plant.n_outputs, plant.n_loops
    a, b, c = plant.a, plant.b, plant.c
    ki = np.asarray(plant.ki, dtype=np.float64)
    with np.errstate(over="ignore"):
        integ = u_star / ki
    if not np.all(np.isfinite(integ)):
        raise ConfigError("integral gains too small for the integrators to "
                          "hold the equilibrium input")
    integ = integ.tolist()
    loops = list(zip(range(n_u), plant.controlled,
                     np.asarray(plant.kp, dtype=np.float64).tolist(),
                     ki.tolist()))
    noise_rng = np.random.default_rng([plant.seed, 0])
    try:
        noise = (noise_rng.normal(0.0, 1.0, size=(horizon, n_y))
                 * plant.noise_std)
    except ValueError:   # numpy's "array is too big" and its kin
        raise ConfigError(f"horizon {horizon} is too long to allocate "
                          f"its records") from None
    fstate = FaultState(rng=np.random.default_rng([plant.seed, 1]))
    targets = (np.asarray(plant.setpoints, dtype=np.float64)
               + _prbs_injection(plant, prbs, horizon)).tolist()
    sensor = fault is not None and fault.site == "sensor"
    actuator = fault is not None and fault.site == "actuator"

    # The PI law runs on Python floats: the same IEEE double operations,
    # in the same order, as on numpy scalars, at a fraction of the cost.
    # The products keep their operands and shapes, since a change to
    # either alters the rounding (tests/test_plant.py pins the bits);
    # np.dot issues the same gemv as @ for a matrix times a vector, with
    # less dispatch per call. A diverging run overflows quietly here and
    # is caught below.
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (noise_t, target_t) in enumerate(zip(noise, targets)):
            y = (np.dot(c, x) + noise_t).tolist()
            if sensor:
                y[fault.target] = apply_fault(y[fault.target], t, fault,
                                              fstate)
            u_cmd = []
            for j, k, kp_j, ki_j in loops:
                err = target_t[j] - y[k]
                integ[j] += err
                u_cmd.append(kp_j * err + ki_j * integ[j])
            rows.append(y + u_cmd)
            if actuator:
                u_cmd[fault.target] = apply_fault(u_cmd[fault.target], t,
                                                  fault, fstate)
            x = np.dot(a, x) + np.dot(b, u_cmd)
        records = np.array(rows, dtype=np.float64)
        diverged = np.max(np.abs(records), axis=1) > DIVERGENCE_LIMIT
    if diverged.any():
        raise NumericDivergenceError(
            f"simulation diverged at sample {int(np.argmax(diverged))}")
    labels = np.zeros(horizon, dtype=np.int64)
    if fault is not None:
        labels[np.arange(horizon) >= fault.onset] = fault.fault_class
    return ScenarioDataset(records, labels, n_u)


def snr_per_output(fault_records, normal_records, n_outputs, onset=0):
    """Mean-shift signal-to-noise ratio per sensor, past the onset."""
    f = np.asarray(fault_records)[onset:, :n_outputs]
    n = np.asarray(normal_records)[onset:, :n_outputs]
    shift = np.abs(f.mean(axis=0) - n.mean(axis=0))
    spread = n.std(axis=0)
    spread = np.where(spread <= 1e-12, 1.0, spread)
    return shift / spread


def default_plant(seed=0):
    """The stock 4-state, 8-sensor, 2-loop surrogate."""
    a = np.array([
        [0.90, 0.05, 0.00, 0.00],
        [0.00, 0.85, 0.10, 0.00],
        [0.00, 0.00, 0.80, 0.05],
        [0.02, 0.00, 0.00, 0.90],
    ])
    b = np.array([
        [0.50, 0.00],
        [0.25, 0.10],
        [0.00, 0.40],
        [0.10, 0.30],
    ])
    c = np.array([
        [1.00, 0.00, 0.00, 0.00],
        [0.00, 0.00, 1.00, 0.00],
        [0.50, 0.50, 0.00, 0.00],
        [0.00, 0.60, 0.40, 0.00],
        [0.30, 0.00, 0.00, 0.70],
        [0.00, 0.20, 0.50, 0.30],
        [0.80, 0.00, 0.20, 0.00],
        [0.10, 0.30, 0.30, 0.30],
    ])
    return PlantConfig(
        a=a, b=b, c=c,
        controlled=(0, 1),
        setpoints=(10.0, 5.0),
        setpoint_ranges=(20.0, 20.0),
        kp=(0.6, 0.3),
        ki=(0.15, 0.02),
        noise_std=np.full(8, 0.05),
        t_s=180.0,
        seed=seed,
    )


# Fault scenarios 1..12. Classes 3, 9, and 11 are the incipient analogs:
# a feedback-masked sensor step, a sub-noise random variation, and valve
# stiction, all sized to stay under unit signal-to-noise without excitation.
INCIPIENT_CLASSES = (3, 9, 11)


def default_fault_library(onset=100):
    faults = {
        1: FaultSpec("step", target=2, magnitude=1.0, onset=onset),
        2: FaultSpec("step", target=4, magnitude=0.8, onset=onset),
        3: FaultSpec("step", target=0, magnitude=0.05, onset=onset),
        4: FaultSpec("random_variation", target=3, std=0.5, onset=onset),
        5: FaultSpec("slow_drift", target=5, slope=0.004, onset=onset),
        6: FaultSpec("step", target=0, magnitude=0.5, onset=onset,
                     site="actuator"),
        7: FaultSpec("random_variation", target=6, std=0.4, onset=onset),
        8: FaultSpec("slow_drift", target=2, slope=0.003, onset=onset),
        9: FaultSpec("random_variation", target=4, std=0.05, onset=onset),
        10: FaultSpec("step", target=7, magnitude=0.9, onset=onset),
        11: FaultSpec("stiction", target=1, deadband=0.8, onset=onset),
        12: FaultSpec("step", target=1, magnitude=0.6, onset=onset,
                      site="actuator"),
    }
    return {cls: replace(spec, fault_class=cls) for cls, spec in faults.items()}
