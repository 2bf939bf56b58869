"""PRBS excitation design: frequency band, clock/length planning, maximum-length
sequences, the analytic power spectrum, and intermittent injection schedules.

Angular frequencies are rad/s throughout; times are seconds.
"""

from dataclasses import dataclass, asdict

import numpy as np

from .dataio import (INTEGER, INTEGERS, LOOP, NUMBER, read_fields, read_json,
                     write_json)
from .errors import ConfigError, DesignError, FormatError

# Primitive-polynomial tap positions for a Fibonacci LFSR, by register length.
# Feedback is the XOR of these bit positions (1-indexed, bit n is the output).
TAPS = {
    2: (2, 1), 3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6),
    8: (8, 6, 5, 4), 9: (9, 5), 10: (10, 7), 11: (11, 9),
    12: (12, 11, 10, 4), 13: (13, 12, 11, 8), 14: (14, 13, 12, 2),
    15: (15, 14), 16: (16, 14, 13, 11),
}

MAX_REGISTER = max(TAPS)

# Injection defaults: 40-sample bursts every 4 h at a 3-minute sample time.
DEFAULT_BURST_LEN = 40
DEFAULT_BURST_INTERVAL = 80
# The loop whose set-point a plan probes unless it names another.
DEFAULT_TARGET = "loop1"


@dataclass
class BandSpec:
    """Excitation band [omega_low, omega_high] plus the quantities it came from."""

    omega_low: float
    omega_high: float
    omega_nyquist: float
    s_f: float = 2.0
    tau_ol: float = None
    tau_cl: float = None

    def __post_init__(self):
        if not 0.0 < self.omega_low < self.omega_high <= self.omega_nyquist:
            raise DesignError(
                f"need 0 < omega_low < omega_high <= Nyquist, got "
                f"[{self.omega_low}, {self.omega_high}] with Nyquist "
                f"{self.omega_nyquist}")


@dataclass
class PrbsPlan:
    """A realizable PRBS: clock, register, taps, amplitude, burst schedule."""

    amplitude: float
    t_clock: float
    n_register: int
    period: int
    taps: tuple
    burst_len: int = DEFAULT_BURST_LEN
    burst_interval: int = DEFAULT_BURST_INTERVAL
    target: str = DEFAULT_TARGET

    def __post_init__(self):
        self.taps = tuple(self.taps)
        if self.period != 2 ** self.n_register - 1:
            raise DesignError("period must equal 2^n - 1")
        if not 2 <= self.n_register <= MAX_REGISTER:
            raise DesignError(
                f"register length {self.n_register} outside [2, {MAX_REGISTER}]")


def design_band(tau_ol, tau_cl, s_f=2.0, omega_nyquist=None):
    """Pick the excitation band from dominant time constants.

    Parameters
    ----------
    tau_ol, tau_cl : float
        Dominant open-loop and closed-loop time constants, seconds.
    s_f : float
        Safety factor, >= 1. Widens the band on both ends.
    omega_nyquist : float
        Hard upper cap on the band, rad/s.

    Returns
    -------
    BandSpec with omega_low = 1/(s_f*tau_ol) and
    omega_high = min(4*s_f/tau_cl, omega_nyquist).
    """
    if tau_ol <= 0 or tau_cl <= 0:
        raise DesignError("time constants must be positive")
    if s_f < 1:
        raise DesignError("safety factor must be at least 1")
    if omega_nyquist is None or omega_nyquist <= 0:
        raise DesignError("a positive Nyquist frequency is required")
    low = 1.0 / (s_f * tau_ol)
    high = min(4.0 * s_f / tau_cl, omega_nyquist)
    if low >= high:
        raise DesignError(
            f"infeasible band: omega_low {low:.6g} >= omega_high {high:.6g}")
    return BandSpec(low, high, omega_nyquist, s_f, tau_ol, tau_cl)


def plan_from_band(band, t_s, amplitude, burst_len=DEFAULT_BURST_LEN,
                   burst_interval=DEFAULT_BURST_INTERVAL,
                   target=DEFAULT_TARGET):
    """Turn a band into clock period and register length.

    The clock period is the largest multiple of the sample time t_s whose
    upper usable frequency 2.8/t_clock still covers omega_high; the register
    length is the smallest n whose period N = 2^n - 1 pushes the fundamental
    2*pi/(N*t_clock) at or below omega_low.
    """
    if t_s <= 0:
        raise DesignError("sample time must be positive")
    if amplitude <= 0:
        raise DesignError("amplitude must be positive")
    k = int(2.8 / (band.omega_high * t_s))
    # Guard the integer boundary against floating-point rounding either way.
    while 2.8 / ((k + 1) * t_s) >= band.omega_high:
        k += 1
    while k > 1 and 2.8 / (k * t_s) < band.omega_high:
        k -= 1
    if k < 1 or 2.8 / (k * t_s) < band.omega_high:
        raise DesignError(
            f"omega_high {band.omega_high:.6g} rad/s exceeds 2.8/t_s; "
            "no clock period that is a multiple of the sample time can reach it")
    t_clock = k * t_s

    n = None
    for cand in range(2, MAX_REGISTER + 1):
        if 2.0 * np.pi / ((2 ** cand - 1) * t_clock) <= band.omega_low:
            n = cand
            break
    if n is None:
        raise DesignError(
            f"band too wide: even n = {MAX_REGISTER} cannot reach "
            f"omega_low {band.omega_low:.6g} rad/s with t_clock {t_clock:.6g} s")
    return PrbsPlan(amplitude, t_clock, n, 2 ** n - 1, TAPS[n],
                    burst_len, burst_interval, target)


def generate_mls(n, taps=None, amplitude=1.0):
    """One period of a maximum-length sequence as +-amplitude values.

    A Fibonacci LFSR over n bits, started from state 1: the output is bit
    n, the feedback (XOR of the tap bits) shifts in at bit 1. With
    primitive taps the state walks all 2^n - 1 nonzero patterns, so one
    period has 2^(n-1) highs and 2^(n-1) - 1 lows.
    """
    if not 2 <= n <= MAX_REGISTER:
        raise DesignError(f"register length must be in [2, {MAX_REGISTER}]")
    if taps is None:
        taps = TAPS[n]
    if max(taps) != n or min(taps) < 1:
        raise DesignError(f"taps {taps} do not fit an n-bit register")
    mask = (1 << n) - 1
    state = 1

    period = 2 ** n - 1
    bits = np.empty(period, dtype=np.int64)
    for t in range(period):
        bits[t] = (state >> (n - 1)) & 1
        fb = 0
        for tap in taps:
            fb ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | fb) & mask
    return amplitude * (2.0 * bits - 1.0)


def prbs_spectrum(amplitude, period, t_clock, omega):
    """Analytic PRBS power density at angular frequency omega (scalar or array).

    Evaluates A^2 (N+1) t_clock / N * [sin(w t/2) / (w t)]^2 with the
    w -> 0 limit A^2 (N+1) t_clock / (4N).
    """
    if period < 1 or t_clock <= 0:
        raise DesignError("period and clock must be positive")
    omega = np.asarray(omega, dtype=np.float64)
    if np.any(omega < 0):
        raise DesignError("omega must be nonnegative")
    x = omega * t_clock / 2.0
    # sin(x)/x with the x = 0 limit built in, halved: sin(x)/(2x)
    bracket = np.sinc(x / np.pi) / 2.0
    out = (amplitude ** 2) * (period + 1) * t_clock / period * bracket ** 2
    return float(out) if out.ndim == 0 else out


def schedule_injection(horizon, burst_len=DEFAULT_BURST_LEN,
                       burst_interval=DEFAULT_BURST_INTERVAL):
    """Binary mask: burst_len ones at the start of every burst_interval block."""
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    if burst_len < 1 or burst_interval < 1:
        raise ConfigError("burst length and interval must be at least 1")
    idx = np.arange(horizon)
    return ((idx % burst_interval) < burst_len).astype(np.int64)


def prbs_waveform(plan, n_samples, t_s):
    """Sample-and-hold realization of a plan at the plant sample time.

    Each chip lasts t_clock = k*t_s, so it is held for k samples; the
    sequence wraps around after one period of chips.
    """
    k = int(round(plan.t_clock / t_s))
    if abs(k * t_s - plan.t_clock) > 1e-9 * plan.t_clock or k < 1:
        raise DesignError("plan clock is not a multiple of the sample time")
    chips = generate_mls(plan.n_register, plan.taps,
                         amplitude=plan.amplitude)
    held = np.repeat(chips, k)
    reps = int(np.ceil(n_samples / held.size))
    return np.tile(held, reps)[:n_samples]


def save_plan(plan, path):
    """Write a plan as a sorted-key JSON record."""
    rec = asdict(plan)
    rec["taps"] = list(plan.taps)
    write_json(path, rec)


def load_plan(path):
    """Read a save_plan file; FormatError if it is not one."""
    fields = {"amplitude": NUMBER, "t_clock": NUMBER, "n_register": INTEGER,
              "period": INTEGER, "taps": INTEGERS, "burst_len": INTEGER,
              "burst_interval": INTEGER, "target": LOOP}
    return PrbsPlan(**read_fields(
        read_json(path), fields, path, FormatError,
        required=[key for key in fields if key != "target"]))
