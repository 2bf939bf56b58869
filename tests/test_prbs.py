import json
import math

import numpy as np
import pytest

from conftest import random_feasible_band
from fddkit.errors import ConfigError, DesignError
from fddkit.prbs import (TAPS, BandSpec, PrbsPlan, design_band, generate_mls,
                         load_plan, plan_from_band, prbs_spectrum,
                         prbs_waveform, save_plan, schedule_injection)


def lfsr_oracle(n, taps, init_bits):
    """Independent bit-list LFSR: bits[0] is stage 1, bits[-1] is the output."""
    bits = list(init_bits)
    out = []
    for _ in range(2 ** n - 1):
        out.append(bits[-1])
        fb = 0
        for tap in taps:
            fb ^= bits[tap - 1]
        bits = [fb] + bits[:-1]
    return out


def test_mls_matches_bitwise_oracle_n4():
    seq = generate_mls(4)
    oracle = lfsr_oracle(4, TAPS[4], [1, 0, 0, 0])
    np.testing.assert_array_equal(seq, 2.0 * np.array(oracle) - 1.0)


def test_mls_balance_n3():
    seq = generate_mls(3, taps=(3, 2))
    assert seq.size == 7
    assert np.sum(seq > 0) == 4
    assert np.sum(seq < 0) == 3


def test_mls_autocorrelation_two_valued_n5():
    seq = generate_mls(5)
    n_len = seq.size
    assert n_len == 31
    r0 = np.dot(seq, seq) / n_len
    for lag in range(1, n_len):
        r = np.dot(seq, np.roll(seq, lag)) / n_len / r0
        assert abs(r - (-1.0 / 31.0)) < 1e-12


def test_mls_exact_period_small_n():
    for n in range(2, 11):
        seq = generate_mls(n)
        period = 2 ** n - 1
        assert seq.size == period
        # No proper divisor of the period is itself a period.
        for d in range(1, period):
            if period % d == 0 and d < period:
                assert np.any(seq != np.roll(seq, d)), (n, d)


def test_mls_amplitude_and_cycles():
    # a waveform clocked at the sample time plays the sequence cycle
    # after cycle
    plan = PrbsPlan(0.5, 1.0, 3, 7, TAPS[3])
    seq = prbs_waveform(plan, n_samples=21, t_s=1.0)
    assert seq.size == 21
    assert set(np.unique(seq)) == {-0.5, 0.5}
    np.testing.assert_array_equal(seq[:7], generate_mls(3, amplitude=0.5))
    np.testing.assert_array_equal(seq[:7], seq[7:14])
    np.testing.assert_array_equal(seq[:7], seq[14:])


def test_mls_rejects_bad_register_and_taps():
    with pytest.raises(DesignError):
        generate_mls(1)
    with pytest.raises(DesignError):
        generate_mls(17)
    with pytest.raises(DesignError):
        generate_mls(5, taps=(4, 2))
    with pytest.raises(DesignError, match="taps"):
        generate_mls(5, taps=())


def test_plan_rejects_a_huge_register_before_raising_two_to_it():
    # 2 ** (2 ** 64) would not finish, or would run out of memory
    with pytest.raises(DesignError, match="register length"):
        PrbsPlan(0.5, 6.0, 2 ** 64, 31, TAPS[5])


def test_design_band_formulas():
    # Reproduce the published fault-9 band: low edge 0.0087 rad/s from the
    # open-loop constant, high edge capped at 1.74 rad/s.
    s_f = 2.0
    tau_ol = 1.0 / (s_f * 0.0087)
    band = design_band(tau_ol, tau_cl=1.0, s_f=s_f, omega_nyquist=1.74)
    assert math.isclose(band.omega_low, 0.0087, rel_tol=1e-12)
    assert band.omega_high == 1.74  # 4*s_f/tau_cl = 8 > cap

    # Fault-15 band: lower edge 0.005 rad/s.
    band = design_band(1.0 / (s_f * 0.005), tau_cl=1.0, s_f=s_f,
                       omega_nyquist=1.74)
    assert math.isclose(band.omega_low, 0.005, rel_tol=1e-12)

    # Uncapped case: omega_high = 4*s_f/tau_cl.
    band = design_band(100.0, tau_cl=50.0, s_f=2.0, omega_nyquist=10.0)
    assert math.isclose(band.omega_high, 8.0 / 50.0, rel_tol=1e-12)


def test_design_band_infeasible():
    # Tiny Nyquist forces low >= high.
    with pytest.raises(DesignError):
        design_band(tau_ol=1.0, tau_cl=1.0, s_f=2.0, omega_nyquist=0.3)
    with pytest.raises(DesignError):
        design_band(-1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DesignError):
        design_band(1.0, 1.0, 0.5, 1.0)


def test_plan_boundary_clock():
    # At omega_high = 1.4 with t_s = 1 the 2 s clock sits exactly on 2.8/t.
    band = BandSpec(0.01, 1.4, omega_nyquist=2.0)
    plan = plan_from_band(band, t_s=1.0, amplitude=1.0)
    assert plan.t_clock == 2.0
    # N*t_clock >= 2*pi/0.01 = 628.3 => N >= 314.2 => n = 9, N = 511.
    assert plan.n_register == 9
    assert plan.period == 511
    assert plan.taps == TAPS[9]


def test_plan_rejects_unreachable_band():
    # omega_high above 2.8/t_s: no multiple of t_s can cover it.
    band = BandSpec(0.01, 3.0, omega_nyquist=3.1)
    with pytest.raises(DesignError):
        plan_from_band(band, t_s=1.0, amplitude=1.0)
    # omega_low so small that even n = 16 cannot reach it.
    band = BandSpec(1e-9, 1.4, omega_nyquist=2.0)
    with pytest.raises(DesignError):
        plan_from_band(band, t_s=1.0, amplitude=1.0)


def test_plan_satisfies_design_inequalities_on_random_bands():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        t_s = rng.uniform(0.1, 300.0)
        band = random_feasible_band(rng, t_s)
        plan = plan_from_band(band, t_s, amplitude=1.0)
        k = plan.t_clock / t_s
        assert abs(k - round(k)) < 1e-9 and round(k) >= 1
        assert 2.8 / plan.t_clock >= band.omega_high
        assert 2.0 * np.pi / (plan.period * plan.t_clock) <= band.omega_low
        # Minimality on both counts.
        assert 2.8 / (plan.t_clock + t_s) < band.omega_high
        if plan.n_register > 2:
            shorter = 2 ** (plan.n_register - 1) - 1
            assert 2.0 * np.pi / (shorter * plan.t_clock) > band.omega_low


def test_spectrum_limit_zeros_nonnegative():
    a, n_len, t_c = 1.5, 127, 3.0
    lim = prbs_spectrum(a, n_len, t_c, 0.0)
    assert math.isclose(lim, a * a * (n_len + 1) * t_c / (4 * n_len), rel_tol=1e-15)
    # Continuity into the limit.
    assert math.isclose(prbs_spectrum(a, n_len, t_c, 1e-9), lim, rel_tol=1e-9)
    # Nulls at multiples of 2*pi/t_clock.
    for k in (1, 2, 5):
        assert prbs_spectrum(a, n_len, t_c, 2 * np.pi * k / t_c) < 1e-20
    omega = np.random.default_rng(0).uniform(0, 10, size=500)
    s = prbs_spectrum(a, n_len, t_c, omega)
    assert np.all(s >= 0)


def test_spectrum_tracks_periodogram_of_generated_sequence():
    # Hold one period at 8x oversampling; the DFT line powers should follow
    # the analytic envelope on a log scale.
    n = 6
    t_c = 2.0
    over = 8
    period = 2 ** n - 1
    chips = generate_mls(n, amplitude=1.0)
    wave = np.repeat(chips, over)
    spec = np.abs(np.fft.rfft(wave)) ** 2
    omega = 2.0 * np.pi * np.arange(spec.size) / (period * t_c)
    keep = (omega > 0) & (omega < 2.0 * np.pi / t_c)
    model = prbs_spectrum(1.0, period, t_c, omega[keep])
    corr = np.corrcoef(np.log(spec[keep]), np.log(model))[0, 1]
    assert corr > 0.95


def test_schedule_injection_counting():
    mask = schedule_injection(400, burst_len=40, burst_interval=80)
    assert mask.sum() == 200
    assert mask.size == 400
    np.testing.assert_array_equal(mask[:40], 1)
    np.testing.assert_array_equal(mask[40:80], 0)
    # Bursts repeat at every interval start.
    np.testing.assert_array_equal(mask[80:120], 1)


def test_schedule_injection_edge_cases():
    np.testing.assert_array_equal(schedule_injection(10, 5, 5), np.ones(10))
    np.testing.assert_array_equal(schedule_injection(10, 7, 3), np.ones(10))
    # Clipped at the horizon end.
    mask = schedule_injection(90, 40, 80)
    assert mask.sum() == 50
    with pytest.raises(ConfigError):
        schedule_injection(10, 0, 5)
    # past the horizon, longer bursts and intervals change nothing; at
    # 2 ** 63 and beyond they used to overflow numpy's integers
    np.testing.assert_array_equal(schedule_injection(90, 40, 2 ** 64),
                                  schedule_injection(90, 40, 90))
    np.testing.assert_array_equal(schedule_injection(90, 2 ** 64, 2 ** 64),
                                  np.ones(90))


def test_waveform_holds_chips():
    band = BandSpec(0.01, 1.4, omega_nyquist=2.0)
    plan = plan_from_band(band, t_s=1.0, amplitude=3.0)
    wave = prbs_waveform(plan, n_samples=100, t_s=1.0)
    assert wave.size == 100
    assert set(np.unique(wave)) == {-3.0, 3.0}
    # Each chip lasts t_clock/t_s = 2 samples.
    np.testing.assert_array_equal(wave[0::2][:50], wave[1::2][:50])
    # a chip held past the last sample fills the record, even when its
    # hold is more samples than numpy can repeat
    slow = PrbsPlan(3.0, 2.0 ** 70, plan.n_register, plan.period,
                    plan.taps)
    np.testing.assert_array_equal(prbs_waveform(slow, 100, 1.0),
                                  np.full(100, wave[0]))


def test_plan_json_round_trip(tmp_path):
    plan = PrbsPlan(0.5, 6.0, 5, 31, TAPS[5], burst_len=10,
                    burst_interval=20, target="loop0")
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    back = load_plan(path)
    assert back == plan
    # Record is sorted-key JSON, so rewriting is byte-stable.
    save_plan(back, tmp_path / "plan2.json")
    assert path.read_bytes() == (tmp_path / "plan2.json").read_bytes()
    rec = json.loads(path.read_text())
    assert rec["n_register"] == 5 and rec["period"] == 31
