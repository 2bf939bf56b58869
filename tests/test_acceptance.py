"""Acceptance gate: one test per shipped guarantee.

Each test states its tolerance inline; the heavyweight study in
test_criterion_6 carries its own wall-clock budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fddkit.cli import main
from fddkit.dataio import WindowBatch, concat_batches
from fddkit.metrics import confusion, far, fdr
from fddkit.model import (ModelConfig, build_params, loss_and_grads,
                          model_forward, sae_loss)
from fddkit.pipeline import surrogate_benchmark
from fddkit.prbs import generate_mls, plan_from_band, prbs_spectrum
from fddkit.recurrent import finite_diff_grad, max_rel_error

from conftest import random_feasible_band


def test_criterion_1_gradients_match_finite_differences():
    """>= 20 random instances, max relative error < 1e-6, under 1 min."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for trial in range(20):
        d_x = int(rng.integers(2, 7))
        d_h = int(rng.integers(2, 7))
        horizon = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        encoder = (d_h,) if rng.integers(2) == 0 else (d_h, d_h)
        decoder = (d_x,) if rng.integers(2) == 0 else (d_h, d_x)
        cfg = ModelConfig(
            encoder=encoder, decoder=decoder, n_features=d_x,
            n_classes=n_classes, horizon=horizon,
            lam1=float(rng.uniform(0.2, 1.5)),
            lam2=float(rng.uniform(0.2, 1.5)),
            lam3=float(rng.uniform(1e-4, 1e-2)),
            seed=int(rng.integers(10_000)))
        windows = rng.normal(size=(2, horizon, d_x))
        labels = rng.integers(0, n_classes, size=2)
        params = build_params(cfg)
        _, grads = loss_and_grads(windows, labels, params, cfg)

        def loss_fn(p, windows=windows, labels=labels, cfg=cfg):
            return loss_and_grads(windows, labels, p, cfg)[0]

        numeric = finite_diff_grad(loss_fn, params)
        worst = max(worst, max_rel_error(grads, numeric))
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_2_loss_reductions():
    """lam1=lam3=0 equals mean cross-entropy to 1e-12; the perfect case
    equals the regularizer term exactly."""
    rng = np.random.default_rng(7)
    cfg = ModelConfig(encoder=(4,), decoder=(3,), n_features=3,
                      n_classes=4, horizon=5, lam1=0.0, lam2=1.0,
                      lam3=0.0, seed=1)
    params = build_params(cfg)
    windows = rng.normal(size=(6, 5, 3))
    labels = rng.integers(0, 4, size=6)
    recon, probs, _ = model_forward(windows, params)
    loss = sae_loss(recon, windows, probs, labels, 0.0, 1.0, 0.0, params)
    ce = -np.mean(np.log(probs[np.arange(6), labels]))
    assert abs(loss - ce) < 1e-12

    lam3 = 3e-3
    onehot = np.zeros_like(probs)
    onehot[np.arange(6), labels] = 1.0
    perfect = sae_loss(windows, windows, onehot, labels, 1.0, 1.0, lam3,
                       params)
    reg = 0.0
    for layer in params.layers:
        reg += np.sum(layer.W ** 2) + np.sum(layer.R ** 2)
    reg += np.sum(params.W_c ** 2)
    assert perfect == lam3 * reg / 6


def _exact_period(bits):
    n = bits.size
    for d in range(1, n):
        if n % d == 0 and np.array_equal(np.roll(bits, d), bits):
            return d
    return n


def test_criterion_3_m_sequence_properties():
    """n in {3..10}: exact period, exact balance, two-valued autocorr."""
    for n in range(3, 11):
        period = 2 ** n - 1
        seq = generate_mls(n)
        assert seq.size == period
        bits = (seq > 0).astype(np.int64)
        assert _exact_period(bits) == period
        assert bits.sum() == 2 ** (n - 1)
        for lag in range(1, period):
            corr = np.dot(seq, np.roll(seq, lag)) / period
            assert abs(corr - (-1.0 / period)) < 1e-12
        assert abs(np.dot(seq, seq) / period - 1.0) < 1e-12


def test_criterion_4_prbs_design_consistency():
    """Both design inequalities on 1000 random feasible bands, and
    analytic-spectrum vs periodogram log-power correlation > 0.95."""
    rng = np.random.default_rng(41)
    t_s = 2.0
    for _ in range(1000):
        band = random_feasible_band(rng, t_s)
        plan = plan_from_band(band, t_s, amplitude=1.0)
        assert 2.8 / plan.t_clock >= band.omega_high
        assert 2.0 * np.pi / (plan.period * plan.t_clock) <= band.omega_low

    n, t_clock, over = 6, 2.0, 8
    period = 2 ** n - 1
    wave = np.repeat(generate_mls(n), over)
    power = np.abs(np.fft.rfft(wave)) ** 2
    omega = 2.0 * np.pi * np.arange(power.size) / (period * t_clock)
    keep = (omega > 0) & (omega < 2.0 * np.pi / t_clock)
    analytic = prbs_spectrum(1.0, period, t_clock, omega[keep])
    corr = np.corrcoef(np.log(power[keep]), np.log(analytic))[0, 1]
    assert corr > 0.95, f"log-power correlation {corr:.4f}"


def test_criterion_5_metric_oracles():
    """Brute-force tally equality on 10^4 random pairs plus the exact
    two-class identity FAR = 1 - FDR(normal)."""
    rng = np.random.default_rng(55)
    m = 6
    true = rng.integers(0, m, size=10_000)
    pred = rng.integers(0, m, size=10_000)
    cm = confusion(true, pred, m)
    tally = np.zeros((m, m), dtype=np.int64)
    for t, p in zip(true, pred):
        tally[t, p] += 1
    np.testing.assert_array_equal(cm.counts, tally)
    for i in range(m):
        expect = tally[i, i] / tally[i].sum()
        assert fdr(cm, i) == expect
    assert far(cm, normal=0) == tally[0, 1:].sum() / tally[0].sum()

    # Power-of-two normal count keeps every ratio exactly representable,
    # so the identity must hold bitwise, not just to a tolerance.
    true2 = np.concatenate([np.zeros(512, dtype=np.int64),
                            np.ones(256, dtype=np.int64)])
    pred2 = rng.integers(0, 2, size=768)
    cm2 = confusion(true2, pred2, 2)
    assert far(cm2, normal=0) == 1.0 - fdr(cm2, 0)


def test_criterion_6_hierarchical_benefit_on_surrogate():
    """(a) flat incipient accuracy trails non-incipient by >= 15 points;
    (b) hierarchical keeps non-incipient accuracy within 2 points of
    flat; (c) excitation lifts level-2 incipient accuracy by >= 10
    points; all averaged over 5 seeds, under a 30 minute budget."""
    start = time.monotonic()
    out = surrogate_benchmark(seeds=(1, 2, 3, 4, 5))
    elapsed = time.monotonic() - start
    deficit = out["flat_plain_avg"] - out["flat_incipient_avg"]
    parity = out["hier_plain_avg"] - out["flat_plain_avg"]
    gain = out["mean_gain"]
    detail = (f"deficit {100 * deficit:.1f} pts, parity "
              f"{100 * parity:+.1f} pts, gain {100 * gain:+.1f} pts, "
              f"{elapsed:.0f}s")
    assert deficit >= 0.15, detail
    assert parity >= -0.02, detail
    assert gain >= 0.10, detail
    assert elapsed < 1800.0, detail


def _stage_outputs(directory):
    files = sorted(p for p in Path(directory).rglob("*") if p.is_file())
    return {str(p.relative_to(directory)): p.read_bytes() for p in files}


def test_criterion_7_pipeline_determinism(tmp_path, monkeypatch):
    """Every stage rerun with byte-identical config produces identical
    bytes. Paths inside the configs are relative so the two runs differ
    only in working directory."""
    surr = {"classes": [0, 1, 2], "incipient": [], "n_series": 1,
            "horizon": 120, "onset": 40, "window": 10}
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(
        {"seed": 3, "horizon": 160, "fault": {"class": 2, "onset": 50},
         "prbs": "default"}))
    ing_cfg = tmp_path / "ing.json"
    ing_cfg.write_text(json.dumps(
        {"seed": 3, "data": "sim/records.txt", "labels": "sim/labels.txt",
         "window": 12, "split": {"train": 0.6, "val": 0.2, "test": 0.2}}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(
        {"seed": 3, "surrogate": surr, "model": {"epochs": 2,
                                                 "encoder": [5]}}))
    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(json.dumps(
        {"seed": 3, "surrogate": surr, "model": "model"}))
    prbs_cfg = tmp_path / "prbs.json"
    prbs_cfg.write_text(json.dumps(
        {"seed": 0, "prbs": {"tau_ol": 1800.0, "tau_cl": 1030.0}}))

    outputs = {}
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        root.mkdir()
        monkeypatch.chdir(root)
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", "sim"]) == 0
        assert main(["ingest", "--config", str(ing_cfg),
                     "--out", "arc"]) == 0
        assert main(["train", "--config", str(train_cfg),
                     "--out", "model", "--mode", "flat"]) == 0
        assert main(["evaluate", "--config", str(eval_cfg),
                     "--out", "report"]) == 0
        assert main(["prbs", "design", "--config", str(prbs_cfg),
                     "--out", "plan"]) == 0
        outputs[attempt] = {
            stage: _stage_outputs(root / stage)
            for stage in ("sim", "arc", "model", "report", "plan")}
    for stage in outputs["first"]:
        assert outputs["first"][stage].keys() == \
            outputs["second"][stage].keys(), stage
        for name in outputs["first"][stage]:
            assert outputs["first"][stage][name] == \
                outputs["second"][stage][name], f"{stage}/{name}"


def _synthesize_tep_like(directory, rng):
    """Per-fault recordings in the wide 52-channel layout, one training
    and one held-out recording per class, the usual arrangement for
    plant benchmark archives. Fault effect = per-class channel shifts."""
    length, onset, d = 180, 20, 52
    paths = {}
    for cls in range(21):
        shift = np.zeros(d)
        if cls > 0:
            chans = rng.choice(d, size=3, replace=False)
            shift[chans] = rng.uniform(1.0, 2.0, size=3)
        entry = {}
        for part in ("train", "test"):
            series = rng.normal(0.0, 0.5, size=(length, d))
            labels = np.zeros(length, dtype=np.int64)
            if cls > 0:
                series[onset:] += shift
                labels[onset:] = cls
            stem = f"class{cls:02d}" + ("_te" if part == "test" else "")
            data = directory / f"{stem}.txt"
            np.savetxt(data, series, fmt="%.8g")
            lab = directory / f"{stem}_labels.txt"
            np.savetxt(lab, labels, fmt="%d")
            entry[part] = (data, lab)
        paths[cls] = entry
    return paths


def test_criterion_8_wide_format_track(tmp_path):
    """Ingest -> level-1 train with H = 150 -> evaluate on 52-channel
    per-fault files; the report must carry per-class FDR for all 20
    faults plus FAR. Uses supplied recordings when FDDKIT_TEP_DIR is
    set, otherwise synthesized stand-ins of the same shape."""
    src = os.environ.get("FDDKIT_TEP_DIR")
    rng = np.random.default_rng(2)
    raw = tmp_path / "raw"
    raw.mkdir()
    if src:
        paths = {}
        for cls in range(21):
            entry = {}
            for part, suffix in (("train", ""), ("test", "_te")):
                stem = f"class{cls:02d}{suffix}"
                data = Path(src) / f"{stem}.txt"
                lab = Path(src) / f"{stem}_labels.txt"
                if not data.exists():
                    pytest.skip(f"FDDKIT_TEP_DIR lacks {data.name}")
                entry[part] = (data, lab)
            paths[cls] = entry
    else:
        paths = _synthesize_tep_like(raw, rng)

    window = 150
    merged = {"train": [], "test": []}
    for cls, entry in sorted(paths.items()):
        for part in ("train", "test"):
            data, lab = entry[part]
            arc = tmp_path / f"arc{cls:02d}_{part}"
            cfg = tmp_path / f"ing{cls:02d}_{part}.json"
            fractions = {"train": 0.0, "val": 0.0, "test": 0.0}
            fractions[part] = 1.0
            node = {"seed": 5, "data": str(data), "labels": str(lab),
                    "window": window, "expected_cols": 52,
                    "split": fractions}
            if part == "test":
                node["scaler"] = str(
                    tmp_path / f"arc{cls:02d}_train" / "scaler.json")
            cfg.write_text(json.dumps(node))
            assert main(["ingest", "--config", str(cfg),
                         "--out", str(arc)]) == 0
            w = np.load(arc / f"{part}_windows.npy")
            labels = np.load(arc / f"{part}_labels.npy")
            merged[part].append(WindowBatch(windows=w, labels=labels))
    archive = tmp_path / "archive"
    archive.mkdir()
    for name, parts in merged.items():
        batch = concat_batches(parts)
        np.save(archive / f"{name}_windows.npy", batch.windows)
        np.save(archive / f"{name}_labels.npy", batch.labels)

    model_dir = tmp_path / "model"
    tcfg = tmp_path / "train.json"
    tcfg.write_text(json.dumps(
        {"seed": 5, "archive": str(archive), "n_classes": 21,
         "incipient": [3, 9, 15],
         "model": {"encoder": [16], "decoder": [52], "epochs": 2,
                   "batch_size": 64}}))
    assert main(["train", "--config", str(tcfg), "--out", str(model_dir),
                 "--mode", "level1"]) == 0

    # level-1 reports live in the merged alphabet; the full-alphabet
    # report comes from evaluating predictions mapped back through the
    # label map, which evaluate does for hierarchical runs. For the
    # track's shape check a flat 21-class model is trained the same way.
    fcfg = tmp_path / "flat.json"
    fcfg.write_text(json.dumps(
        {"seed": 5, "archive": str(archive), "n_classes": 21,
         "model": {"encoder": [16], "decoder": [52], "epochs": 2,
                   "batch_size": 64}}))
    flat_dir = tmp_path / "flat_model"
    assert main(["train", "--config", str(fcfg), "--out", str(flat_dir),
                 "--mode", "flat"]) == 0
    ecfg = tmp_path / "eval.json"
    ecfg.write_text(json.dumps(
        {"seed": 5, "archive": str(archive), "model": str(flat_dir)}))
    report_dir = tmp_path / "report"
    assert main(["evaluate", "--config", str(ecfg),
                 "--out", str(report_dir)]) == 0
    summary = json.loads((report_dir / "summary.json").read_text())
    got = {int(k) for k in summary["fdr_by_class"]}
    assert set(range(1, 21)) <= got
    assert summary["far"] is not None
