import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fddkit.dataio import Scaler, WindowBatch
from fddkit.errors import (ConfigError, DimensionError,
                           NumericDivergenceError)
import fddkit.model
from fddkit.model import (DEFAULT_SEARCH_SPACE, MAX_BUDGET, MAX_EPOCHS,
                          ModelConfig, TrainedModel, build_params, load_model,
                          loss_and_grads, model_forward, predict,
                          predict_proba, sae_loss, save_model, train, tune)
from fddkit.recurrent import finite_diff_grad, max_rel_error


def tiny_config(**over):
    base = dict(encoder=(4,), decoder=(3,), n_features=3, n_classes=2,
                horizon=5, epochs=10, learning_rate=0.05, seed=3)
    base.update(over)
    return ModelConfig(**base)


def toy_batch(n_per_class=5, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for cls, level in ((0, -0.5), (1, 0.5)):
        for _ in range(n_per_class):
            windows.append(level + noise * rng.normal(size=(5, 3)))
            labels.append(cls)
    return WindowBatch(np.array(windows), np.array(labels))


def test_config_validation():
    with pytest.raises(DimensionError):
        tiny_config(decoder=(4,))  # must end at n_features
    with pytest.raises(ConfigError):
        tiny_config(lam3=-0.1)
    with pytest.raises(ConfigError):
        tiny_config(horizon=0)
    with pytest.raises(ConfigError):
        tiny_config(encoder=())
    cfg = tiny_config()
    assert cfg.d_z == 4
    assert cfg.layer_dims() == [(3, 4), (4, 3)]


def test_forward_shapes_and_probabilities():
    cfg = tiny_config()
    params = build_params(cfg)
    batch = toy_batch()
    recon, probs, latent = model_forward(batch, params, cfg)
    assert recon.shape == batch.windows.shape
    assert probs.shape == (len(batch), 2)
    assert latent.shape == (len(batch), 4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)
    with pytest.raises(DimensionError):
        model_forward(WindowBatch(np.zeros((2, 5, 4)), np.zeros(2, int)),
                      params, cfg)


def test_a_model_takes_windows_of_its_training_length_only():
    with pytest.raises(DimensionError, match="window length"):
        train(toy_batch(), None, tiny_config(horizon=6))
    model = train(toy_batch(), None, tiny_config(epochs=1))
    assert model.predict(toy_batch()).shape == (10,)
    for length in (4, 6):
        with pytest.raises(DimensionError,
                           match=f"{length} samples, the model was "
                                 f"trained on 5"):
            model.predict(np.zeros((2, length, 3)))


@pytest.mark.parametrize("encoder,horizon", [
    ((4,), 5), ((4, 2), 5), ((4,), 1), ((4, 2), 1)])
def test_predict_proba_equals_full_forward_exactly(encoder, horizon):
    cfg = tiny_config(encoder=encoder, horizon=horizon)
    rng = np.random.default_rng(10 * len(encoder) + horizon)
    x = rng.normal(size=(9, horizon, 3))
    # float64 parameters, and the float32 copy TrainedModel.predict runs
    for dtype in (np.float64, np.float32):
        params = build_params(cfg).astype(dtype)
        _, probs, _ = model_forward(x.astype(dtype), params, cfg)
        assert probs.dtype == dtype
        np.testing.assert_array_equal(
            predict_proba(params, x.astype(dtype)), probs)


def test_predict_skips_the_cached_forward_pass(monkeypatch):
    calls = []
    cached = fddkit.model.lstm_forward_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return cached(*args, **kwargs)

    monkeypatch.setattr(fddkit.model, "lstm_forward_batch", counted)
    params = build_params(tiny_config())
    batch = toy_batch()
    predict(params, batch)
    assert calls == []
    # the counter does see the training-side pass: encoder plus decoder
    model_forward(batch, params)
    assert len(calls) == 2


def sae_loss_oracle(recon, inputs, probs, labels, lam1, lam2, lam3, params):
    """Term-by-term loop implementation, no vectorization."""
    n = recon.shape[0]
    mse = 0.0
    for s in range(n):
        for t in range(recon.shape[1]):
            for j in range(recon.shape[2]):
                mse += (inputs[s, t, j] - recon[s, t, j]) ** 2
    ce = 0.0
    for s in range(n):
        ce -= math.log(max(probs[s, labels[s]], 1e-12))
    reg = 0.0
    for layer in params.layers:
        for arr in (layer.W, layer.R):
            for v in arr.ravel():
                reg += v * v
    for v in params.W_c.ravel():
        reg += v * v
    return (lam1 * mse + lam2 * ce + lam3 * reg) / n


def test_sae_loss_matches_loop_oracle():
    rng = np.random.default_rng(4)
    cfg = tiny_config()
    params = build_params(cfg)
    recon = rng.normal(size=(6, 5, 3))
    inputs = rng.normal(size=(6, 5, 3))
    probs = rng.dirichlet(np.ones(2), size=6)
    labels = rng.integers(0, 2, size=6)
    got = sae_loss(recon, inputs, probs, labels, 0.7, 1.3, 0.2, params)
    want = sae_loss_oracle(recon, inputs, probs, labels, 0.7, 1.3, 0.2, params)
    assert abs(got - want) < 1e-12


def test_sae_loss_special_cases():
    cfg = tiny_config()
    params = build_params(cfg)
    x = np.random.default_rng(0).normal(size=(4, 5, 3))
    labels = np.array([0, 1, 0, 1])
    perfect = np.zeros((4, 2))
    perfect[np.arange(4), labels] = 1.0

    # Every term vanishes.
    assert sae_loss(x, x, perfect, labels, 1.0, 1.0, 0.0, params) == 0.0

    # Pure regularizer left over.
    reg = sum(float(np.sum(l.W ** 2) + np.sum(l.R ** 2)) for l in params.layers)
    reg += float(np.sum(params.W_c ** 2))
    got = sae_loss(x, x, perfect, labels, 1.0, 1.0, 0.5, params)
    assert math.isclose(got, 0.5 * reg / 4, rel_tol=1e-15)

    # Uniform probabilities over 21 classes cost ln 21 each.
    probs21 = np.full((4, 21), 1.0 / 21.0)
    got = sae_loss(x, x, probs21, labels, 0.0, 2.0, 0.0, params)
    assert math.isclose(got, 2.0 * math.log(21.0), rel_tol=1e-12)

    with pytest.raises(ConfigError):
        sae_loss(x, x, perfect, labels, -1.0, 1.0, 0.0, params)


def test_loss_reduces_to_mean_cross_entropy():
    # lam1 = lam3 = 0: objective is exactly mean softmax cross-entropy.
    rng = np.random.default_rng(9)
    cfg = tiny_config(lam1=0.0, lam2=1.0, lam3=0.0)
    params = build_params(cfg)
    batch = toy_batch()
    recon, probs, _ = model_forward(batch, params, cfg)
    got = sae_loss(recon, batch.windows, probs, batch.labels, 0.0, 1.0, 0.0,
                   params)
    want = -np.mean(np.log(probs[np.arange(len(batch)), batch.labels]))
    assert abs(got - want) < 1e-12


def test_regularization_is_monotone_in_lam3():
    rng = np.random.default_rng(1)
    cfg = tiny_config()
    params = build_params(cfg)
    batch = toy_batch()
    recon, probs, _ = model_forward(batch, params, cfg)
    lams = [0.0, 1e-4, 1e-2, 1.0, 10.0]
    vals = [sae_loss(recon, batch.windows, probs, batch.labels, 1.0, 1.0, l3,
                     params) for l3 in lams]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_full_model_gradients_match_finite_differences():
    batch = toy_batch(n_per_class=2, seed=5)
    for trial, (enc, dec) in enumerate([((4,), (3,)), ((4, 3), (3, 3))]):
        cfg = tiny_config(encoder=enc, decoder=dec, seed=50 + trial,
                          lam1=0.6, lam2=1.1, lam3=1e-3)
        params = build_params(cfg)

        def loss_fn(p):
            recon, probs, _ = model_forward(batch, p, cfg)
            return sae_loss(recon, batch.windows, probs, batch.labels,
                            cfg.lam1, cfg.lam2, cfg.lam3, p)

        _, analytic = loss_and_grads(batch.windows, batch.labels, params, cfg)
        numeric = finite_diff_grad(loss_fn, params, eps=1e-5)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-6, f"arch {enc}->{dec}: rel error {err:.3e}"


def test_train_zero_epochs_returns_init():
    cfg = tiny_config(epochs=0)
    model = train(toy_batch(), None, cfg)
    init = build_params(cfg)
    for a, b in zip(model.params.flat_arrays(), init.flat_arrays()):
        np.testing.assert_array_equal(a, b)
    assert model.history == []


def accuracy(model, batch):
    """Accuracy of a trained model on raw windows, through its scaler."""
    return float(np.mean(model.predict(batch) == batch.labels))


def test_train_descends_and_overfits_toy_task():
    batch = toy_batch()
    cfg = tiny_config(epochs=500, learning_rate=0.05)
    model = train(batch, None, cfg)
    assert model.history[-1]["loss"] < model.history[0]["loss"]
    assert accuracy(model, batch) == 1.0
    assert len(model.history) == 500


def test_train_is_deterministic():
    batch = toy_batch()
    cfg = tiny_config(epochs=5)
    m1 = train(batch, batch, cfg)
    m2 = train(batch, batch, cfg)
    for a, b in zip(m1.params.flat_arrays(), m2.params.flat_arrays()):
        np.testing.assert_array_equal(a, b)
    assert m1.history == m2.history


def test_train_returns_best_validation_snapshot():
    rng = np.random.default_rng(6)
    train_b = toy_batch(n_per_class=8, seed=1)
    val_b = toy_batch(n_per_class=4, seed=2)
    cfg = tiny_config(epochs=12, learning_rate=0.08)
    model = train(train_b, val_b, cfg)
    best_hist = max(h["val_accuracy"] for h in model.history)
    assert accuracy(model, val_b) == best_hist


def test_train_fits_its_scaler_on_the_training_windows():
    # shifted and stretched, so standardizing is far from the identity
    raw = toy_batch(n_per_class=6, seed=7)
    raw = WindowBatch(3.0 + 4.0 * raw.windows, raw.labels)
    model = train(raw, None, tiny_config(epochs=2))
    expect = Scaler.fit(raw.windows)
    assert model.scaler.mean.tobytes() == expect.mean.tobytes()
    assert model.scaler.std.tobytes() == expect.std.tobytes()


def test_train_gives_the_bits_of_standardize_then_train():
    # SHA-256 of the parameter bytes that fitting a Scaler on the
    # training windows, scaling both batches with it and training on them
    # gave before train standardized its input itself (single-threaded)
    model = train(toy_batch(n_per_class=6, seed=7),
                  toy_batch(n_per_class=3, seed=8),
                  tiny_config(epochs=6, batch_size=4))
    digest = hashlib.sha256()
    for a in model.params.flat_arrays():
        digest.update(a.tobytes())
    assert digest.hexdigest() == \
        "405b140ca004b23f6b15aa127c7124d1ceef0dfff73f4a8a1592789f737a2f74"


def test_train_scales_each_minibatch_to_the_bits_of_a_scaled_copy(
        monkeypatch):
    # SHA-256 of the parameter bytes and the history that train gave when
    # it standardized whole copies of both batches before its first step
    # (single-threaded); the validation batch here spans several predict
    # chunks of 10 windows
    monkeypatch.setattr(fddkit.model, "PREDICT_CHUNK_VALUES", 10 * 8 * 52)
    rng = np.random.default_rng(19)
    shift = rng.normal(size=(4, 1, 52))
    labels = rng.integers(4, size=90)
    windows = 2.0 + 3.0 * rng.normal(size=(90, 8, 52)) + shift[labels]
    train_b = WindowBatch(windows[:50], labels[:50])
    val_b = WindowBatch(windows[50:], labels[50:])
    cfg = ModelConfig(encoder=(6,), decoder=(52,), n_features=52,
                      n_classes=4, horizon=8, epochs=4, batch_size=16,
                      learning_rate=0.05, seed=5)
    model = train(train_b, val_b, cfg)
    digest = hashlib.sha256()
    for a in model.params.flat_arrays():
        digest.update(a.tobytes())
    digest.update(repr(model.history).encode())
    assert digest.hexdigest() == \
        "82f096dadb92ce1c1f7cda99ea044a41cd93087fca9baf6bff502a28acfe89d1"


def test_train_raises_on_divergence():
    cfg = tiny_config(epochs=2, learning_rate=1e160, batch_size=4)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericDivergenceError, match="epoch"):
            train(toy_batch(), None, cfg)


@pytest.mark.parametrize("lr", [1e19, 1e25, 3e38, 1e160, 1e300])
def test_train_reports_every_float32_overflow_as_divergence(lr):
    # weights from about 1e19 up overflow the float32 step somewhere:
    # its loss, its products or the cast itself
    cfg = tiny_config(epochs=2, learning_rate=lr, batch_size=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDivergenceError, match="epoch 0"):
            train(toy_batch(), None, cfg)


def test_train_steps_in_float32_and_returns_float64_bytes_deterministically(
        monkeypatch):
    seen = []
    real = fddkit.model.loss_and_grads

    def recording(windows, labels, params, config):
        seen.append(params.dtype)
        loss, grads = real(windows, labels, params, config)
        seen.append(grads.dtype)
        return loss, grads

    monkeypatch.setattr(fddkit.model, "loss_and_grads", recording)
    batch = toy_batch(n_per_class=6, seed=5)
    cfg = tiny_config(epochs=4, batch_size=4)
    m1 = train(batch, batch, cfg)
    m2 = train(batch, batch, cfg)
    assert seen and all(dtype == np.float32 for dtype in seen)
    assert all(a.dtype == np.float64 for a in m1.params.flat_arrays())
    assert [a.tobytes() for a in m1.params.flat_arrays()] == \
        [a.tobytes() for a in m2.params.flat_arrays()]
    assert m1.history == m2.history


def loss_and_grads_case():
    cfg = ModelConfig(encoder=(5, 4), decoder=(3,), n_features=3,
                      n_classes=3, horizon=6, seed=21, lam3=1e-3)
    rng = np.random.default_rng(22)
    return (cfg, build_params(cfg), rng.normal(size=(8, 6, 3)),
            rng.integers(3, size=8))


def test_loss_and_grads_float32_returns_float32_gradients():
    cfg, params, x, y = loss_and_grads_case()
    loss64, grads64 = loss_and_grads(x, y, params, cfg)
    loss32, grads32 = loss_and_grads(x, y, params.astype(np.float32), cfg)
    assert all(g.dtype == np.float32 for g in grads32.flat_arrays())
    assert math.isclose(loss32, loss64, rel_tol=1e-5)
    assert max_rel_error(grads32.astype(np.float64), grads64) < 1e-5


def test_loss_and_grads_float64_bytes_are_pinned():
    # SHA-256 of the loss and every gradient array, taken at the commit
    # before the passes learned float32 (single-threaded); float64
    # parameters must still give exactly these bytes.
    cfg, params, x, y = loss_and_grads_case()
    loss, grads = loss_and_grads(x, y, params, cfg)
    digest = hashlib.sha256(np.float64(loss).tobytes())
    for g in grads.flat_arrays():
        digest.update(g.tobytes())
    assert digest.hexdigest() == \
        "3d5e93ccd138b1ba2ec44d3a5153d7593810db039966f157905d40617bb00f9f"


def test_tune_budget_one_returns_sampled_config():
    batch = toy_batch()
    cfg = tune(batch, batch, {"learning_rate": [0.25]}, budget=1,
               base=tiny_config(epochs=7))
    assert cfg.learning_rate == 0.25
    assert cfg.epochs == 7


def test_epochs_and_budget_are_bounded():
    # a huge count trained, or sampled trials, until the process was killed
    assert tiny_config(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS
    with pytest.raises(ConfigError, match="'epochs'"):
        tiny_config(epochs=MAX_EPOCHS + 1)
    batch = toy_batch()
    for budget in (0, MAX_BUDGET + 1):
        with pytest.raises(ConfigError, match="'budget'"):
            tune(batch, batch, {"learning_rate": [0.25]}, budget,
                 tiny_config())


def logged_trials(monkeypatch, base):
    """The trial log of the next tune call around base, filled in as
    tune trains: per trial fit, the trial index (its seed offset),
    the stage's epoch count and the fit's best val accuracy, which is
    what tune scores the trial by."""
    log = []
    real = fddkit.model.train

    def logged(train_batch, val_batch, cfg):
        model = real(train_batch, val_batch, cfg)
        log.append({"trial": cfg.seed - base.seed, "stage_epochs": cfg.epochs,
                    "val_accuracy": max(row["val_accuracy"]
                                        for row in model.history)})
        return model

    monkeypatch.setattr(fddkit.model, "train", logged)
    return log


def test_tune_winner_has_best_final_stage_accuracy(monkeypatch):
    train_b = toy_batch(n_per_class=6, seed=3)
    val_b = toy_batch(n_per_class=3, seed=4)
    space = {"learning_rate": [0.2, 0.05, 1e-5]}
    base = tiny_config(epochs=9)
    log = logged_trials(monkeypatch, base)
    best = tune(train_b, val_b, space, budget=4, base=base)
    last_stage = max(rec["stage_epochs"] for rec in log)
    finals = [rec for rec in log if rec["stage_epochs"] == last_stage]
    winner = [rec for rec in finals
              if rec["val_accuracy"] == max(r["val_accuracy"] for r in finals)]
    assert best.learning_rate in [0.2, 0.05, 1e-5]
    assert best.epochs == 9
    assert any(w["val_accuracy"] >= r["val_accuracy"]
               for w in winner for r in finals)
    with pytest.raises(ConfigError):
        tune(train_b, val_b, {}, budget=2, base=tiny_config())


def test_tune_scores_trials_from_training_history(monkeypatch):
    train_b = toy_batch(n_per_class=6, seed=3)
    val_b = toy_batch(n_per_class=3, seed=4)
    base = tiny_config(epochs=9)
    calls = []
    scored = fddkit.model.batch_accuracy

    def counted(*args, **kwargs):
        calls.append(1)
        return scored(*args, **kwargs)

    monkeypatch.setattr(fddkit.model, "batch_accuracy", counted)
    log = logged_trials(monkeypatch, base)
    best = tune(train_b, val_b, {"learning_rate": [0.05]}, budget=4,
                base=base)
    # one validation pass per epoch trained, none after a trial
    assert len(calls) == sum(rec["stage_epochs"] for rec in log)
    monkeypatch.undo()

    # each score is what the trained trial model scores on val_b
    for rec in log:
        cfg = replace(base, seed=base.seed + rec["trial"],
                      learning_rate=0.05, epochs=rec["stage_epochs"])
        model = train(train_b, val_b, cfg)
        assert rec["val_accuracy"] == accuracy(model, val_b)
    finals = [rec for rec in log
              if rec["stage_epochs"] == log[-1]["stage_epochs"]]
    winner = min(finals, key=lambda rec: (-rec["val_accuracy"], rec["trial"]))
    assert best == replace(base, seed=base.seed + winner["trial"],
                           learning_rate=0.05)


def test_default_search_space_learning_rates():
    assert DEFAULT_SEARCH_SPACE["learning_rate"] == [1e-1, 2e-1, 3e-1, 1e-2]


def test_forward_snapshot_reproduces():
    # Golden values produced once by this implementation (single-threaded)
    # and frozen; any numeric drift in the forward pass fails here.
    cfg = ModelConfig(encoder=(3,), decoder=(2,), n_features=2, n_classes=2,
                      horizon=4, seed=2024)
    params = build_params(cfg)
    x = np.array([[[0.1, -0.2], [0.3, 0.0], [-0.1, 0.2], [0.05, -0.05]]])
    recon, probs, latent = model_forward(x, params, cfg)
    np.testing.assert_array_equal(
        recon[0, -1], [0.019286070770555136, 0.007329861927959101])
    np.testing.assert_array_equal(
        probs[0], [0.4981430381868004, 0.5018569618131997])
    np.testing.assert_array_equal(
        latent[0], [-0.03639947660598959, -0.029703066022225288,
                    0.05424758241755028])


@pytest.mark.parametrize("d_h", [12, 16])
def test_predict_in_chunks_gives_the_one_chunk_bits(monkeypatch, d_h):
    rng = np.random.default_rng(d_h)
    windows = 0.5 + 2.0 * rng.normal(size=(103, 15, 52))
    cfg = ModelConfig(encoder=(d_h,), decoder=(52,), n_features=52,
                      n_classes=5, horizon=15, seed=d_h)
    model = TrainedModel(cfg, build_params(cfg), [], Scaler.fit(windows))
    chunks = []
    real = fddkit.model.predict_proba

    def recording(params, chunk):
        chunks.append(real(params, chunk))
        return chunks[-1]

    monkeypatch.setattr(fddkit.model, "predict_proba", recording)
    whole = model.predict(windows)
    [whole_probs] = chunks
    chunks.clear()
    # 12 chunks of 9 and 8 windows, none above the limit
    monkeypatch.setattr(fddkit.model, "PREDICT_CHUNK_VALUES", 9 * 15 * 52)
    assert model.predict(windows).tobytes() == whole.tobytes()
    assert np.concatenate(chunks).tobytes() == whole_probs.tobytes()
    assert sorted({len(c) for c in chunks}) == [8, 9]
    # a one-window product would take another BLAS path, so even a limit
    # below one window leaves at least two per chunk
    monkeypatch.setattr(fddkit.model, "PREDICT_CHUNK_VALUES", 1)
    for n, sizes in ((1, [1]), (2, [2]), (3, [3]), (5, [3, 2])):
        chunks.clear()
        model.predict(windows[:n])
        assert [len(c) for c in chunks] == sizes


def test_predict_memory_is_bounded_by_the_chunk_not_the_batch():
    # 62.4 MB of 52-channel windows of 150 steps: scaling and projecting
    # them whole took 160 MB above the input; chunks take about 20 MB
    cfg = ModelConfig(encoder=(16,), decoder=(52,), n_features=52,
                      n_classes=21, horizon=150, seed=1)
    windows = np.random.default_rng(1).normal(size=(1000, 150, 52))
    model = TrainedModel(cfg, build_params(cfg), [],
                         Scaler.fit(windows[:100]))
    tracemalloc.start()
    try:
        model.predict(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


def test_model_save_load_round_trip(tmp_path):
    batch = toy_batch()
    cfg = tiny_config(epochs=3)
    model = train(batch, batch, cfg)
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.config == model.config
    for a, b in zip(back.params.flat_arrays(), model.params.flat_arrays()):
        np.testing.assert_array_equal(a, b)
    assert back.history == model.history
    np.testing.assert_array_equal(back.predict(batch), model.predict(batch))


@pytest.mark.parametrize("as_batch", [False, True])
def test_trained_model_predict_applies_its_own_scaler(as_batch):
    cfg = tiny_config(n_classes=3)
    scaler = Scaler(mean=[0.5, -1.0, 0.0], std=[2.0, 0.5, 0.1])
    model = TrainedModel(cfg, build_params(cfg), [], scaler)
    raw = toy_batch(n_per_class=16, seed=4)
    # float64 standardization, then the float32 pass of a training step
    expect = predict(model.params.astype(np.float32),
                     scaler.apply(raw.windows))
    got = model.predict(raw if as_batch else raw.windows)
    assert got.tobytes() == expect.tobytes()
    # the scaler moves some predictions, so it was applied exactly once
    assert not np.array_equal(expect, predict(model.params, raw.windows))
    assert not np.array_equal(
        expect, predict(model.params, scaler.apply(scaler.apply(raw.windows))))
