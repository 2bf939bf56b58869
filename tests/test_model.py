import math

import numpy as np
import pytest

from fddkit.dataio import WindowBatch
from fddkit.errors import (ConfigError, DimensionError,
                           NumericDivergenceError)
import fddkit.model
from fddkit.model import (DEFAULT_SEARCH_SPACE, ModelConfig, build_params,
                          load_model, loss_and_grads, model_forward,
                          predict, predict_proba, sae_loss, save_model,
                          train, tune)
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


@pytest.mark.parametrize("encoder,horizon", [
    ((4,), 5), ((4, 2), 5), ((4,), 1), ((4, 2), 1)])
def test_predict_proba_equals_full_forward_exactly(encoder, horizon):
    cfg = tiny_config(encoder=encoder, horizon=horizon)
    params = build_params(cfg)
    rng = np.random.default_rng(10 * len(encoder) + horizon)
    x = rng.normal(size=(9, horizon, 3))
    _, probs, _ = model_forward(x, params, cfg)
    np.testing.assert_array_equal(predict_proba(params, x), probs)


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


def test_train_descends_and_overfits_toy_task():
    batch = toy_batch()
    cfg = tiny_config(epochs=500, learning_rate=0.05)
    model = train(batch, None, cfg)
    assert model.history[-1]["loss"] < model.history[0]["loss"]
    assert model.accuracy(batch) == 1.0
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
    assert model.accuracy(val_b) == best_hist


def test_train_raises_on_divergence():
    cfg = tiny_config(epochs=2, learning_rate=1e160, batch_size=4)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericDivergenceError, match="epoch"):
            train(toy_batch(), None, cfg)


def test_tune_budget_one_returns_sampled_config():
    batch = toy_batch()
    cfg = tune(batch, batch, {"learning_rate": [0.25]}, budget=1,
               base=tiny_config(epochs=7))
    assert cfg.learning_rate == 0.25
    assert cfg.epochs == 7


def test_tune_winner_has_best_final_stage_accuracy():
    train_b = toy_batch(n_per_class=6, seed=3)
    val_b = toy_batch(n_per_class=3, seed=4)
    space = {"learning_rate": [0.2, 0.05, 1e-5]}
    best, log = tune(train_b, val_b, space, budget=4,
                     base=tiny_config(epochs=9), return_trials=True)
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
