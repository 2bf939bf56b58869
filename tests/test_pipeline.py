"""Scenario batches, experiment glue, twin-batch evaluation."""

import dataclasses

import numpy as np
import pytest

from fddkit.errors import ConfigError
from fddkit.plant import default_plant
from fddkit.pipeline import (ExperimentSpec, default_excitation,
                             evaluate_classifier, evaluate_hierarchical,
                             excitation_gain, fit_classifier, fit_flat,
                             fit_hierarchical, infer_with_twins,
                             level2_accuracies, scenario_batch,
                             classifier_config, surrogate_benchmark,
                             tune_classifier)

TINY = ExperimentSpec(classes=(0, 1), incipient=(), n_series=1,
                      n_series_level2=1, horizon=120, window=10, onset=40,
                      epochs=2, encoder=(5,))

# classes 3 and 11 keep their stock incipient behavior at this scale
SMALL_HIER = ExperimentSpec(classes=(0, 1, 3, 11), incipient=(3, 11),
                            n_series=1, n_series_level2=1, horizon=120,
                            window=10, onset=40, epochs=2, encoder=(5,))

PLAN = default_excitation(default_plant())


def test_default_excitation_plan():
    plan = default_excitation(default_plant())
    assert plan.t_clock == 360.0
    assert plan.n_register == 6
    assert plan.period == 63
    assert plan.amplitude == pytest.approx(0.4)
    assert plan.target == "loop1"


def test_default_excitation_needs_the_target_loop():
    plant = default_plant()
    one_loop = dataclasses.replace(
        plant, b=plant.b[:, :1], controlled=plant.controlled[:1],
        setpoints=plant.setpoints[:1],
        setpoint_ranges=plant.setpoint_ranges[:1], kp=plant.kp[:1],
        ki=plant.ki[:1])
    with pytest.raises(ConfigError, match="loop 1"):
        default_excitation(one_loop)


def test_scenario_batch_shapes_and_labels():
    batch = scenario_batch(3, "train", TINY)
    per_series = TINY.horizon - TINY.window + 1
    assert len(batch) == 2 * per_series
    assert batch.windows.shape == (2 * per_series, 10, 10)
    got = sorted(set(batch.labels.tolist()))
    assert got == [0, 1]
    # fault runs contribute pre-onset windows that stay labeled normal
    fault_rows = batch.series == 1
    assert (batch.labels[fault_rows] == 0).sum() > 0


def test_scenario_batch_is_deterministic_and_split_disjoint():
    a = scenario_batch(3, "train", TINY)
    b = scenario_batch(3, "train", TINY)
    c = scenario_batch(3, "test", TINY)
    d = scenario_batch(4, "train", TINY)
    assert a.windows.tobytes() == b.windows.tobytes()
    assert a.windows.tobytes() != c.windows.tobytes()
    assert a.windows.tobytes() != d.windows.tobytes()
    with pytest.raises(ConfigError):
        scenario_batch(3, "holdout", TINY)


def test_twin_batches_align():
    quiet = scenario_batch(2, "test", TINY)
    excited = scenario_batch(2, "test", TINY, prbs=PLAN)
    np.testing.assert_array_equal(quiet.labels, excited.labels)
    np.testing.assert_array_equal(quiet.starts, excited.starts)
    np.testing.assert_array_equal(quiet.series, excited.series)
    assert quiet.windows.tobytes() != excited.windows.tobytes()


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(classes=(1, 2))
    with pytest.raises(ConfigError):
        ExperimentSpec(n_series=50)


def test_fit_and_evaluate_flat():
    model = fit_flat(1, TINY)
    assert model.config.n_classes == 2
    assert model.scaler is not None
    report = evaluate_classifier(model, scenario_batch(1, "test", TINY))
    assert report.cm.total == len(scenario_batch(1, "test", TINY))
    assert 0.0 <= report.far <= 1.0
    again = fit_flat(1, TINY)
    for p, q in zip(model.params.flat_arrays(), again.params.flat_arrays()):
        np.testing.assert_array_equal(p, q)


def test_hierarchical_fit_and_reports():
    hmodel = fit_hierarchical(1, SMALL_HIER)
    # the alphabet stays dense over 0..max even for subset recipes
    assert hmodel.level1.config.n_classes == 10
    assert hmodel.level2.config.n_classes == 3   # normal, 3, 11
    report = evaluate_hierarchical(hmodel, 1, SMALL_HIER)
    assert report.cm.counts.shape == (12, 12)
    excited = evaluate_hierarchical(hmodel, 1, SMALL_HIER, prbs=PLAN)
    assert excited.cm.total == report.cm.total


def test_infer_with_twins_rejects_misalignment():
    hmodel = fit_hierarchical(1, SMALL_HIER)
    quiet = scenario_batch(1, "test", SMALL_HIER)
    other = scenario_batch(2, "test", SMALL_HIER)
    with pytest.raises(ConfigError):
        infer_with_twins(hmodel, quiet, other.take(np.arange(3)))
    # same windows, one label off
    labels = quiet.labels.copy()
    labels[-1] += 1
    with pytest.raises(ConfigError, match="twin batches do not align"):
        infer_with_twins(hmodel, quiet, quiet.relabel(labels))


def test_infer_with_twins_matches_hand_composed_reference():
    hmodel = fit_hierarchical(1, SMALL_HIER, prbs=PLAN)
    quiet = scenario_batch(1, "test", SMALL_HIER)
    probed = scenario_batch(1, "test", SMALL_HIER, prbs=PLAN)
    assert quiet.windows.tobytes() != probed.windows.tobytes()
    l1, l2, lmap = hmodel.level1, hmodel.level2, hmodel.label_map
    pred1 = l1.predict(quiet.windows)
    routed = np.flatnonzero(pred1 == 0)
    assert 0 < routed.size < len(quiet)
    expect = lmap.from_level1(pred1)
    expect[routed] = lmap.from_level2(l2.predict(probed.windows[routed]))
    got = infer_with_twins(hmodel, quiet, probed)
    np.testing.assert_array_equal(got, expect)
    # level 2 read the probed rows: on the quiet rows it answers otherwise
    assert not np.array_equal(got, hmodel.infer_batch(quiet.windows))


def test_level2_accuracies_keys():
    acc = level2_accuracies(1, SMALL_HIER)
    assert sorted(acc) == [0, 3, 11]
    assert all(0.0 <= v <= 1.0 for v in acc.values())


def test_excitation_gain_structure():
    level2 = fit_hierarchical(1, SMALL_HIER).level2
    out = excitation_gain(1, SMALL_HIER, PLAN, level2)
    assert set(out) == {"quiet", "excited", "gain"}
    expect = np.mean([out["excited"][c] - out["quiet"][c]
                      for c in (3, 11)])
    assert out["gain"] == pytest.approx(expect)


def test_benchmark_scores_the_hierarchical_level2_as_standalone():
    # surrogate_benchmark reuses fit_hierarchical's quiet specialist in
    # place of training a standalone one; the scores must not move.
    row = surrogate_benchmark(seeds=(1,), spec=SMALL_HIER)["per_seed"][0]
    assert row["level2_quiet"] == level2_accuracies(1, SMALL_HIER)
    assert row["level2_excited"] == level2_accuracies(1, SMALL_HIER,
                                                      prbs=PLAN)


def test_benchmark_simulates_each_split_once(monkeypatch):
    # the quiet train and test splits feed the flat and the two-level
    # model alike; the rows equal those of the public entry points
    import fddkit.pipeline as pipeline
    runs = []
    real = pipeline.simulate_scenario

    def counting(plant, **kwargs):
        runs.append(kwargs["prbs"] is not None)
        return real(plant, **kwargs)

    monkeypatch.setattr(pipeline, "simulate_scenario", counting)
    row = surrogate_benchmark(seeds=(1,), spec=SMALL_HIER,
                              plan=PLAN)["per_seed"][0]
    # quiet train and test: 4 classes; level 2, quiet and probed train
    # and test: 3 classes each
    assert len(runs) == 2 * 4 + 4 * 3 and sum(runs) == 2 * 3
    monkeypatch.undo()

    flat = evaluate_classifier(fit_flat(1, SMALL_HIER),
                               scenario_batch(1, "test", SMALL_HIER))
    hier = evaluate_hierarchical(fit_hierarchical(1, SMALL_HIER), 1,
                                 SMALL_HIER)
    assert row["flat_incipient"] == np.mean([flat.fdr_by_class[c]
                                             for c in (3, 11)])
    assert row["flat_plain"] == flat.fdr_by_class[1]
    assert row["hier_plain"] == hier.fdr_by_class[1]


def test_tune_classifier_smoke():
    train_b = scenario_batch(1, "train", TINY)
    val_b = scenario_batch(1, "val", TINY)
    cfg = classifier_config(2, 1, TINY, n_features=train_b.n_features)
    model = tune_classifier(train_b, val_b, cfg,
                            search_space={"learning_rate": [0.01, 0.05]},
                            budget=2)
    assert model.config.learning_rate in (0.01, 0.05)
    assert model.config.epochs == cfg.epochs
