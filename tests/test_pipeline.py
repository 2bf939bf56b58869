"""Scenario batches, experiment glue, twin-batch evaluation."""

import dataclasses
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from fddkit.errors import ConfigError
from fddkit.hierarchy import LabelMap
from fddkit.model import train, tune
from fddkit.plant import INCIPIENT_CLASSES, default_plant
from fddkit.pipeline import (ExperimentSpec, classifier_config,
                             default_excitation, evaluate_classifier, fit,
                             fit_hierarchical, hierarchical_report,
                             infer_with_twins, scenario_batch,
                             surrogate_benchmark)

TINY = ExperimentSpec(classes=(0, 1), incipient=(), n_series=1,
                      n_series_level2=1, horizon=120, window=10, onset=40,
                      epochs=2, encoder=(5,))

# classes 3 and 11 keep their stock incipient behavior at this scale
SMALL_HIER = ExperimentSpec(classes=(0, 1, 3, 11), incipient=(3, 11),
                            n_series=1, n_series_level2=1, horizon=120,
                            window=10, onset=40, epochs=2, encoder=(5,))

PLAN = default_excitation(default_plant())


def allow_cpus(monkeypatch, n):
    """Make the pipeline see n CPUs: one fits in-process, more fork
    workers, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


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


def test_level1_batch_is_the_flat_batch_under_level1_labels():
    flat = scenario_batch(2, "train", SMALL_HIER)
    level1 = scenario_batch(2, "train", SMALL_HIER, "level1")
    assert level1.windows.tobytes() == flat.windows.tobytes()
    # classes 3 and 11 join the normal class at label 0
    table = dict(zip((0, 1, 3, 11), (0, 1, 0, 0)))
    np.testing.assert_array_equal(
        level1.labels, [table[c] for c in flat.labels])
    np.testing.assert_array_equal(level1.series, flat.series)


def test_level2_batch_is_the_merged_group_at_its_run_count():
    spec = dataclasses.replace(SMALL_HIER, n_series_level2=2)
    batch = scenario_batch(2, "train", spec, "level2")
    group = spec.label_map.classes("level2")
    assert len(set(batch.series.tolist())) == len(group) * 2
    assert set(batch.labels.tolist()) == set(range(len(group)))


def test_probed_level2_batch_is_the_quiet_ones_twin():
    quiet = scenario_batch(2, "test", SMALL_HIER, "level2")
    probed = scenario_batch(2, "test", SMALL_HIER, "level2", PLAN)
    np.testing.assert_array_equal(quiet.labels, probed.labels)
    np.testing.assert_array_equal(quiet.starts, probed.starts)
    np.testing.assert_array_equal(quiet.series, probed.series)
    assert quiet.windows.tobytes() != probed.windows.tobytes()


def test_scenario_batch_rejects_an_unknown_mode():
    with pytest.raises(ConfigError, match="'level_1'"):
        scenario_batch(2, "train", TINY, "level_1")


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(classes=(1, 2))
    with pytest.raises(ConfigError):
        ExperimentSpec(n_series=50)


@pytest.mark.parametrize("cls", [13, 15, -1])
def test_spec_rejects_a_class_outside_the_fault_library(cls):
    with pytest.raises(ConfigError, match=f"class {cls} .* 0 to 12"):
        ExperimentSpec(classes=(0, cls))


@pytest.mark.parametrize("classes, incipient, missing", [
    ((0, 1, 2, 5), (3,), [3]),
    ((0, 1, 2), INCIPIENT_CLASSES, [3, 9, 11]),
])
def test_spec_rejects_incipient_classes_outside_its_classes(
        classes, incipient, missing):
    # level 2 would simulate classes the router never sees, and a flat
    # fit would fail only after simulating its training split
    with pytest.raises(ConfigError,
                       match=re.escape(f"incipient classes {missing}")):
        ExperimentSpec(classes=classes, incipient=incipient)


def test_spec_builds_its_label_map_once():
    assert SMALL_HIER.label_map is SMALL_HIER.label_map
    assert SMALL_HIER.label_map == LabelMap((3, 11), 12)
    spec = dataclasses.replace(SMALL_HIER, incipient=(3,))
    assert spec.label_map == LabelMap((3,), 12)
    assert "label_map" not in repr(spec)


def test_fit_and_evaluate_flat():
    model = fit(1, TINY)
    assert model.config.n_classes == 2
    assert model.scaler is not None
    report = evaluate_classifier(model, scenario_batch(1, "test", TINY))
    assert report.cm.total == len(scenario_batch(1, "test", TINY))
    assert 0.0 <= report.far <= 1.0
    again = fit(1, TINY)
    for p, q in zip(model.params.flat_arrays(), again.params.flat_arrays()):
        np.testing.assert_array_equal(p, q)


def test_hierarchical_fit_and_reports():
    hmodel = fit_hierarchical(1, SMALL_HIER)
    # the alphabet stays dense over 0..max even for subset recipes
    assert hmodel.level1.config.n_classes == 10
    assert hmodel.level2.config.n_classes == 3   # normal, 3, 11
    quiet = scenario_batch(1, "test", SMALL_HIER)
    report = hierarchical_report(hmodel, quiet, quiet)
    assert report.cm.counts.shape == (12, 12)
    excited = hierarchical_report(
        hmodel, quiet, scenario_batch(1, "test", SMALL_HIER, prbs=PLAN))
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
    expect = lmap.original(pred1, "level1")
    expect[routed] = lmap.original(l2.predict(probed.windows[routed]),
                                   "level2")
    got = infer_with_twins(hmodel, quiet, probed)
    np.testing.assert_array_equal(got, expect)
    # level 2 read the probed rows: on the quiet rows it answers otherwise
    assert not np.array_equal(got, infer_with_twins(hmodel, quiet, quiet))


def test_fit_trains_a_standalone_level2_specialist():
    model = fit(1, SMALL_HIER, "level2")
    assert model.config.n_classes == 3   # normal, 3, 11
    test_b = scenario_batch(1, "test", SMALL_HIER, "level2")
    report = evaluate_classifier(model, test_b)
    assert sorted(report.fdr_by_class) == [0, 1, 2]
    assert all(0.0 <= v <= 1.0 for v in report.fdr_by_class.values())


def test_benchmark_scores_the_hierarchical_level2_as_standalone():
    # surrogate_benchmark reuses fit_hierarchical's quiet specialist in
    # place of training a standalone one; the scores must not move.
    def standalone(prbs):
        """Per-class accuracy, keyed by original class, of a level-2
        specialist trained and tested on records taken with prbs."""
        model = fit(1, SMALL_HIER, "level2", prbs)
        test_b = scenario_batch(1, "test", SMALL_HIER, "level2", prbs)
        preds, labels = model.predict(test_b), test_b.labels
        return {orig: float(np.mean(preds[labels == k] == k))
                for k, orig in enumerate((0, 3, 11))}

    row = surrogate_benchmark(seeds=(1,), spec=SMALL_HIER)["per_seed"][0]
    quiet, excited = standalone(None), standalone(PLAN)
    assert row["level2_quiet"] == quiet
    assert row["level2_excited"] == excited
    assert row["gain"] == np.mean([excited[c] - quiet[c] for c in (3, 11)])


def test_benchmark_simulates_each_split_once(monkeypatch, tmp_path):
    # the quiet train and test splits feed the flat and the two-level
    # model alike; the rows equal those of the public entry points.
    # The level-2 training splits are simulated in worker processes, so
    # every run appends a line to a file.
    import fddkit.pipeline as pipeline
    log = tmp_path / "runs"
    real = pipeline.simulate_scenario

    def counting(plant, **kwargs):
        with open(log, "a") as f:
            f.write(f"{kwargs['prbs'] is not None:d}\n")
        return real(plant, **kwargs)

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "simulate_scenario", counting)
    row = surrogate_benchmark(seeds=(1,), spec=SMALL_HIER,
                              plan=PLAN)["per_seed"][0]
    runs = [line == "1" for line in log.read_text().split()]
    # quiet train and test: 4 classes; level 2, quiet and probed train
    # and test: 3 classes each
    assert len(runs) == 2 * 4 + 4 * 3 and sum(runs) == 2 * 3
    monkeypatch.undo()

    test_b = scenario_batch(1, "test", SMALL_HIER)
    flat = evaluate_classifier(fit(1, SMALL_HIER), test_b)
    hier = hierarchical_report(fit_hierarchical(1, SMALL_HIER), test_b,
                               test_b)
    assert row["flat_incipient"] == np.mean([flat.fdr_by_class[c]
                                             for c in (3, 11)])
    assert row["flat_plain"] == flat.fdr_by_class[1]
    assert row["hier_plain"] == hier.fdr_by_class[1]


def test_pooled_fits_equal_in_process_fits(monkeypatch):
    def outputs():
        bench = surrogate_benchmark(seeds=(1,), spec=SMALL_HIER, plan=PLAN)
        hmodel = fit_hierarchical(1, SMALL_HIER, prbs=PLAN)
        assert multiprocessing.active_children() == []
        models = (hmodel.level1, hmodel.level2)
        # repr, so that the NaN validation accuracies compare equal; a
        # float's repr reads back to the same bits
        return repr((bench, [m.history for m in models])), [
            a.tobytes() for m in models for a in m.params.flat_arrays()]

    allow_cpus(monkeypatch, 1)
    in_process = outputs()
    allow_cpus(monkeypatch, 2)
    assert outputs() == in_process


@pytest.mark.parametrize("entry", ["surrogate_benchmark", "fit_hierarchical"])
def test_a_fit_failing_in_a_worker_raises_in_the_caller(monkeypatch,
                                                         tmp_path, entry):
    # forked workers inherit the patched function
    import fddkit.pipeline as pipeline
    pids = tmp_path / "pids"

    real = pipeline.fit

    def failing(seed, spec, mode="flat", prbs=None):
        if mode != "level2":
            return real(seed, spec, mode, prbs)
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        raise ConfigError("level-2 data unusable")

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "fit", failing)
    call = {"surrogate_benchmark": lambda: surrogate_benchmark(
                seeds=(1,), spec=SMALL_HIER, plan=PLAN),
            "fit_hierarchical": lambda: fit_hierarchical(1, SMALL_HIER)}
    with pytest.raises(ConfigError) as info:
        call[entry]()
    assert type(info.value) is ConfigError
    assert str(info.value) == "level-2 data unusable"
    assert str(os.getpid()) not in pids.read_text().split()
    assert multiprocessing.active_children() == []


def test_a_failing_fit_stops_the_other_workers(monkeypatch):
    import fddkit.pipeline as pipeline

    def failing(seed, spec, mode="flat", prbs=None):
        if mode == "level1":
            raise ConfigError("level-1 data unusable")
        time.sleep(60)

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "fit", failing)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="level-1 data unusable"):
        fit_hierarchical(1, SMALL_HIER)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_in_the_caller(monkeypatch):
    import fddkit.pipeline as pipeline
    real = pipeline.fit

    def dying(seed, spec, mode="flat", prbs=None):
        if mode == "level2":
            os._exit(3)
        return real(seed, spec, mode, prbs)

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "fit", dying)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        fit_hierarchical(1, SMALL_HIER)
    assert multiprocessing.active_children() == []


def test_tune_classifier_smoke():
    train_b = scenario_batch(1, "train", TINY)
    val_b = scenario_batch(1, "val", TINY)
    cfg = classifier_config(2, 1, TINY, n_features=train_b.n_features)
    best = tune(train_b, val_b, {"learning_rate": [0.01, 0.05]}, 2, cfg)
    assert best.learning_rate in (0.01, 0.05)
    assert best.epochs == cfg.epochs
    assert train(train_b, val_b, best).config == best
