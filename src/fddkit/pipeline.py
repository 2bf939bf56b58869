"""Experiment glue from plant scenarios to trained classifiers.

Everything here is a deterministic function of (seed, recipe): scenario
series get their plant seeds from the split name and the experiment
seed, so train/val/test data never share a noise stream, and an excited
batch built with the same arguments is the sample-aligned twin of its
quiet counterpart.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import Scaler, concat_batches, make_windows
from .errors import ConfigError
from .hierarchy import HierarchicalModel, LabelMap
from .metrics import build_report, confusion
from .model import (DEFAULT_SEARCH_SPACE, ModelConfig, train, tune)
from .plant import (INCIPIENT_CLASSES, _target_loop, default_fault_library,
                    default_plant, simulate_scenario)
from .prbs import design_band, plan_from_band

SPLIT_BASES = {"train": 0, "val": 400_000, "test": 800_000}

SURROGATE_CLASSES = tuple(range(13))

# Dominant open-loop settling of the surrogate is ~10 samples; the tuned
# loops close roughly twice as fast. Both in seconds of plant time.
SURROGATE_TAU_OL = 1800.0
SURROGATE_TAU_CL = 1030.0


def default_excitation(plant):
    """The stock set-point excitation plan for a surrogate plant: loop 1,
    at 2 % of that loop's set-point range."""
    band = design_band(SURROGATE_TAU_OL, SURROGATE_TAU_CL,
                       omega_nyquist=np.pi / plant.t_s)
    target = "loop1"
    loop = _target_loop(target, plant.n_loops)
    return plan_from_band(band, plant.t_s,
                          amplitude=0.02 * plant.setpoint_ranges[loop],
                          target=target)


@dataclass(frozen=True)
class ExperimentSpec:
    """Data and model recipe shared by the experiment entry points."""

    classes: tuple = SURROGATE_CLASSES
    incipient: tuple = INCIPIENT_CLASSES
    n_series: int = 2          # scenario runs per class per split
    n_series_level2: int = 4   # the specialist needs more quiet-group runs
    horizon: int = 500         # samples per scenario run
    window: int = 20
    onset: int = 100
    epochs: int = 20
    learning_rate: float = 0.02
    batch_size: int = 128
    encoder: tuple = (12,)
    decoder: tuple = None      # None: single layer sized to the features
    plant_factory: object = default_plant

    def __post_init__(self):
        if len(self.classes) > 20 or self.n_series > 20 \
                or self.n_series_level2 > 20:
            raise ConfigError("scenario recipe exceeds the seed block size")
        if 0 not in self.classes:
            raise ConfigError("the normal class must be part of the recipe")

    @property
    def label_map(self):
        """The two level alphabets over the dense classes 0..max."""
        return LabelMap(self.incipient, max(self.classes) + 1)

    def fault_library(self):
        return default_fault_library(onset=self.onset)


def scenario_batch(seed, split, spec=ExperimentSpec(), classes=None,
                   prbs=None):
    """Windowed data for one split, one series per (class, repeat) pair.

    classes defaults to the full recipe; passing a subset (the merged
    group) also bumps the series count to the level-2 setting.
    """
    if split not in SPLIT_BASES:
        raise ConfigError(f"unknown split {split!r}")
    base = SPLIT_BASES[split] + 1000 * int(seed)
    lib = spec.fault_library()
    use_classes = spec.classes if classes is None else classes
    n_series = spec.n_series if classes is None else spec.n_series_level2
    parts = []
    for i, cls in enumerate(use_classes):
        for r in range(n_series):
            plant = spec.plant_factory(seed=base + i + 20 * r)
            fault = None if cls == 0 else lib[cls]
            ds = simulate_scenario(plant, fault=fault, prbs=prbs,
                                   horizon=spec.horizon)
            parts.append(make_windows(ds.records, ds.labels, spec.window))
    # concat_batches renumbers series ids, one per scenario run
    return concat_batches(parts)


def classifier_config(n_classes, seed, spec=ExperimentSpec(),
                      n_features=10):
    decoder = spec.decoder if spec.decoder is not None else (n_features,)
    return ModelConfig(
        encoder=tuple(spec.encoder),
        decoder=tuple(decoder),
        n_features=n_features,
        n_classes=n_classes,
        horizon=spec.window,
        learning_rate=spec.learning_rate,
        epochs=spec.epochs,
        batch_size=spec.batch_size,
        seed=int(seed),
    )


def _standardized(batch):
    """The batch standardized on its own statistics, and that scaler."""
    scaler = Scaler.fit(batch.windows)
    return batch.scaled(scaler), scaler


def fit_classifier(train_batch, config, val_batch=None):
    """Standardize on the training split, then train."""
    scaled_train, scaler = _standardized(train_batch)
    scaled_val = val_batch.scaled(scaler) if val_batch is not None else None
    return train(scaled_train, scaled_val, config, scaler=scaler)


def tune_classifier(train_batch, val_batch, config, search_space=None,
                    budget=4):
    """Successive-halving search, then a full fit at the winning config."""
    scaled_train, scaler = _standardized(train_batch)
    space = DEFAULT_SEARCH_SPACE if search_space is None else search_space
    scaled_val = val_batch.scaled(scaler)
    best = tune(scaled_train, scaled_val, space, budget, config)
    return train(scaled_train, scaled_val, best, scaler=scaler)


def evaluate_classifier(model, batch, metadata=None):
    preds = model.predict(batch)
    cm = confusion(batch.labels, preds, model.config.n_classes)
    return build_report(cm, normal=0, metadata=metadata)


def fit_flat(seed, spec=ExperimentSpec()):
    return _fit_flat(seed, spec,
                     *_standardized(scenario_batch(seed, "train", spec)))


def _fit_flat(seed, spec, scaled_train, scaler):
    """The flat classifier on the standardized quiet training split."""
    cfg = classifier_config(max(spec.classes) + 1, seed, spec,
                            n_features=scaled_train.n_features)
    return train(scaled_train, None, cfg, scaler=scaler)


def fit_hierarchical(seed, spec=ExperimentSpec(), prbs=None):
    """Level-1 router on quiet data; level-2 specialist on the merged
    group, excited when a plan is given."""
    level1 = _fit_level1(
        seed, spec, *_standardized(scenario_batch(seed, "train", spec)))
    return HierarchicalModel(level1, _fit_level2(seed, spec, prbs),
                             spec.label_map)


def _fit_level1(seed, spec, scaled_train, scaler):
    """The level-1 router on the standardized quiet training split."""
    lmap = spec.label_map
    cfg1 = classifier_config(lmap.n_level1, seed, spec,
                             n_features=scaled_train.n_features)
    return train(scaled_train.relabel(lmap.to_level1(scaled_train.labels)),
                 None, cfg1, scaler=scaler)


def _fit_level2(seed, spec, prbs):
    """The level-2 specialist on the merged group's training split."""
    lmap = spec.label_map
    sub_train = scenario_batch(seed, "train", spec,
                               classes=lmap.level2_classes, prbs=prbs)
    cfg2 = classifier_config(lmap.n_level2, seed, spec,
                             n_features=sub_train.n_features)
    return fit_classifier(sub_train.relabel(lmap.to_level2(sub_train.labels)),
                          cfg2)


def infer_with_twins(hmodel, quiet_batch, excited_batch):
    """Route on quiet windows; re-examine routed ones on excited twins.

    The two batches must be sample-aligned builds of the same scenario
    recipe, differing only in excitation. Passing one batch as both
    routes and re-examines on the same windows.
    """
    if not np.array_equal(quiet_batch.labels, excited_batch.labels):
        raise ConfigError("twin batches do not align")
    return hmodel.infer_batch(quiet_batch.windows,
                              probed=excited_batch.windows)


def evaluate_hierarchical(hmodel, seed, spec=ExperimentSpec(), prbs=None,
                          metadata=None):
    """Combined original-alphabet report on the test split, with level 2
    on its probed twin when a plan is given."""
    quiet = scenario_batch(seed, "test", spec)
    probed = (quiet if prbs is None
              else scenario_batch(seed, "test", spec, prbs=prbs))
    return hierarchical_report(hmodel, quiet, probed, metadata)


def hierarchical_report(hmodel, quiet_batch, probed_batch, metadata=None):
    """Original-alphabet report of a two-level model that routes on
    quiet_batch and re-examines routed windows on probed_batch, its
    sample-aligned twin (pass quiet_batch twice for quiet routing)."""
    preds = infer_with_twins(hmodel, quiet_batch, probed_batch)
    cm = confusion(quiet_batch.labels, preds, hmodel.label_map.n_original)
    return build_report(cm, normal=0, metadata=metadata)


def level2_scores(model, seed, spec=ExperimentSpec(), prbs=None):
    """Per-class accuracy of a level-2 specialist on the merged group's
    test split, keyed by original class id."""
    lmap = spec.label_map
    test_b = scenario_batch(seed, "test", spec,
                            classes=lmap.level2_classes, prbs=prbs)
    preds = model.predict(test_b)
    truth = lmap.to_level2(test_b.labels)
    return {orig: float(np.mean(preds[truth == k] == k))
            for k, orig in enumerate(lmap.level2_classes)}


def level2_accuracies(seed, spec=ExperimentSpec(), prbs=None):
    """Per-class test accuracy of a standalone level-2 specialist,
    keyed by original class id."""
    model = _fit_level2(seed, spec, prbs)
    return level2_scores(model, seed, spec, prbs)


def excitation_gain(seed, spec, plan, level2):
    """Incipient-class accuracy change from exciting the level-2 data.

    level2 is the quiet specialist to score, such as the one inside
    ``fit_hierarchical(seed, spec)``; the excited one is trained here
    with the plan.
    """
    quiet = level2_scores(level2, seed, spec)
    excited = level2_accuracies(seed, spec, prbs=plan)
    incip = sorted(spec.incipient)
    gain = float(np.mean([excited[c] - quiet[c] for c in incip]))
    return {"quiet": quiet, "excited": excited, "gain": gain}


def _class_mean(report, classes):
    vals = [report.fdr_by_class[c] for c in classes
            if c in report.fdr_by_class]
    return float(np.mean(vals)) if vals else float("nan")


def surrogate_benchmark(seeds=(1, 2, 3, 4, 5), spec=ExperimentSpec(),
                        plan=None):
    """Flat-versus-hierarchical study used by the packaged experiment.

    Returns per-seed rows plus the three aggregates of interest: the
    flat model's incipient deficit, the hierarchical model's plain-fault
    parity, and the excitation gain on the level-2 specialist.
    """
    if plan is None:
        plan = default_excitation(spec.plant_factory(seed=0))
    incip = sorted(spec.incipient)
    plain = [c for c in spec.classes if c != 0 and c not in incip]
    rows = []
    for seed in seeds:
        # each quiet split is simulated and the training split
        # standardized once, for the flat and the two-level model alike
        scaled_train, scaler = _standardized(
            scenario_batch(seed, "train", spec))
        test_b = scenario_batch(seed, "test", spec)
        flat = _fit_flat(seed, spec, scaled_train, scaler)
        flat_report = evaluate_classifier(flat, test_b)
        level1 = _fit_level1(seed, spec, scaled_train, scaler)
        level2 = _fit_level2(seed, spec, None)
        hier_report = hierarchical_report(
            HierarchicalModel(level1, level2, spec.label_map), test_b, test_b)
        # the quiet specialist of the two-level model is the one scored
        gain = excitation_gain(seed, spec, plan, level2)
        rows.append({
            "seed": int(seed),
            "flat_incipient": _class_mean(flat_report, incip),
            "flat_plain": _class_mean(flat_report, plain),
            "hier_plain": _class_mean(hier_report, plain),
            "level2_quiet": gain["quiet"],
            "level2_excited": gain["excited"],
            "gain": gain["gain"],
        })
    return {
        "per_seed": rows,
        "flat_incipient_avg": float(np.mean([r["flat_incipient"]
                                             for r in rows])),
        "flat_plain_avg": float(np.mean([r["flat_plain"] for r in rows])),
        "hier_plain_avg": float(np.mean([r["hier_plain"] for r in rows])),
        "mean_gain": float(np.mean([r["gain"] for r in rows])),
    }
