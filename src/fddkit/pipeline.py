"""Experiment glue from plant scenarios to trained classifiers.

Everything here is a deterministic function of (seed, recipe): scenario
series get their plant seeds from the split name and the experiment
seed, so train/val/test data never share a noise stream, and an excited
batch built with the same arguments is the sample-aligned twin of its
quiet counterpart. ``scenario_batch(..., mode)`` alone says which data a
flat, level-1 or level-2 model trains and is scored on, and
``infer_with_twins`` alone routes windows through a two-level model.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .dataio import concat_batches, make_windows
from .errors import ConfigError
from .hierarchy import HierarchicalModel, LabelMap, check_mode
from .metrics import build_report, confusion
from .model import ModelConfig, train
from .plant import (INCIPIENT_CLASSES, _target_loop, default_fault_library,
                    default_plant, simulate_scenario)
from .prbs import DEFAULT_TARGET, design_band, plan_from_band

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
    loop = _target_loop(DEFAULT_TARGET, plant.n_loops)
    return plan_from_band(band, plant.t_s,
                          amplitude=0.02 * plant.setpoint_ranges[loop])


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
    # the two level alphabets over the dense classes 0..max
    label_map: LabelMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.classes) > 20 or self.n_series > 20 \
                or self.n_series_level2 > 20:
            raise ConfigError("scenario recipe exceeds the seed block size")
        if 0 not in self.classes:
            raise ConfigError("the normal class must be part of the recipe")
        for cls in self.classes:
            if cls not in SURROGATE_CLASSES:
                raise ConfigError(
                    f"class {cls} is not in the surrogate fault library, "
                    f"whose classes run from 0 to {SURROGATE_CLASSES[-1]}")
        # level 2 simulates the incipient classes, and the router must
        # have seen them
        missing = sorted(set(self.incipient) - set(self.classes))
        if missing:
            raise ConfigError(
                f"incipient classes {missing} are not among the recipe's "
                f"classes {list(self.classes)}")
        object.__setattr__(self, "label_map",
                           LabelMap(self.incipient, max(self.classes) + 1))

    def fault_library(self):
        return default_fault_library(onset=self.onset)


def scenario_batch(seed, split, spec=ExperimentSpec(), mode="flat",
                   prbs=None):
    """Windowed data for one split, one series per (class, repeat) pair,
    under the labels of a model of mode (``LabelMap.relabel``). flat and
    level1 simulate every class, n_series runs each; level2 the merged
    group (``label_map.classes("level2")``), n_series_level2 runs each."""
    if split not in SPLIT_BASES:
        raise ConfigError(f"unknown split {split!r}")
    level2 = check_mode(mode) == "level2"
    classes = spec.label_map.classes("level2") if level2 else spec.classes
    n_series = spec.n_series_level2 if level2 else spec.n_series
    base = SPLIT_BASES[split] + 1000 * int(seed)
    lib = spec.fault_library()
    parts = []
    for i, cls in enumerate(classes):
        for r in range(n_series):
            plant = spec.plant_factory(seed=base + i + 20 * r)
            fault = None if cls == 0 else lib[cls]
            ds = simulate_scenario(plant, fault=fault, prbs=prbs,
                                   horizon=spec.horizon)
            parts.append(make_windows(ds.records, ds.labels, spec.window))
    # concat_batches renumbers series ids, one per scenario run
    return spec.label_map.relabel(concat_batches(parts), mode)


def classifier_config(n_classes, seed, spec=ExperimentSpec(), *,
                      n_features, horizon):
    decoder = spec.decoder if spec.decoder is not None else (n_features,)
    return ModelConfig(
        encoder=tuple(spec.encoder),
        decoder=tuple(decoder),
        n_features=n_features,
        n_classes=n_classes,
        horizon=horizon,
        learning_rate=spec.learning_rate,
        epochs=spec.epochs,
        batch_size=spec.batch_size,
        seed=int(seed),
    )


def evaluate_classifier(model, batch, metadata=None):
    preds = model.predict(batch)
    cm = confusion(batch.labels, preds, model.config.n_classes)
    return build_report(cm, normal=0, metadata=metadata)


def fit(seed, spec=ExperimentSpec(), mode="flat", prbs=None):
    """A classifier of mode on the mode's training split (probed with
    prbs when a plan is given), which is simulated here, in the fit's
    own worker."""
    return _fit(seed, spec, mode,
                scenario_batch(seed, "train", spec, mode, prbs))


def _fit(seed, spec, mode, train_batch):
    """The mode's classifier on a raw training split that already
    carries the mode's labels."""
    cfg = classifier_config(spec.label_map.n_classes(mode), seed, spec,
                            n_features=train_batch.n_features,
                            horizon=train_batch.horizon)
    return train(train_batch, None, cfg)


def fit_hierarchical(seed, spec=ExperimentSpec(), prbs=None):
    """Level-1 router on quiet data; level-2 specialist on the merged
    group, excited when a plan is given. Each fit simulates its own
    training split, so with fit workers this process builds none."""
    level1, level2 = _fit_all([
        (fit, (seed, spec, "level1")),
        (fit, (seed, spec, "level2", prbs)),
    ])
    return HierarchicalModel(level1, level2, spec.label_map)


def _fit_all(jobs):
    """The models of independent fits, in order; each job is a
    (function, args) pair.

    The fits run in forked worker processes, one per CPU this process
    may run on and at most one per job, and in the calling process
    where CPU affinity is unknown (it exists on Linux only) or gives a
    single CPU. Each fit is a deterministic function of its arguments,
    so the models are the same either way. A fit's exception reaches
    the caller as raised; no worker outlives the call.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else 1, len(jobs))
    if workers < 2:
        return [job(*args) for job, args in jobs]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    # Worker w takes jobs w, w + workers, ... . It inherits them with the
    # rest of this process's memory (a forked process's arguments are
    # never pickled), sends back its models and exits. A worker that
    # dies shows as an EOF on its pipe; a Pool would replace it and wait
    # for its share forever.
    procs, receivers = [], []
    models = [None] * len(jobs)
    try:
        for w in range(workers):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fit_share,
                               args=(jobs[w::workers], sender))
            proc.start()
            sender.close()
            procs.append(proc)
            receivers.append(receiver)
        for w, (receiver, proc) in enumerate(zip(receivers, procs)):
            try:
                ok, result = receiver.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"a fit worker exited with code {proc.exitcode} "
                    f"before sending its models") from None
            if not ok:
                raise result
            models[w::workers] = result
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc, receiver in zip(procs, receivers):
            proc.join()
            receiver.close()
    return models


def _fit_share(share, sender):
    """Worker body: send (True, models) for a share of the jobs, or
    (False, exception) for the first fit that raises."""
    try:
        outcome = True, [job(*args) for job, args in share]
    except Exception as exc:
        outcome = False, exc
    sender.send(outcome)
    sender.close()


def infer_with_twins(hmodel, quiet_batch, probed_batch):
    """Original-alphabet predictions of a two-level model, the one
    routing rule: level 1 reads every window of quiet_batch, and level 2
    re-examines the windows it routes to the merged group on
    probed_batch.

    probed_batch is the sample-aligned twin of quiet_batch, recorded
    with the probing signal on; pass quiet_batch twice to route quietly.
    ConfigError if the windows' shapes or the labels differ.
    """
    if (quiet_batch.windows.shape != probed_batch.windows.shape
            or not np.array_equal(quiet_batch.labels, probed_batch.labels)):
        raise ConfigError("twin batches do not align")
    lmap = hmodel.label_map
    pred1 = hmodel.level1.predict(quiet_batch)
    out = lmap.original(pred1, "level1")
    routed = np.flatnonzero(pred1 == 0)
    if routed.size:
        pred2 = hmodel.level2.predict(probed_batch.windows[routed])
        out[routed] = lmap.original(pred2, "level2")
    return out


def hierarchical_report(hmodel, quiet_batch, probed_batch, metadata=None):
    """Original-alphabet report of a two-level model that routes on
    quiet_batch and re-examines routed windows on probed_batch, its
    sample-aligned twin (pass quiet_batch twice for quiet routing)."""
    preds = infer_with_twins(hmodel, quiet_batch, probed_batch)
    cm = confusion(quiet_batch.labels, preds, hmodel.label_map.n_original)
    return build_report(cm, normal=0, metadata=metadata)


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
        # each quiet split is simulated once, for the flat and the
        # two-level model alike
        train_b = scenario_batch(seed, "train", spec)
        level1_train = spec.label_map.relabel(train_b, "level1")
        flat, level1, level2, level2_probed = _fit_all([
            (_fit, (seed, spec, "flat", train_b)),
            (_fit, (seed, spec, "level1", level1_train)),
            (fit, (seed, spec, "level2")),
            (fit, (seed, spec, "level2", plan)),
        ])
        # this process only scores from here on, and its peak memory is
        # set by the test-split predictions below
        del train_b, level1_train
        test_b = scenario_batch(seed, "test", spec)
        flat_report = evaluate_classifier(flat, test_b)
        hier_report = hierarchical_report(
            HierarchicalModel(level1, level2, spec.label_map), test_b, test_b)
        # each specialist is scored on the test split recorded the way
        # its training split was; the quiet one is the two-level model's
        level2_fdr = []
        for model, prbs in ((level2, None), (level2_probed, plan)):
            report = evaluate_classifier(
                model, scenario_batch(seed, "test", spec, "level2", prbs))
            level2_fdr.append({orig: report.fdr_by_class[k] for k, orig
                               in enumerate(spec.label_map.classes("level2"))})
        quiet, excited = level2_fdr
        rows.append({
            "seed": int(seed),
            "flat_incipient": _class_mean(flat_report, incip),
            "flat_plain": _class_mean(flat_report, plain),
            "hier_plain": _class_mean(hier_report, plain),
            "level2_quiet": quiet,
            "level2_excited": excited,
            "gain": float(np.mean([excited[c] - quiet[c] for c in incip])),
        })
    return {
        "per_seed": rows,
        "flat_incipient_avg": float(np.mean([r["flat_incipient"]
                                             for r in rows])),
        "flat_plain_avg": float(np.mean([r["flat_plain"] for r in rows])),
        "hier_plain_avg": float(np.mean([r["hier_plain"] for r in rows])),
        "mean_gain": float(np.mean([r["gain"] for r in rows])),
    }
