"""Command-line entry points.

Every run is driven by one JSON config file with a mandatory integer
seed. Exit codes: 0 on success, 1 for any input problem (bad config,
unreadable data, infeasible design), 2 when a computation diverges
numerically.

train, tune and evaluate read one data source, which decides the keys
that apply: an "archive" (an ingest output directory) with "n_classes"
and "incipient" (default plant.INCIPIENT_CLASSES), or else surrogate
data from the "surrogate" recipe (classes, incipient, n_series,
n_series_level2, horizon, window, onset), which alone gives the
classes, probed at level 2 with a "prbs" plan. The network and its
training come from "model" for either.
"""

import argparse
import dataclasses
import sys
import zipfile
from pathlib import Path

import numpy as np

from .dataio import (BOOL, INTEGER, INTEGERS, LOOP, MATRIX, NUMBER,
                     NUMBERS, OBJECT, PATH, STRING, STRING_OR_OBJECT, Scaler,
                     SplitSpec, WindowBatch, load_labels, load_matrix,
                     make_windows, read_fields, read_json, save_labels,
                     save_matrix, split, write_json)
from .errors import ConfigError, FddError, FormatError, NumericError
from .hierarchy import MODES, HierarchicalModel, LabelMap
from .metrics import format_report, load_report, save_report
from .model import (DEFAULT_BUDGET, DEFAULT_SEARCH_SPACE, MODEL_FIELDS,
                    load_model, save_model, train, tune)
from .pipeline import (ExperimentSpec, classifier_config,
                       default_excitation, evaluate_classifier,
                       hierarchical_report, scenario_batch)
from .plant import (INCIPIENT_CLASSES, FaultSpec, _target_loop,
                    default_fault_library, default_plant, simulate_scenario)
from .prbs import (DEFAULT_TARGET, BandSpec, design_band, load_plan,
                   plan_from_band, save_plan)

# Field tables: the kind of each key of each config node. A command reads
# "model" as a node (train, tune) or a path (evaluate), and "prbs" as
# "default", a plan path or a node.
CONFIG = {
    "seed": INTEGER, "horizon": INTEGER, "plant": OBJECT, "fault": OBJECT,
    "prbs": STRING_OR_OBJECT, "data": PATH, "labels": PATH,
    "window": INTEGER, "expected_cols": INTEGER, "split": OBJECT,
    "contiguous": BOOL, "scaler": PATH, "archive": PATH,
    "n_classes": INTEGER, "incipient": INTEGERS, "surrogate": OBJECT,
    "model": OBJECT, "budget": INTEGER,
    "search_space": OBJECT, "level1": PATH, "level2": PATH, "report": PATH,
}
PLANT = {
    "a": MATRIX, "b": MATRIX, "c": MATRIX, "noise_std": NUMBERS,
    "controlled": INTEGERS, "setpoints": NUMBERS, "setpoint_ranges": NUMBERS,
    "kp": NUMBERS, "ki": NUMBERS, "t_s": NUMBER,
}
FAULT = {
    "kind": STRING, "target": INTEGER, "magnitude": NUMBER, "onset": INTEGER,
    "slope": NUMBER, "deadband": NUMBER, "std": NUMBER, "site": STRING,
    "fault_class": INTEGER,
}
LIBRARY_FAULT = {"class": INTEGER, "onset": FAULT["onset"]}
PRBS = {
    "tau_ol": NUMBER, "tau_cl": NUMBER, "s_f": NUMBER, "omega_low": NUMBER,
    "omega_high": NUMBER, "omega_nyquist": NUMBER, "t_s": NUMBER,
    "amplitude": NUMBER, "burst_len": INTEGER, "burst_interval": INTEGER,
    "target": LOOP,
}
SURROGATE = {
    "classes": INTEGERS, "incipient": INTEGERS, "n_series": INTEGER,
    "n_series_level2": INTEGER, "horizon": INTEGER, "window": INTEGER,
    "onset": INTEGER,
}
SPLIT = {"train": NUMBER, "val": NUMBER, "test": NUMBER}
SEARCH_SPACE = {
    key: kind.listed(f"a non-empty list, each entry {kind.name}", least=1)
    for key, kind in MODEL_FIELDS.items()}


def _load_config(path, required=(), **kinds):
    """The config's root, read by CONFIG with kinds in place of its own;
    the seed and the required keys must be present."""
    try:
        cfg = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = read_fields(cfg, {**CONFIG, **kinds}, "config", ConfigError,
                      required=("seed", *required))
    if cfg["seed"] < 0:   # numpy's generators take no negative seed
        raise ConfigError(f"config key 'seed' must be >= 0, not {cfg['seed']}")
    # the data source decides the keys: an archive brings its data and
    # its alphabet, n_classes and incipient; the surrogate recipe gives
    # both, probed with the prbs plan
    source = "archive" if "archive" in cfg else "surrogate"
    for key in {"archive": ("surrogate", "prbs"),
                "surrogate": ("n_classes", "incipient")}[source]:
        if key in cfg:
            raise ConfigError(f"config key {key!r} does not apply to "
                              f"{source} data")
    if source == "archive":
        cfg.setdefault("incipient", INCIPIENT_CLASSES)
    return cfg


def _given(node, *keys):
    """The keys node holds, so that a callee's defaults apply to the rest."""
    return {key: node[key] for key in keys if key in node}


def _plant_from(cfg, seed):
    plant = default_plant(seed=seed)
    if "plant" not in cfg:
        return plant
    return dataclasses.replace(
        plant, **read_fields(cfg["plant"], PLANT, "plant", ConfigError))


def _fault_from(cfg):
    node = cfg.get("fault")
    if node is None:
        return None
    if "class" in node:
        node = read_fields(node, LIBRARY_FAULT, "fault", ConfigError)
        cls = node.pop("class")
        lib = default_fault_library(**node)
        if cls not in lib:
            raise ConfigError(f"no library fault with class {cls}")
        return lib[cls]
    return FaultSpec(**read_fields(node, FAULT, "fault", ConfigError,
                                   required=("kind", "target")))


def _plan_from(cfg, plant):
    node = cfg.get("prbs")
    if node is None:
        return None
    if node == "default":
        return default_excitation(plant)
    if isinstance(node, str):
        return load_plan(node)
    band_keys = (("tau_ol", "tau_cl") if "tau_ol" in node or "tau_cl" in node
                 else ("omega_low", "omega_high"))
    node = read_fields(node, PRBS, "prbs", ConfigError, required=band_keys)
    nyq = node.get("omega_nyquist", np.pi / plant.t_s)
    if "tau_ol" in node:
        band = design_band(node["tau_ol"], node["tau_cl"],
                           omega_nyquist=nyq, **_given(node, "s_f"))
    else:
        band = BandSpec(node["omega_low"], node["omega_high"],
                        omega_nyquist=nyq, **_given(node, "s_f"))
    target = node.get("target", DEFAULT_TARGET)
    loop = _target_loop(target, plant.n_loops)
    amplitude = node.get("amplitude", 0.02 * plant.setpoint_ranges[loop])
    return plan_from_band(band, node.get("t_s", plant.t_s),
                          amplitude=amplitude, target=str(target),
                          **_given(node, "burst_len", "burst_interval"))


def _spec_from(cfg):
    return ExperimentSpec(**read_fields(cfg.get("surrogate", {}), SURROGATE,
                                        "surrogate", ConfigError))


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- commands


def cmd_simulate(args):
    cfg = _load_config(args.config)
    seed = cfg["seed"]
    plant = _plant_from(cfg, seed)
    fault = _fault_from(cfg)
    plan = _plan_from(cfg, plant)
    ds = simulate_scenario(plant, fault=fault, prbs=plan,
                           **_given(cfg, "horizon"))
    out = _out_dir(args)
    save_matrix(out / "records.txt", ds.records)
    save_labels(out / "labels.txt", ds.labels)
    meta = {
        "horizon": int(ds.records.shape[0]),
        "n_outputs": ds.n_outputs,
        "n_loops": ds.n_loops,
        "seed": seed,
        "fault_class": None if fault is None else fault.fault_class,
        "prbs": plan is not None,
    }
    write_json(out / "meta.json", meta)
    print(f"wrote {ds.records.shape[0]} samples x "
          f"{ds.records.shape[1]} channels to {out}")
    return 0


def cmd_ingest(args):
    cfg = _load_config(args.config, ("data", "labels", "window"))
    data = load_matrix(cfg["data"], expected_cols=cfg.get("expected_cols"))
    labels = load_labels(cfg["labels"])
    window = cfg["window"]
    batch = make_windows(data, labels, window)
    node = read_fields(cfg.get("split", {"train": 0.6, "val": 0.2,
                                         "test": 0.2}),
                       SPLIT, "split", ConfigError)
    spec = SplitSpec(**{"train": 0.0, "val": 0.0, "test": 0.0, **node},
                     **_given(cfg, "contiguous"))
    parts = dict(zip(("train", "val", "test"),
                     split(batch, spec, seed=cfg["seed"])))
    if "scaler" in cfg:
        # Pre-split archives keep training and held-out recordings in
        # separate files; the held-out ingest reuses the saved scaler.
        scaler = Scaler.load(cfg["scaler"])
    elif len(parts["train"]) == 0:
        raise ConfigError(
            "no train windows to fit a scaler on; use a nonzero train "
            "fraction or point 'scaler' at a saved scaler.json")
    else:
        scaler = Scaler.fit(parts["train"].windows)
    out = _out_dir(args)
    counts = {}
    for name, part in parts.items():
        if len(part) == 0:
            counts[name] = 0
            continue
        np.save(out / f"{name}_windows.npy", scaler.apply(part.windows))
        np.save(out / f"{name}_labels.npy", part.labels)
        counts[name] = len(part)
    scaler.save(out / "scaler.json")
    meta = {"window": window, "n_features": batch.n_features,
            "counts": counts, "seed": cfg["seed"],
            "contiguous": spec.contiguous}
    write_json(out / "meta.json", meta)
    print("ingested windows:",
          " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


def _load_array(path):
    """A numeric array from a .npy file; FormatError if it holds none."""
    from tokenize import TokenError   # a damaged header's shape tuple
    try:
        # a memory map checks the declared size against the file first
        np.load(path, mmap_mode="r")
        arr = np.load(path)
    except (ValueError, EOFError, OverflowError, TokenError,
            zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a numeric .npy array ({exc})") from None
    if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "biuf":
        raise FormatError(f"{path}: not a numeric .npy array")
    return arr


def _archive_batch(directory, name):
    directory = Path(directory)
    wfile = directory / f"{name}_windows.npy"
    lfile = directory / f"{name}_labels.npy"
    if not wfile.exists():
        return None
    labels = _load_array(lfile)
    # a float label would be cut to an integer, a NaN one with a warning
    if labels.dtype.kind not in "biu":
        raise FormatError(f"{lfile}: labels must be integers, not "
                          f"{labels.dtype}")
    return WindowBatch(windows=_load_array(wfile), labels=labels)


def _data(cfg, seed, split, mode="flat", plan=None, lmap=None):
    """(batch, label map): the split as a model of mode reads it, and
    the data source's class alphabet.

    Surrogate data is the mode's scenario_batch of the split, recorded
    with plan running, under the recipe's label map. An archive's saved
    split is checked against lmap, by default the archive's n_classes
    classes (else one more than the split's largest label) with, for
    the two-level modes, its incipient ones, and relabelled for mode.
    """
    if "archive" not in cfg:
        spec = _spec_from(cfg)
        return scenario_batch(seed, split, spec, mode, plan), spec.label_map
    archive = cfg["archive"]
    batch = _archive_batch(archive, split)
    if batch is None:
        raise ConfigError(f"no {split} split under {archive}")
    if lmap is None:
        n_classes = cfg.get("n_classes", int(batch.labels.max(initial=0)) + 1)
        # a flat model reads the labels as they are
        lmap = LabelMap(() if mode == "flat" else cfg["incipient"], n_classes)
    # level 2 keeps only the merged group's windows, so a label outside
    # the alphabet would be dropped there, not reported
    if np.any((batch.labels < 0) | (batch.labels >= lmap.n_original)):
        raise ConfigError(
            f"archive labels outside the {lmap.n_original} classes")
    return lmap.relabel(batch, mode), lmap


def _model_config(cfg, n_classes, train_b, seed):
    base = classifier_config(n_classes, seed, n_features=train_b.n_features,
                             horizon=train_b.horizon)
    return dataclasses.replace(base, **read_fields(
        cfg.get("model", {}), MODEL_FIELDS, "model", ConfigError))


def _level2_plan(cfg, mode):
    """The plan level-2 training data is recorded with; read, and so
    checked, in every mode. Without a prbs key no plant is built: its
    eigenvalue check alone adds about 1 MiB to an archive run's peak."""
    plan = _plan_from(cfg, default_plant()) if "prbs" in cfg else None
    return plan if mode == "level2" else None


def cmd_train(args):
    cfg = _load_config(args.config)
    seed, mode = cfg["seed"], args.mode
    train_b, lmap = _data(cfg, seed, "train", mode, _level2_plan(cfg, mode))
    # an archive's val split, where it has one, picks the best epoch;
    # surrogate training simulates none
    val_b = None
    if "archive" in cfg and \
            (Path(cfg["archive"]) / "val_windows.npy").exists():
        val_b, _ = _data(cfg, seed, "val", mode, lmap=lmap)
    n_classes = lmap.n_classes(mode)
    model = train(train_b, val_b,
                  _model_config(cfg, n_classes, train_b, seed))
    out = _out_dir(args)
    save_model(model, out)
    ran = (f"final epoch loss {model.history[-1]['loss']:.6g}"
           if model.history else "no epoch ran")
    print(f"trained {mode} model ({n_classes} classes, "
          f"{len(train_b)} windows), {ran}")
    return 0


def cmd_tune(args):
    cfg = _load_config(args.config)
    seed, mode = cfg["seed"], args.mode
    plan = _level2_plan(cfg, mode)
    train_b, lmap = _data(cfg, seed, "train", mode, plan)
    val_b, _ = _data(cfg, seed, "val", mode, plan, lmap)
    mcfg = _model_config(cfg, lmap.n_classes(mode), train_b, seed)
    space = read_fields(cfg.get("search_space", DEFAULT_SEARCH_SPACE),
                        SEARCH_SPACE, "search_space", ConfigError)
    best = tune(train_b, val_b, space, cfg.get("budget", DEFAULT_BUDGET), mcfg)
    model = train(train_b, val_b, best)
    out = _out_dir(args)
    save_model(model, out)
    print(f"tuned model: learning_rate={model.config.learning_rate}")
    return 0


def cmd_evaluate(args):
    cfg = _load_config(args.config, ("level1", "level2") if args.hierarchical
                       else ("model",), model=PATH)
    seed = cfg["seed"]
    plan = None
    if args.prbs == "on":
        if "archive" in cfg:
            raise ConfigError("probed evaluation needs surrogate data, "
                              "not an archive")
        plant = default_plant()
        plan = _plan_from(cfg, plant) or default_excitation(plant)
    if args.hierarchical:
        level1 = load_model(Path(cfg["level1"]))
        if "archive" in cfg:
            # level 1 merges the incipient classes into the normal class
            incipient = set(cfg["incipient"])
            lmap = LabelMap(incipient, cfg.get(
                "n_classes", level1.params.n_classes + len(incipient)))
        else:
            lmap = _spec_from(cfg).label_map
        hmodel = HierarchicalModel(level1, load_model(Path(cfg["level2"])),
                                   lmap)
        # level 1 routes on the quiet split, level 2 reads its probed twin
        quiet, _ = _data(cfg, seed, "test", lmap=lmap)
        test_b = (quiet if plan is None
                  else _data(cfg, seed, "test", plan=plan)[0])
        name = f"{cfg['level1']}+{cfg['level2']}"
    else:
        model = load_model(Path(cfg["model"]))
        test_b, _ = _data(cfg, seed, "test", plan=plan)
        name = cfg["model"]
    metadata = {"seed": seed, "horizon": test_b.horizon,
                "dataset": cfg.get("archive", "surrogate"),
                "prbs": args.prbs, "model": name}
    report = (hierarchical_report(hmodel, quiet, test_b, metadata)
              if args.hierarchical
              else evaluate_classifier(model, test_b, metadata=metadata))
    out = _out_dir(args)
    save_report(report, out)
    print(format_report(report), end="")
    return 0


def cmd_prbs_design(args):
    cfg = _load_config(args.config)
    plant = _plant_from(cfg, cfg["seed"])
    plan = _plan_from(cfg, plant) or default_excitation(plant)
    out = _out_dir(args)
    save_plan(plan, out / "plan.json")
    print(f"clock {plan.t_clock}  register {plan.n_register}  "
          f"period {plan.period}  amplitude {plan.amplitude}  "
          f"target {plan.target}")
    return 0


def cmd_report(args):
    cfg = _load_config(args.config, ("report",))
    report = load_report(cfg["report"])
    print(format_report(report), end="")
    return 0


# ------------------------------------------------------------------ wiring


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 is reserved for numeric
    divergence, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="fddkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True,
                       help="JSON config file (seed is mandatory)")
        if needs_out:
            p.add_argument("--out", required=True,
                           help="output directory")

    p = sub.add_parser("simulate", help="run one plant scenario")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="raw matrix -> windowed archive")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit one classifier")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=MODES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="successive-halving search")
    common(p)
    p.add_argument("--mode", choices=MODES, default="flat")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a model, emit a report")
    common(p)
    p.add_argument("--hierarchical", action="store_true")
    p.add_argument("--prbs", choices=("on", "off"), default="off")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("prbs", help="excitation design")
    psub = p.add_subparsers(dest="prbs_command", required=True,
                            parser_class=_Parser)
    pd = psub.add_parser("design", help="band + plan from time constants")
    common(pd)
    pd.set_defaults(func=cmd_prbs_design)

    p = sub.add_parser("report", help="render a saved report")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"fddkit: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (FddError, OSError) as exc:
        print(f"fddkit: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # numpy's failed allocation
        print(f"fddkit: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
