"""Command-line entry points.

Every run is driven by one JSON config file with a mandatory integer
seed. Exit codes: 0 on success, 1 for any input problem (bad config,
unreadable data, infeasible design), 2 when a computation diverges
numerically.
"""

import argparse
import dataclasses
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from .dataio import (Scaler, SplitSpec, WindowBatch, load_labels,
                     load_matrix, make_windows, read_json, save_labels,
                     save_matrix, split)
from .errors import ConfigError, FddError, FormatError, NumericError
from .hierarchy import HierarchicalModel, merged_subset, regroup_labels
from .metrics import (build_report, confusion, format_report, load_report,
                      save_report)
from .model import load_model, save_model
from .pipeline import (ExperimentSpec, classifier_config,
                       default_excitation, evaluate_classifier,
                       fit_classifier, infer_with_twins, scenario_batch,
                       tune_classifier)
from .plant import (FaultSpec, _target_loop, default_fault_library,
                    default_plant, simulate_scenario)
from .prbs import BandSpec, design_band, load_plan, plan_from_band, save_plan

MODES = ("flat", "level1", "level2")


def _load_config(path):
    try:
        cfg = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{path}: an integer seed is mandatory")
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _check_keys(node, allowed, what):
    """Reject a node that is not a JSON object or has keys outside allowed."""
    if not isinstance(node, dict):
        raise ConfigError(f"config key {what!r} must be a JSON object")
    extra = set(node) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")


def _plant_from(cfg, seed):
    node = cfg.get("plant")
    plant = default_plant(seed=seed)
    if node is None:
        return plant
    _check_keys(node, ("a", "b", "c", "noise_std", "controlled",
                       "setpoints", "setpoint_ranges", "kp", "ki", "t_s"),
                "plant")
    rep = {}
    for key in ("a", "b", "c", "noise_std"):
        if key in node:
            rep[key] = np.asarray(node[key], dtype=np.float64)
    for key in ("controlled", "setpoints", "setpoint_ranges", "kp", "ki"):
        if key in node:
            rep[key] = tuple(node[key])
    if "t_s" in node:
        rep["t_s"] = float(node["t_s"])
    return dataclasses.replace(plant, **rep)


def _fault_from(cfg):
    node = cfg.get("fault")
    if node is None:
        return None
    if isinstance(node, dict) and "class" in node:
        _check_keys(node, ("class", "onset"), "fault")
        lib = default_fault_library(onset=int(node.get("onset", 100)))
        cls = int(node["class"])
        if cls not in lib:
            raise ConfigError(f"no library fault with class {cls}")
        return lib[cls]
    fields = ("kind", "target", "magnitude", "onset", "slope", "deadband",
              "std", "site", "fault_class")
    _check_keys(node, fields, "fault")
    kwargs = {k: node[k] for k in fields if k in node}
    return FaultSpec(**kwargs)


def _plan_from(cfg, plant):
    node = cfg.get("prbs")
    if node is None:
        return None
    if node == "default":
        return default_excitation(plant)
    if isinstance(node, str):
        return load_plan(node)
    if isinstance(node, dict) and "plan" in node:
        return load_plan(node["plan"])
    _check_keys(node, ("tau_ol", "tau_cl", "s_f", "omega_low", "omega_high",
                       "omega_nyquist", "t_s", "amplitude", "burst_len",
                       "burst_interval", "target"), "prbs")
    nyq = float(node.get("omega_nyquist", np.pi / plant.t_s))
    if "tau_ol" in node or "tau_cl" in node:
        band = design_band(float(_require(node, "tau_ol")),
                           float(_require(node, "tau_cl")),
                           s_f=float(node.get("s_f", 2.0)),
                           omega_nyquist=nyq)
    else:
        band = BandSpec(float(_require(node, "omega_low")),
                        float(_require(node, "omega_high")),
                        omega_nyquist=nyq,
                        s_f=float(node.get("s_f", 2.0)))
    target = node.get("target", "loop1")
    loop = _target_loop(target, plant.n_loops)
    amplitude = node.get("amplitude")
    if amplitude is None:
        amplitude = 0.02 * plant.setpoint_ranges[loop]
    kwargs = {}
    for k in ("burst_len", "burst_interval"):
        if k in node:
            kwargs[k] = int(node[k])
    return plan_from_band(band, float(node.get("t_s", plant.t_s)),
                          amplitude=float(amplitude), target=str(target),
                          **kwargs)


def _spec_from(cfg):
    node = cfg.get("surrogate", {})
    allowed = ("classes", "incipient", "n_series", "n_series_level2",
               "horizon", "window", "onset", "epochs", "learning_rate",
               "batch_size", "encoder", "decoder")
    _check_keys(node, allowed, "surrogate")
    kwargs = {}
    for k in allowed:
        if k in node:
            v = node[k]
            kwargs[k] = tuple(v) if isinstance(v, list) else v
    return ExperimentSpec(**kwargs)


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
                           horizon=int(cfg.get("horizon", 500)))
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
    (out / "meta.json").write_text(json.dumps(meta, indent=2,
                                              sort_keys=True) + "\n")
    print(f"wrote {ds.records.shape[0]} samples x "
          f"{ds.records.shape[1]} channels to {out}")
    return 0


def cmd_ingest(args):
    cfg = _load_config(args.config)
    data = load_matrix(_require(cfg, "data"),
                       expected_cols=cfg.get("expected_cols"))
    labels = load_labels(_require(cfg, "labels"))
    window = int(_require(cfg, "window"))
    batch = make_windows(data, labels, window)
    node = cfg.get("split", {"train": 0.6, "val": 0.2, "test": 0.2})
    _check_keys(node, ("train", "val", "test"), "split")
    spec = SplitSpec(train=float(node.get("train", 0.0)),
                     val=float(node.get("val", 0.0)),
                     test=float(node.get("test", 0.0)),
                     contiguous=bool(cfg.get("contiguous", True)))
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
        scaled = part.scaled(scaler)
        np.save(out / f"{name}_windows.npy", scaled.windows)
        np.save(out / f"{name}_labels.npy", scaled.labels)
        counts[name] = len(part)
    scaler.save(out / "scaler.json")
    meta = {"window": window, "n_features": batch.n_features,
            "counts": counts, "seed": cfg["seed"],
            "contiguous": spec.contiguous}
    (out / "meta.json").write_text(json.dumps(meta, indent=2,
                                              sort_keys=True) + "\n")
    print("ingested windows:",
          " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


def _load_array(path):
    """A numeric array from a .npy file; FormatError if it holds none."""
    try:
        arr = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
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
    return WindowBatch(windows=_load_array(wfile), labels=_load_array(lfile))


def _training_data(cfg, mode, seed, surrogate_val=False):
    """(train_batch, val_batch_or_None, n_classes, spec) for one mode.

    An archive brings its own val split. For surrogate data a val split
    is built only when surrogate_val is set, by the same recipe (classes,
    series count, probing plan) and relabelling as the training split.
    """
    spec = _spec_from(cfg)
    incipient = tuple(cfg.get("incipient", spec.incipient))
    if "archive" in cfg:
        train_b = _archive_batch(cfg["archive"], "train")
        if train_b is None:
            raise ConfigError(f"no train split under {cfg['archive']}")
        val_b = _archive_batch(cfg["archive"], "val")
        n_classes = int(cfg.get("n_classes",
                                int(train_b.labels.max()) + 1))
    else:
        plan = _plan_from(cfg, spec.plant_factory(seed=0))
        level2 = mode == "level2"

        def build(split):
            return scenario_batch(
                seed, split, spec,
                classes=spec.level2_classes if level2 else None,
                prbs=plan if level2 else None)
        train_b = build("train")
        val_b = build("val") if surrogate_val else None
        n_classes = max(spec.classes) + 1
    if mode == "flat":
        return train_b, val_b, n_classes, spec
    _, lmap = regroup_labels(train_b.labels, incipient,
                             n_classes=n_classes)
    if mode == "level1":
        relabel, n_out = lmap.to_level1, lmap.n_level1
    else:
        relabel, n_out = lmap.to_level2, lmap.n_level2

    def rewrap(b):
        if b is None:
            return None
        if mode == "level2" and "archive" in cfg:
            # an archive holds every class; level 2 keeps the merged group
            return merged_subset(b, lmap)
        return b.relabel(relabel(b.labels))
    return rewrap(train_b), rewrap(val_b), n_out, spec


# ModelConfig fields a config's model node (and tune's search space) may set
MODEL_KEYS = ("encoder", "decoder", "lam1", "lam2", "lam3", "learning_rate",
              "epochs", "batch_size")


def _model_config(cfg, spec, n_classes, n_features, seed):
    base = classifier_config(n_classes, seed, spec, n_features=n_features)
    node = cfg.get("model", {})
    _check_keys(node, MODEL_KEYS, "model")
    rep = {}
    for k in MODEL_KEYS:
        if k in node:
            v = node[k]
            rep[k] = tuple(v) if isinstance(v, list) else v
    return dataclasses.replace(base, **rep) if rep else base


def cmd_train(args):
    cfg = _load_config(args.config)
    seed = cfg["seed"]
    train_b, val_b, n_classes, spec = _training_data(cfg, args.mode, seed)
    mcfg = _model_config(cfg, spec, n_classes, train_b.n_features, seed)
    model = fit_classifier(train_b, mcfg, val_b)
    out = _out_dir(args)
    save_model(model, out)
    last = model.history[-1]["loss"] if model.history else float("nan")
    print(f"trained {args.mode} model ({n_classes} classes, "
          f"{len(train_b)} windows), final epoch loss {last:.6g}")
    return 0


def cmd_tune(args):
    cfg = _load_config(args.config)
    seed = cfg["seed"]
    mode = cfg.get("mode", "flat")
    if mode not in MODES:
        raise ConfigError(f"config key 'mode' must be one of "
                          f"{', '.join(MODES)}, not {mode!r}")
    train_b, val_b, n_classes, spec = _training_data(cfg, mode, seed,
                                                     surrogate_val=True)
    if val_b is None:
        raise ConfigError(f"no val split under {cfg['archive']} to tune on")
    mcfg = _model_config(cfg, spec, n_classes, train_b.n_features, seed)
    space = cfg.get("search_space")
    if space is not None:
        _check_keys(space, MODEL_KEYS, "search_space")
    model = tune_classifier(train_b, val_b, mcfg, search_space=space,
                            budget=int(cfg.get("budget", 4)))
    out = _out_dir(args)
    save_model(model, out)
    print(f"tuned model: learning_rate={model.config.learning_rate}")
    return 0


def _test_data(cfg, seed, spec, probed=False):
    """The test split; probed records it with the probing signal on."""
    if "archive" in cfg:
        if probed:
            raise ConfigError("probed evaluation needs surrogate data, "
                              "not an archive")
        batch = _archive_batch(cfg["archive"], "test")
        if batch is None:
            raise ConfigError(f"no test split under {cfg['archive']}")
        return batch
    plan = None
    if probed:
        plant = spec.plant_factory(seed=0)
        plan = _plan_from(cfg, plant) or default_excitation(plant)
    return scenario_batch(seed, "test", spec, prbs=plan)


def cmd_evaluate(args):
    cfg = _load_config(args.config)
    seed = cfg["seed"]
    spec = _spec_from(cfg)
    quiet = _test_data(cfg, seed, spec)
    probed = (_test_data(cfg, seed, spec, probed=True)
              if args.prbs == "on" else quiet)
    metadata = {"seed": seed, "horizon": quiet.horizon,
                "dataset": cfg.get("archive", "surrogate"),
                "prbs": args.prbs}
    if args.hierarchical:
        level1 = load_model(Path(_require(cfg, "level1")))
        level2 = load_model(Path(_require(cfg, "level2")))
        incipient = tuple(cfg.get("incipient", spec.incipient))
        n_classes = int(cfg.get("n_classes", max(spec.classes) + 1))
        _, lmap = regroup_labels(np.zeros(1, dtype=np.int64), incipient,
                                 n_classes=n_classes)
        metadata["model"] = f"{cfg['level1']}+{cfg['level2']}"
        preds = infer_with_twins(HierarchicalModel(level1, level2, lmap),
                                 quiet, probed)
        cm = confusion(quiet.labels, preds, lmap.n_original)
        report = build_report(cm, normal=0, metadata=metadata)
    else:
        model = load_model(Path(_require(cfg, "model")))
        metadata["model"] = str(cfg["model"])
        report = evaluate_classifier(model, probed, metadata=metadata)
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
    cfg = _load_config(args.config)
    report = load_report(_require(cfg, "report"))
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


if __name__ == "__main__":
    sys.exit(main())
