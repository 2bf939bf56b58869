"""Seeded mutation sweeps over the files and configs the command line reads.

One tiny archive, three models, a report and a plan are built once. Each
case of the file sweep then damages one saved file (flipped bytes, a cut,
a JSON value of the wrong kind, a deleted key, a huge number), runs one
command on it in-process and puts the file back. The commands are ones
that read the files and finish fast (evaluate, report, ingest, simulate,
prbs design); train and tune are never run on a damaged file.

Each case of the config sweep changes one value of a valid config for
simulate, prbs design, ingest or train (a value of the wrong kind, a
deleted key, a huge or a tiny number) at any depth: the plant, fault,
prbs, surrogate, model and split nodes and the top level. Training runs
on a few short scenario runs, and an epoch count the mutation raises
above one is put back to one, so that no case trains for long.

Every run must exit 0, 1 or 2, print exactly one ``fddkit:`` line to
stderr when it exits nonzero, and warn nothing: warnings are errors here.
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from fddkit.cli import main
from fddkit.dataio import load_labels, load_matrix, save_labels, save_matrix
from fddkit.plant import default_plant

N_CASES = 500
N_CONFIG_CASES = 300
HUGE = (10 ** 18, -10 ** 18, 2 ** 63, 2 ** 64, 1e308, -1e308, 1e300)
OTHER_KINDS = ("x", "", None, True, False, 1.5, 7, -1, [], [1, "a"], {},
               {"k": 1})
TINY = (0, 0.0, 1e-300, -1e-300, 5e-324)


def _write(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def _run(argv):
    """(exit code, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory with a stacked two-fault recording, its archive, the
    three models trained on it, their flat report and a plan."""
    root = tmp_path_factory.mktemp("sweep")
    # two short records, one per fault class, stacked into one data file
    parts = []
    for cls in (1, 2):
        cfg = _write(root / f"sim{cls}.json",
                     {"seed": cls, "horizon": 40,
                      "fault": {"class": cls, "onset": 10}})
        assert _run(["simulate", "--config", cfg,
                     "--out", str(root / f"raw{cls}")])[0] == 0
        parts.append(root / f"raw{cls}")
    save_matrix(root / "records.txt", np.vstack(
        [load_matrix(p / "records.txt") for p in parts]))
    save_labels(root / "labels.txt", np.concatenate(
        [load_labels(p / "labels.txt") for p in parts]))
    arc = root / "archive"
    ing = _write(root / "ingest.json",
                 {"seed": 1, "data": str(root / "records.txt"),
                  "labels": str(root / "labels.txt"), "window": 5})
    assert _run(["ingest", "--config", ing, "--out", str(arc)])[0] == 0
    train = _write(root / "train.json",
                   {"seed": 1, "archive": str(arc), "n_classes": 3,
                    "incipient": [2], "model": {"epochs": 2, "encoder": [3]}})
    for mode in ("flat", "level1", "level2"):
        assert _run(["train", "--mode", mode, "--config", train,
                     "--out", str(root / mode)])[0] == 0
    evaluate = _write(root / "evaluate.json",
                      {"seed": 1, "archive": str(arc),
                       "model": str(root / "flat"),
                       "level1": str(root / "level1"),
                       "level2": str(root / "level2"),
                       "incipient": [2], "n_classes": 3})
    out = str(root / "out")
    assert _run(["evaluate", "--config", evaluate, "--out",
                 str(root / "report")])[0] == 0
    assert _run(["prbs", "design", "--config",
                 _write(root / "band.json", {"seed": 1}),
                 "--out", str(root / "plan")])[0] == 0
    return root


@pytest.fixture(scope="module")
def artifacts(root):
    """Paths of the saved files and the runs that read each of them."""
    arc = root / "archive"
    evaluate = str(root / "evaluate.json")
    out = str(root / "out")
    plan = str(root / "plan" / "plan.json")

    runs = {
        "evaluate": [["evaluate", "--config", evaluate, "--out", out],
                     ["evaluate", "--hierarchical", "--config", evaluate,
                      "--out", out]],
        "ingest": [["ingest", "--out", out, "--config", _write(
            root / "reingest.json",
            {"seed": 1, "data": str(root / "records.txt"),
             "labels": str(root / "labels.txt"), "window": 5,
             "split": {"test": 1.0}, "scaler": str(arc / "scaler.json")})]],
        "plan": [["simulate", "--out", out, "--config", _write(
                     root / "probe.json",
                     {"seed": 1, "horizon": 60, "prbs": plan})],
                 ["prbs", "design", "--out", out, "--config", _write(
                     root / "replan.json",
                     {"seed": 1, "prbs": plan})]],
        "report": [["report", "--config", _write(
            root / "report.json", {"seed": 1,
                                   "report": str(root / "report")})]],
    }
    readers = {arc / "scaler.json": runs["ingest"],
               root / "plan" / "plan.json": runs["plan"],
               root / "report" / "summary.json": runs["report"],
               root / "report" / "confusion.txt": runs["report"]}
    for name in ("test_windows.npy", "test_labels.npy"):
        readers[arc / name] = runs["evaluate"]
    for mode in ("flat", "level1", "level2"):
        for name in ("scaler.json", "config.json", "history.tsv",
                     "params.bin"):
            readers[root / mode / name] = [runs["evaluate"][mode != "flat"]]
    return readers


def _json_paths(node, path=()):
    """Every key path into a JSON value, leaves and inner nodes."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _json_paths(value, (*path, key))


def _mutate_json(blob, rng, pools=(OTHER_KINDS, HUGE)):
    """A deleted key or a value from one of the pools, at a random place
    of a JSON file; None if the file holds no such place."""
    doc = json.loads(blob)
    paths = [p for p in _json_paths(doc) if p]
    if not paths:
        return None
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = rng.integers(1 + len(pools))
    if action == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    else:   # a list entry takes the last pool's value in place of deletion
        pool = pools[action - 1]
        parent[path[-1]] = pool[rng.integers(len(pool))]
    return json.dumps(doc).encode()


def _mutate_text(blob, rng):
    """A huge number in place of one whitespace-separated token."""
    tokens = [m.span() for m in re.finditer(rb"\S+", blob)]
    start, end = tokens[rng.integers(len(tokens))]
    huge = str(HUGE[rng.integers(len(HUGE))]).encode()
    return blob[:start] + huge + blob[end:]


def _mutate_npy(path, rng):
    """The array with one entry set to a huge number, or as floats with
    one entry NaN."""
    arr = np.load(path)
    value = HUGE[rng.integers(len(HUGE))]
    if rng.integers(4) == 0:
        arr, value = arr.astype(np.float64), float("nan")
    flat = arr.reshape(-1)
    if arr.dtype.kind == "f":
        flat[rng.integers(flat.size)] = float(value)
    else:
        flat[rng.integers(flat.size)] = max(min(value, 2 ** 63 - 1), -2 ** 63)
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _mutation(path, blob, rng):
    """(description, damaged bytes) of one random mutation of a file."""
    kind = ("flip", "cut", "value")[rng.integers(3)]
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(1 + rng.integers(3)):
            out[rng.integers(len(out))] ^= 1 + int(rng.integers(255))
        return kind, bytes(out)
    if kind == "cut":
        return kind, blob[:rng.integers(len(blob))]
    if path.suffix == ".json":
        damaged = _mutate_json(blob, rng)
        return kind, blob[:-1] if damaged is None else damaged
    if path.suffix == ".npy":
        return kind, _mutate_npy(path, rng)
    if path.suffix in (".txt", ".tsv"):
        return kind, _mutate_text(blob, rng)
    return "cut", blob[:rng.integers(len(blob))]


def test_damaged_files_exit_cleanly(artifacts):
    rng = np.random.default_rng(20261020)
    files = sorted(artifacts)
    problems = []
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(N_CASES):
        path = files[rng.integers(len(files))]
        pristine = path.read_bytes()
        kind, damaged = _mutation(path, pristine, rng)
        path.write_bytes(damaged)
        try:
            for argv in artifacts[path]:
                what = f"case {case}: {kind} of {path.name} for {argv[0]}"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code, err = _run(argv)
                except Exception as exc:   # reported below, with the case
                    problems.append(f"{what}: {type(exc).__name__}: {exc}")
                    continue
                lines = err.splitlines()
                if code not in codes:
                    problems.append(f"{what}: exit {code}")
                elif code and (len(lines) != 1
                               or not lines[0].startswith("fddkit: ")):
                    problems.append(f"{what}: stderr {err!r}")
                else:
                    codes[code] += 1
        finally:
            path.write_bytes(pristine)
    assert not problems, "\n".join(problems)
    # the sweep reaches both the clean failures and intact reads
    assert codes[0] and codes[1]


@pytest.fixture(scope="module")
def configs(root):
    """(argv, config) pairs, each a valid run of simulate, prbs design,
    ingest or train that finishes in well under a second."""
    plant = default_plant()
    plant_node = {key: np.asarray(getattr(plant, key)).tolist() for key in (
        "a", "b", "c", "noise_std", "controlled", "setpoints",
        "setpoint_ranges", "kp", "ki", "t_s")}
    band = {"s_f": 1.0, "t_s": 180.0, "amplitude": 0.1, "burst_len": 10,
            "burst_interval": 20}
    model = {"encoder": [3], "decoder": [10], "epochs": 1, "batch_size": 16,
             "learning_rate": 0.05, "lam1": 1.0, "lam2": 1.0, "lam3": 1e-4}
    surrogate = {"classes": [0, 1, 3], "incipient": [3], "n_series": 1,
                 "n_series_level2": 1, "horizon": 30, "window": 10,
                 "onset": 10}
    train = [["train", "--mode", mode] for mode in ("flat", "level2")]
    return [
        (["simulate"], {
            "seed": 1, "horizon": 40, "plant": plant_node,
            "fault": {"kind": "step", "target": 0, "magnitude": 1.0,
                      "onset": 10, "slope": 0.1, "deadband": 0.0, "std": 0.0,
                      "site": "sensor", "fault_class": 1},
            "prbs": {"tau_ol": 1800.0, "tau_cl": 1030.0, "target": "loop1",
                     **band}}),
        (["simulate"], {
            "seed": 2, "horizon": 40, "fault": {"class": 11, "onset": 10},
            "prbs": "default"}),
        (["simulate"], {
            "seed": 3, "horizon": 40,
            "fault": {"kind": "random_variation", "target": 1, "std": 0.5,
                      "magnitude": 1.0, "onset": 5, "site": "actuator"}}),
        (["prbs", "design"], {
            "seed": 0, "plant": {"t_s": 180.0},
            "prbs": {"omega_low": 5e-4, "omega_high": 4e-3,
                     "omega_nyquist": 0.0174, "target": 1, **band}}),
        (["ingest"], {
            "seed": 1, "data": str(root / "records.txt"),
            "labels": str(root / "labels.txt"), "window": 5,
            "expected_cols": 10, "contiguous": True,
            "split": {"train": 0.6, "val": 0.2, "test": 0.2}}),
        *[(argv, {"seed": 1, "surrogate": surrogate, "model": model,
                  "prbs": "default"}) for argv in train],
        *[(argv, {"seed": 1, "archive": str(root / "archive"),
                  "n_classes": 3, "incipient": [2],
                  "model": {**model, "epochs": 0}}) for argv in train],
    ]


def _capped(blob):
    """A mutated config with a model epoch count above one set to one."""
    try:
        cfg = json.loads(blob)
        epochs = cfg["model"]["epochs"]
    except (ValueError, TypeError, KeyError):
        return blob
    if type(epochs) is int and epochs > 1:
        cfg["model"]["epochs"] = 1
        return json.dumps(cfg).encode()
    return blob


def test_mutated_configs_exit_cleanly(root, configs):
    rng = np.random.default_rng(20261021)
    out = str(root / "config_out")
    path = root / "mutated.json"
    problems = []
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(N_CONFIG_CASES):
        argv, cfg = configs[rng.integers(len(configs))]
        blob = _mutate_json(json.dumps(cfg).encode(), rng,
                            (OTHER_KINDS, TINY, HUGE))
        path.write_bytes(_capped(blob))
        what = f"case {case}: {' '.join(argv)} on {path.read_text()}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = _run([*argv, "--config", str(path), "--out", out])
        except Exception as exc:   # reported below, with the case
            problems.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        lines = err.splitlines()
        if code not in codes:
            problems.append(f"{what}: exit {code}")
        elif code and (len(lines) != 1
                       or not lines[0].startswith("fddkit: ")):
            problems.append(f"{what}: stderr {err!r}")
        else:
            codes[code] += 1
    assert not problems, "\n".join(problems)
    # the sweep reaches both the clean failures and intact runs
    assert codes[0] and codes[1]
