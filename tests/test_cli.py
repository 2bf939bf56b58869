"""End-to-end command-line flows against temporary directories."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fddkit.cli
import fddkit.pipeline
from fddkit.cli import main
from fddkit.dataio import (BOOL, INTEGER, INTEGERS, LOOP, MATRIX, NUMBER,
                           NUMBERS, OBJECT, PATH, STRING, STRING_OR_OBJECT,
                           Scaler, load_labels, load_matrix, save_labels,
                           save_matrix)
from fddkit.hierarchy import LabelMap
from fddkit.metrics import build_report, confusion, save_report
from fddkit.model import (F32_WEIGHT_LIMIT, ModelConfig, TrainedModel,
                          build_params, load_model, save_model)
from fddkit.pipeline import (default_excitation, evaluate_classifier,
                             fit_hierarchical, hierarchical_report,
                             scenario_batch)
from fddkit.plant import default_plant
from fddkit.prbs import TAPS, PrbsPlan, save_plan

TINY_SURROGATE = {
    "classes": [0, 1, 2],
    "incipient": [],
    "n_series": 1,
    "horizon": 120,
    "onset": 40,
    "window": 10,
}
# the network and its training, which train and tune read from "model"
TINY_MODEL = {"epochs": 2, "encoder": [5]}


def tiny_spec(surrogate):
    """The library recipe a config's surrogate node and TINY_MODEL give."""
    return dataclasses.replace(
        fddkit.cli._spec_from({"surrogate": surrogate}), epochs=2,
        encoder=(5,))


def write_config(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def test_simulate_writes_parseable_files(tmp_path):
    cfg = write_config(tmp_path / "sim.json",
                       {"seed": 5, "horizon": 200,
                        "fault": {"class": 2, "onset": 50}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    records = load_matrix(out / "records.txt")
    labels = load_labels(out / "labels.txt")
    assert records.shape == (200, 10)
    assert labels.shape == (200,)
    assert set(labels[50:]) == {2}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_outputs"] == 8 and meta["n_loops"] == 2


def test_simulate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "sim.json",
                       {"seed": 9, "horizon": 150, "prbs": "default"})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "records.txt").read_bytes() == (b / "records.txt").read_bytes()
    assert (a / "labels.txt").read_bytes() == (b / "labels.txt").read_bytes()


def test_config_validation_exit_codes(tmp_path):
    no_seed = write_config(tmp_path / "a.json", {"horizon": 10})
    assert main(["simulate", "--config", no_seed,
                 "--out", str(tmp_path / "x")]) == 1
    bad_json = tmp_path / "b.json"
    bad_json.write_text("{nope")
    assert main(["simulate", "--config", str(bad_json),
                 "--out", str(tmp_path / "x")]) == 1
    unknown = write_config(tmp_path / "c.json",
                           {"seed": 1, "fault": {"class": 2, "typo": 3}})
    assert main(["simulate", "--config", unknown,
                 "--out", str(tmp_path / "x")]) == 1
    missing = main(["simulate", "--config", str(tmp_path / "ghost.json"),
                    "--out", str(tmp_path / "x")])
    assert missing == 1


def test_ingest_round_trip(tmp_path):
    sim = write_config(tmp_path / "sim.json",
                       {"seed": 3, "horizon": 200,
                        "fault": {"class": 1, "onset": 60}})
    raw = tmp_path / "raw"
    assert main(["simulate", "--config", sim, "--out", str(raw)]) == 0
    ing = write_config(tmp_path / "ingest.json", {
        "seed": 3,
        "data": str(raw / "records.txt"),
        "labels": str(raw / "labels.txt"),
        "window": 15,
        "split": {"train": 0.6, "val": 0.2, "test": 0.2},
    })
    arc = tmp_path / "arc"
    assert main(["ingest", "--config", ing, "--out", str(arc)]) == 0
    meta = json.loads((arc / "meta.json").read_text())
    total = sum(meta["counts"].values())
    assert total <= 200 - 15 + 1  # contiguous split may drop overlaps
    train_w = np.load(arc / "train_windows.npy")
    assert train_w.shape[1:] == (15, 10)
    scaler = json.loads((arc / "scaler.json").read_text())
    assert len(scaler["mean"]) == 10


def test_ingest_with_saved_scaler(tmp_path):
    # Pre-split archives: the held-out recording is scaled with the
    # training recording's statistics, not its own.
    sim = write_config(tmp_path / "sim.json", {"seed": 4, "horizon": 120})
    raw = tmp_path / "raw"
    assert main(["simulate", "--config", sim, "--out", str(raw)]) == 0
    base = {"seed": 4, "data": str(raw / "records.txt"),
            "labels": str(raw / "labels.txt"), "window": 10}
    first = write_config(tmp_path / "a.json", dict(
        base, split={"train": 1.0, "val": 0.0, "test": 0.0}))
    arc_a = tmp_path / "arc_a"
    assert main(["ingest", "--config", first, "--out", str(arc_a)]) == 0
    reuse = write_config(tmp_path / "b.json", dict(
        base, split={"train": 0.0, "val": 0.0, "test": 1.0},
        scaler=str(arc_a / "scaler.json")))
    arc_b = tmp_path / "arc_b"
    assert main(["ingest", "--config", reuse, "--out", str(arc_b)]) == 0
    a = np.load(arc_a / "train_windows.npy")
    b = np.load(arc_b / "test_windows.npy")
    np.testing.assert_array_equal(a, b)
    assert json.loads((arc_a / "scaler.json").read_text()) == \
        json.loads((arc_b / "scaler.json").read_text())
    # Without a train split or a saved scaler there is nothing to fit.
    bad = write_config(tmp_path / "c.json", dict(
        base, split={"train": 0.0, "val": 0.0, "test": 1.0}))
    assert main(["ingest", "--config", bad,
                 "--out", str(tmp_path / "arc_c")]) == 1


def test_train_evaluate_flat_surrogate(tmp_path):
    train_cfg = write_config(tmp_path / "train.json",
                             {"seed": 2, "surrogate": TINY_SURROGATE,
                              "model": TINY_MODEL})
    model_dir = tmp_path / "model"
    assert main(["train", "--config", train_cfg, "--out", str(model_dir),
                 "--mode", "flat"]) == 0
    assert (model_dir / "params.bin").exists()
    eval_cfg = write_config(tmp_path / "eval.json",
                            {"seed": 2, "surrogate": TINY_SURROGATE,
                             "model": str(model_dir)})
    rep = tmp_path / "rep"
    assert main(["evaluate", "--config", eval_cfg, "--out", str(rep)]) == 0
    summary = json.loads((rep / "summary.json").read_text())
    assert "far" in summary and "fdr_by_class" in summary
    report_cfg = write_config(tmp_path / "r.json",
                              {"seed": 0, "report": str(rep)})
    assert main(["report", "--config", report_cfg]) == 0


def test_hierarchical_cli_flow(tmp_path):
    surr = {
        "classes": [0, 1, 3, 11],
        "incipient": [3, 11],
        "n_series": 1,
        "n_series_level2": 1,
        "horizon": 120,
        "onset": 40,
        "window": 10,
    }
    base = {"seed": 4, "surrogate": surr}
    l1 = tmp_path / "l1"
    l2 = tmp_path / "l2"
    c1 = write_config(tmp_path / "l1.json", {**base, "model": TINY_MODEL})
    assert main(["train", "--config", c1, "--out", str(l1),
                 "--mode", "level1"]) == 0
    c2 = write_config(tmp_path / "l2.json", {**base, "prbs": "default",
                                             "model": TINY_MODEL})
    assert main(["train", "--config", c2, "--out", str(l2),
                 "--mode", "level2"]) == 0
    ev = write_config(tmp_path / "ev.json",
                      {**base, "level1": str(l1), "level2": str(l2)})
    rep = tmp_path / "rep"
    assert main(["evaluate", "--config", ev, "--out", str(rep),
                 "--hierarchical", "--prbs", "on"]) == 0
    counts = np.loadtxt(rep / "confusion.txt", dtype=np.int64)
    assert counts.shape == (12, 12)


def test_tune_cli(tmp_path):
    cfg = write_config(tmp_path / "tune.json",
                       {"seed": 1, "surrogate": TINY_SURROGATE,
                        "model": TINY_MODEL,
                        "search_space": {"learning_rate": [0.01, 0.05]},
                        "budget": 2})
    out = tmp_path / "tuned"
    assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
    model_cfg = json.loads((out / "config.json").read_text())
    assert model_cfg["learning_rate"] in (0.01, 0.05)


def test_tune_level2_validates_on_its_training_recipe(tmp_path, monkeypatch):
    seen = {}

    def fake_tune(train_b, val_b, search_space, budget, base):
        seen["train"], seen["val"] = train_b, val_b
        return base

    monkeypatch.setattr(fddkit.cli, "tune", fake_tune)
    surr = {**TINY_SURROGATE, "classes": [0, 1, 3, 11],
            "incipient": [3, 11], "n_series_level2": 2}
    cfg = write_config(tmp_path / "tune.json",
                       {"seed": 1, "surrogate": surr, "model": TINY_MODEL,
                        "prbs": "default"})
    assert main(["tune", "--mode", "level2", "--config", cfg,
                 "--out", str(tmp_path / "tuned")]) == 0
    train_b, val_b = seen["train"], seen["val"]
    assert set(val_b.labels) == set(train_b.labels) == {0, 1, 2}
    assert len(val_b) == len(train_b)


def test_divergence_exit_code(tmp_path):
    cfg = write_config(tmp_path / "train.json",
                       {"seed": 2, "surrogate": TINY_SURROGATE,
                        "model": {**TINY_MODEL, "learning_rate": 1e160}})
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", cfg,
                   "--out", str(tmp_path / "m"), "--mode", "flat"])
    assert rc == 2


def test_prbs_design_cli(tmp_path):
    good = write_config(tmp_path / "p.json",
                        {"seed": 0,
                         "prbs": {"tau_ol": 1800.0, "tau_cl": 1030.0}})
    out = tmp_path / "plan"
    assert main(["prbs", "design", "--config", good, "--out",
                 str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["period"] == 63
    infeasible = write_config(tmp_path / "q.json",
                              {"seed": 0,
                               "prbs": {"tau_ol": 1800.0, "tau_cl": 1.0}})
    assert main(["prbs", "design", "--config", infeasible, "--out",
                 str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("target", ["pump", "loop7", 3])
def test_prbs_design_rejects_bad_target(tmp_path, capsys, target):
    cfg = write_config(tmp_path / "p.json",
                       {"seed": 0, "prbs": {"tau_ol": 1800.0,
                                            "tau_cl": 1030.0,
                                            "target": target}})
    assert main(["prbs", "design", "--config", cfg,
                 "--out", str(tmp_path / "plan")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fddkit: ") and err.count("\n") == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", "x.json", "--out", "y",
              "--mode", "sideways"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_corrupt_params_exit_one(tmp_path, capsys):
    # A damaged params.bin is bad input (exit 1), not numeric divergence
    # (exit 2), and gives one `fddkit:` line instead of a traceback.
    config = ModelConfig(encoder=(5,), decoder=(10,), n_features=10,
                         n_classes=3, horizon=10)
    model_dir = tmp_path / "model"
    save_model(TrainedModel(config, build_params(config), [],
                            Scaler(np.zeros(10), np.ones(10))), model_dir)
    blob = (model_dir / "params.bin").read_bytes()
    eval_cfg = write_config(tmp_path / "eval.json",
                            {"seed": 2, "surrogate": TINY_SURROGATE,
                             "model": str(model_dir),
                             "level1": str(model_dir),
                             "level2": str(model_dir)})
    # a NaN or an infinity as the last weight of the head
    non_finite = [blob[:-8] + np.array([v], dtype="<f8").tobytes()
                  for v in (np.nan, np.inf, -np.inf)]
    for junk in [b"not a parameter file", blob[:10], blob[:-8],
                 blob + b"\0", *non_finite]:
        (model_dir / "params.bin").write_bytes(junk)
        for mode in ([], ["--hierarchical"]):
            _assert_one_line_exit_one(
                ["evaluate", "--config", eval_cfg,
                 "--out", str(tmp_path / "rep")] + mode, capsys)


def test_tune_rejects_unknown_mode(tmp_path, capsys):
    cfg = write_config(tmp_path / "tune.json",
                       {"seed": 1, "surrogate": TINY_SURROGATE})
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--mode", "sideways", "--config", cfg,
              "--out", str(tmp_path / "tuned")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "'sideways'" in err and "'level2'" in err
    assert not (tmp_path / "tuned").exists()


def _corrupt_scaler_text(kind, rng):
    if kind == "junk":
        return bytes(rng.integers(0, 256, size=int(rng.integers(1, 64)),
                                  dtype=np.uint8))
    n = int(rng.integers(1, 11))
    vals = rng.normal(size=n).tolist()
    if kind in ("nan_mean", "inf_std"):
        # well-formed for the 10-column data but for one value, which
        # json writes as NaN or Infinity and reads back
        rec = {"mean": rng.normal(size=10).tolist(), "std": [1.0] * 10}
        key, bad = ("mean", np.nan) if kind == "nan_mean" else ("std", np.inf)
        rec[key][int(rng.integers(10))] = bad
        return json.dumps(rec).encode()
    rec = {"list": [1, 2],
           "no_std": {"mean": vals},
           "string_mean": {"mean": "0.0", "std": [1.0] * n}}[kind]
    return json.dumps(rec).encode()


def _window_archive(tmp_path, window):
    """An archive ingested from a two-class text recording with windows
    of the given length."""
    rng = np.random.default_rng(window)
    save_matrix(tmp_path / "data.txt", rng.normal(size=(60, 3)))
    save_labels(tmp_path / "labels.txt", np.repeat([0, 1], 30))
    cfg = write_config(tmp_path / "ingest.json", {
        "seed": 1, "data": str(tmp_path / "data.txt"),
        "labels": str(tmp_path / "labels.txt"), "window": window})
    arc = tmp_path / f"arc{window}"
    assert main(["ingest", "--config", cfg, "--out", str(arc)]) == 0
    return arc


def _train_on(tmp_path, arc, epochs, capsys):
    """Train a flat model on arc; the line train printed."""
    cfg = write_config(tmp_path / "train.json", {
        "seed": 1, "archive": str(arc),
        "model": {"encoder": [2], "decoder": [3], "epochs": epochs}})
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "model"),
                 "--mode", "flat"]) == 0
    return capsys.readouterr().out


def test_model_records_its_window_length_and_evaluate_rejects_others(
        tmp_path, capsys):
    arc5 = _window_archive(tmp_path, 5)
    _train_on(tmp_path, arc5, 1, capsys)
    config = json.loads((tmp_path / "model" / "config.json").read_text())
    assert config["horizon"] == 5

    def evaluate(arc):
        cfg = write_config(tmp_path / "eval.json", {
            "seed": 1, "archive": str(arc),
            "model": str(tmp_path / "model")})
        return ["evaluate", "--config", cfg, "--out", str(tmp_path / "rep")]

    assert main(evaluate(arc5)) == 0
    err = _assert_one_line_exit_one(evaluate(_window_archive(tmp_path, 9)),
                                    capsys)
    assert "windows have 9 samples, the model was trained on 5" in err


def test_train_line_names_the_final_epoch_loss_or_that_none_ran(tmp_path,
                                                                 capsys):
    arc = _window_archive(tmp_path, 5)
    n_train = json.loads((arc / "meta.json").read_text())["counts"]["train"]
    head = f"trained flat model (2 classes, {n_train} windows), "
    assert _train_on(tmp_path, arc, 0, capsys) == head + "no epoch ran\n"
    line = _train_on(tmp_path, arc, 1, capsys)
    assert line.startswith(head + "final epoch loss ")
    assert math.isfinite(float(line.split()[-1]))


def _saved_model(directory):
    config = ModelConfig(encoder=(5,), decoder=(10,), n_features=10,
                         n_classes=3, horizon=10)
    save_model(TrainedModel(config, build_params(config), [
        {"epoch": 0, "loss": 1.5, "val_accuracy": 0.5}],
        Scaler(np.zeros(10), np.ones(10))), directory)
    return directory


def _assert_one_line_exit_one(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fddkit: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["junk", "list", "no_std", "string_mean",
                                  "nan_mean", "inf_std"])
def test_corrupt_scaler_exits_one(tmp_path, capsys, kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    bad = tmp_path / "scaler.json"
    bad.write_bytes(_corrupt_scaler_text(kind, rng))
    sim = write_config(tmp_path / "sim.json", {"seed": 4, "horizon": 60})
    raw = tmp_path / "raw"
    assert main(["simulate", "--config", sim, "--out", str(raw)]) == 0
    ing = write_config(tmp_path / "ingest.json", {
        "seed": 4, "data": str(raw / "records.txt"),
        "labels": str(raw / "labels.txt"), "window": 10,
        "split": {"train": 0.0, "val": 0.0, "test": 1.0},
        "scaler": str(bad)})
    assert "scaler" in _assert_one_line_exit_one(
        ["ingest", "--config", ing, "--out", str(tmp_path / "arc")], capsys)
    model_dir = _saved_model(tmp_path / "model")
    (model_dir / "scaler.json").write_bytes(bad.read_bytes())
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "surrogate": TINY_SURROGATE,
                       "model": str(model_dir), "level1": str(model_dir),
                       "level2": str(model_dir)})
    for mode in ([], ["--hierarchical"]):
        assert "scaler" in _assert_one_line_exit_one(
            ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")]
            + mode, capsys)


def test_model_without_scaler_exits_one(tmp_path, capsys):
    # such a model was evaluated on raw windows and exited 0
    model_dir = _saved_model(tmp_path / "model")
    (model_dir / "scaler.json").unlink()
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "surrogate": TINY_SURROGATE,
                       "model": str(model_dir), "level1": str(model_dir),
                       "level2": str(model_dir)})
    for mode in ([], ["--hierarchical"]):
        assert "scaler.json" in _assert_one_line_exit_one(
            ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")]
            + mode, capsys)


def _evaluate_argv(tmp_path, model_dir, *mode):
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "surrogate": TINY_SURROGATE,
                       "model": str(model_dir), "level1": str(model_dir),
                       "level2": str(model_dir)})
    return ["evaluate", "--config", ev, "--out", str(tmp_path / "rep"),
            *mode]


@pytest.mark.filterwarnings("error")
def test_model_scaler_that_overflows_the_windows_exits_one(tmp_path,
                                                           capsys):
    model_dir = _saved_model(tmp_path / "model")
    scaler = json.loads((model_dir / "scaler.json").read_text())
    # the first standardization overflows float64; float64 holds the
    # second, but the float32 pass cannot
    for mean, dtype in ((1e308, "float64"), (scaler["mean"][0], "float32")):
        scaler["mean"][0], scaler["std"][0] = mean, 1e-300
        (model_dir / "scaler.json").write_text(json.dumps(scaler))
        err = _assert_one_line_exit_one(_evaluate_argv(tmp_path, model_dir),
                                        capsys)
        assert dtype in err and "scaler" in err


@pytest.mark.filterwarnings("error")
def test_params_weight_float32_cannot_take_exits_one(tmp_path, capsys):
    # train never saves a weight of F32_WEIGHT_LIMIT or more (it reports
    # divergence first), so load_model rejects one as a corrupt file
    model_dir = _saved_model(tmp_path / "model")
    path = model_dir / "params.bin"
    blob = path.read_bytes()
    for weight in (F32_WEIGHT_LIMIT, -1e300):
        path.write_bytes(blob[:-8] + np.array([weight], "<f8").tobytes())
        for mode in ([], ["--hierarchical"]):
            err = _assert_one_line_exit_one(
                _evaluate_argv(tmp_path, model_dir, *mode), capsys)
            assert "params.bin" in err and "corrupt" in err
    # the largest weight below the limit loads and predicts
    path.write_bytes(blob[:-8] + np.array(
        [np.nextafter(F32_WEIGHT_LIMIT, 0)], "<f8").tobytes())
    assert main(_evaluate_argv(tmp_path, model_dir)) == 0


@pytest.mark.filterwarnings("error")
def test_float32_pass_that_overflows_warns_nothing(tmp_path, capsys):
    # channel 0 standardizes to about 1e37 and its input weights are 100,
    # so the float32 input projection overflows to infinity; the gates
    # saturate as they would in float64, silently, as in a training step
    model_dir = _saved_model(tmp_path / "model")
    model = load_model(model_dir)
    model.params.layers[0].W[:, 0] = 100.0
    model.scaler.std[0] = 1e-37
    save_model(model, model_dir)
    capsys.readouterr()
    assert main(_evaluate_argv(tmp_path, model_dir)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_ingest_scaler_that_overflows_the_windows_exits_one(tmp_path,
                                                            capsys):
    sim = write_config(tmp_path / "sim.json", {"seed": 4, "horizon": 60})
    raw = tmp_path / "raw"
    assert main(["simulate", "--config", sim, "--out", str(raw)]) == 0
    mean = [0.0] * 10
    mean[0], mean[1] = 1e308, -1e308
    Scaler(mean, [0.5] * 10).save(tmp_path / "scaler.json")
    ing = write_config(tmp_path / "ingest.json", {
        "seed": 4, "data": str(raw / "records.txt"),
        "labels": str(raw / "labels.txt"), "window": 10,
        "scaler": str(tmp_path / "scaler.json")})
    assert "scaler" in _assert_one_line_exit_one(
        ["ingest", "--config", ing, "--out", str(tmp_path / "arc")], capsys)


@pytest.mark.filterwarnings("error")
def test_ingest_of_data_whose_statistics_overflow_exits_one(tmp_path,
                                                           capsys):
    rng = np.random.default_rng(8)
    save_matrix(tmp_path / "big.txt", rng.normal(size=(60, 3)) * 1e200)
    save_labels(tmp_path / "labels.txt", np.zeros(60, dtype=int))
    ing = write_config(tmp_path / "ingest.json", {
        "seed": 1, "data": str(tmp_path / "big.txt"),
        "labels": str(tmp_path / "labels.txt"), "window": 5})
    # the scaler used to be saved with an infinite std
    assert "overflow" in _assert_one_line_exit_one(
        ["ingest", "--config", ing, "--out", str(tmp_path / "arc")], capsys)
    assert not (tmp_path / "arc" / "scaler.json").exists()


# A horizon of 10**16 or an encoder of 10**15 units asks numpy for more
# bytes than a 64-bit process can address but fewer than an index can
# count, so the allocation fails with MemoryError on any host, whatever
# its memory and overcommit policy.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, payload", [
    (["simulate"], {"horizon": 2 ** 63}),
    (["simulate"], {"horizon": 2 ** 63 - 1}),
    (["simulate"], {"horizon": 10 ** 16}),
    (["train", "--mode", "flat"], {"surrogate": {"horizon": 10 ** 16}}),
    (["train", "--mode", "flat"],
     {"surrogate": TINY_SURROGATE,
      "model": {"epochs": 1, "encoder": [10 ** 15]}}),
    (["train", "--mode", "flat"],
     {"surrogate": TINY_SURROGATE,
      "model": {"epochs": 1, "encoder": [10 ** 18]}}),
    (["ingest"], {"window": 0}),
    (["train", "--mode", "flat"],
     {"surrogate": {**TINY_SURROGATE, "window": -3}}),
], ids=["dimension", "too-big", "petabytes", "surrogate-petabytes",
        "encoder-petabytes", "encoder-too-big", "ingest-window",
        "surrogate-window"])
def test_sizes_numpy_cannot_allocate_exit_one(tmp_path, capsys, argv,
                                              payload):
    # each ended in a numpy traceback, or for a window below 1 in a
    # message about labels
    if argv == ["ingest"]:
        save_matrix(tmp_path / "data.txt", np.zeros((30, 2)))
        save_labels(tmp_path / "labels.txt", np.zeros(30, dtype=int))
        payload = {**payload, "data": str(tmp_path / "data.txt"),
                   "labels": str(tmp_path / "labels.txt")}
    cfg = write_config(tmp_path / "cfg.json", {"seed": 1, **payload})
    err = _assert_one_line_exit_one(
        [*argv, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert "labels" not in err


def _with_shape(blob, old, new):
    """A .npy file's bytes with its header's shape text replaced and the
    header's padding adjusted, so its length and the data stay put."""
    end = blob.index(b"\n", blob.index(b"}"))
    header = blob[:end].replace(old, new).rstrip(b" ")
    return header + b" " * (end - len(header)) + blob[end:]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [b"(N, 10, 10", b"(99999999999, 10, 10)",
                                   b"(9999999999999999999, 10, 10)"],
                         ids=["unbalanced", "unallocatable", "overflowing"])
def test_npy_header_with_a_bad_shape_exits_one(tmp_path, capsys, shape):
    sim = write_config(tmp_path / "sim.json",
                       {"seed": 3, "horizon": 120,
                        "fault": {"class": 1, "onset": 40}})
    raw = tmp_path / "raw"
    assert main(["simulate", "--config", sim, "--out", str(raw)]) == 0
    ing = write_config(tmp_path / "ingest.json", {
        "seed": 3, "data": str(raw / "records.txt"),
        "labels": str(raw / "labels.txt"), "window": 10})
    arc = tmp_path / "arc"
    assert main(["ingest", "--config", ing, "--out", str(arc)]) == 0
    path = arc / "test_windows.npy"
    n = json.loads((arc / "meta.json").read_text())["counts"]["test"]
    old = b"(%d, 10, 10)" % n
    path.write_bytes(_with_shape(path.read_bytes(), old,
                                 shape.replace(b"N", b"%d" % n)))
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 3, "archive": str(arc),
                       "model": str(_saved_model(tmp_path / "model"))})
    assert path.name in _assert_one_line_exit_one(
        ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")], capsys)


@pytest.mark.parametrize("argv, extra", [
    (["simulate"], {"horizon": 50}),
    (["ingest"], {"data": "d.txt", "labels": "l.txt", "window": 5}),
    (["train", "--mode", "flat"], {"archive": "arc"}),
    (["tune"], {}),
    (["evaluate"], {"model": "m"}),
    (["prbs", "design"], {}),
    (["report"], {"report": "r"}),
], ids=["simulate", "ingest", "train", "tune", "evaluate", "prbs-design",
        "report"])
def test_negative_seed_exits_one_naming_it(tmp_path, capsys, argv, extra):
    cfg = write_config(tmp_path / "c.json", {"seed": -3, **extra})
    out = [] if argv == ["report"] else ["--out", str(tmp_path / "out")]
    err = _assert_one_line_exit_one([*argv, "--config", cfg, *out], capsys)
    assert err.startswith("fddkit: config key 'seed'")


@pytest.mark.parametrize("name, text", [
    ("config.json", "{nope"),
    ("config.json", None),   # an unknown key
    ("history.tsv", "epoch\tloss\tval_accuracy\n0\t1.5\n"),
])
def test_corrupt_model_files_exit_one(tmp_path, capsys, name, text):
    model_dir = _saved_model(tmp_path / "model")
    if text is None:
        cfg = json.loads((model_dir / name).read_text())
        text = json.dumps({**cfg, "dropout": 0.5})
    (model_dir / name).write_text(text)
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "surrogate": TINY_SURROGATE,
                       "model": str(model_dir)})
    assert name in _assert_one_line_exit_one(
        ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")], capsys)


@pytest.mark.parametrize("change", [{"n_classes": 10 ** 9},
                                    {"encoder": [4], "n_classes": 4}])
def test_model_config_that_disagrees_with_its_params_exits_one(
        tmp_path, capsys, change):
    # a huge class count used to reach the confusion matrix's allocation
    model_dir = _saved_model(tmp_path / "model")
    cfg = json.loads((model_dir / "config.json").read_text())
    (model_dir / "config.json").write_text(json.dumps({**cfg, **change}))
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "surrogate": TINY_SURROGATE,
                       "model": str(model_dir)})
    assert "describe different networks" in _assert_one_line_exit_one(
        ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")], capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("labels", [[0.0, 1.0, 0.5], [0.0, 1.0, np.nan]])
def test_archive_with_float_labels_exits_one(tmp_path, capsys, labels):
    # 0.5 used to be read as class 0, and NaN with a cast warning
    model_dir = _saved_model(tmp_path / "model")
    archive = tmp_path / "archive"
    archive.mkdir()
    np.save(archive / "test_windows.npy", np.zeros((3, 10, 10)))
    np.save(archive / "test_labels.npy", np.array(labels))
    ev = write_config(tmp_path / "eval.json",
                      {"seed": 2, "archive": str(archive),
                       "model": str(model_dir)})
    assert "labels must be integers" in _assert_one_line_exit_one(
        ["evaluate", "--config", ev, "--out", str(tmp_path / "rep")], capsys)


def _junk_bytes(rng):
    """1-63 random bytes with a 0xff among them, so never UTF-8 text."""
    raw = bytearray(rng.integers(0, 256, size=int(rng.integers(1, 64)),
                                 dtype=np.uint8))
    raw[int(rng.integers(len(raw)))] = 0xFF
    return bytes(raw)


def _cut_text(text, rng):
    """text cut short before its closing brace, so no longer JSON."""
    return text[:int(rng.integers(0, text.rindex("}")))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["junk", "cut", "list", "int_taps",
                                  "str_amplitude"])
def test_corrupt_plan_exits_one(tmp_path, capsys, kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    good = write_config(tmp_path / "p.json", {"seed": 0, "prbs": "default"})
    assert main(["prbs", "design", "--config", good,
                 "--out", str(tmp_path / "plan")]) == 0
    plan = tmp_path / "plan" / "plan.json"
    text = plan.read_text()
    if kind == "junk":
        plan.write_bytes(_junk_bytes(rng))
    elif kind == "cut":
        plan.write_text(_cut_text(text, rng))
    elif kind == "list":
        plan.write_text(json.dumps(rng.normal(size=3).tolist()))
    elif kind == "int_taps":
        plan.write_text(json.dumps({**json.loads(text),
                                    "taps": int(rng.integers(2, 17))}))
    else:
        plan.write_text(json.dumps({**json.loads(text),
                                    "amplitude": str(rng.normal())}))
    sim = write_config(tmp_path / "sim.json",
                       {"seed": 1, "horizon": 60, "prbs": str(plan)})
    assert "plan.json" in _assert_one_line_exit_one(
        ["simulate", "--config", sim, "--out", str(tmp_path / "run")],
        capsys)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["confusion_token", "confusion_binary",
                                  "summary_cut", "summary_no_fdr",
                                  "summary_str_far"])
def test_corrupt_report_exits_one(tmp_path, capsys, kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    rep = tmp_path / "rep"
    true = rng.integers(0, 3, size=40)
    save_report(build_report(confusion(true, rng.permutation(true), 3)), rep)
    name, part = kind.split("_", 1)
    path = rep / f"{name}.{'txt' if name == 'confusion' else 'json'}"
    if part == "token":
        rows = [line.split() for line in path.read_text().splitlines()]
        rows[int(rng.integers(3))][int(rng.integers(3))] = str(
            rng.choice(["x", "1.5", "nan", "inf", "0x1"]))
        path.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    elif part == "binary":
        path.write_bytes(_junk_bytes(rng))
    elif part == "cut":
        path.write_text(_cut_text(path.read_text(), rng))
    elif part == "no_fdr":
        summary = json.loads(path.read_text())
        del summary["fdr_by_class"]
        path.write_text(json.dumps(summary))
    else:
        summary = json.loads(path.read_text())
        path.write_text(json.dumps({**summary, "far": str(rng.random())}))
    cfg = write_config(tmp_path / "r.json", {"seed": 0, "report": str(rep)})
    assert path.name in _assert_one_line_exit_one(
        ["report", "--config", cfg], capsys)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["junk", "truncated", "object"])
def test_corrupt_archive_exits_one(tmp_path, capsys, kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    arc = tmp_path / "arc"
    arc.mkdir()
    np.save(arc / "train_windows.npy", rng.normal(size=(8, 5, 3)))
    np.save(arc / "train_labels.npy", np.arange(8) % 2)
    # even seeds damage the windows, odd seeds the labels
    path = arc / f"train_{('windows', 'labels')[seed % 2]}.npy"
    blob = path.read_bytes()
    if kind == "junk":
        path.write_bytes(_junk_bytes(rng))
    elif kind == "truncated":
        path.write_bytes(blob[:int(rng.integers(len(blob)))])
    else:
        np.save(path, np.array([{"w": 1}] * 8, dtype=object),
                allow_pickle=True)
    cfg = write_config(tmp_path / "train.json",
                       {"seed": 1, "archive": str(arc), "n_classes": 2})
    assert path.name in _assert_one_line_exit_one(
        ["train", "--config", cfg, "--out", str(tmp_path / "m"),
         "--mode", "flat"], capsys)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damaged", ["records.txt", "labels.txt"])
def test_text_that_is_not_utf8_exits_one(tmp_path, capsys, damaged, seed):
    rng = np.random.default_rng([seed, len(damaged)])
    save_matrix(tmp_path / "records.txt", rng.normal(size=(40, 3)))
    save_labels(tmp_path / "labels.txt", np.zeros(40, dtype=int))
    path = tmp_path / damaged
    blob = path.read_bytes()
    at = int(rng.integers(len(blob)))
    path.write_bytes(blob[:at] + _junk_bytes(rng) + blob[at:])
    cfg = write_config(tmp_path / "ingest.json", {
        "seed": 1, "data": str(tmp_path / "records.txt"),
        "labels": str(tmp_path / "labels.txt"), "window": 5})
    assert damaged in _assert_one_line_exit_one(
        ["ingest", "--config", cfg, "--out", str(tmp_path / "arc")], capsys)


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_bytes(b'{"seed": 1, "horizon": 60, "note": "\xff"}\n')
    assert "sim.json" in _assert_one_line_exit_one(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")],
        capsys)


def _ingest_config(tmp_path, **extra):
    save_matrix(tmp_path / "records.txt", np.zeros((40, 3)))
    save_labels(tmp_path / "labels.txt", np.zeros(40, dtype=int))
    return {"seed": 1, "data": str(tmp_path / "records.txt"),
            "labels": str(tmp_path / "labels.txt"), "window": 5, **extra}


@pytest.mark.parametrize("value", [[1], 7, True])
@pytest.mark.parametrize("key", ["plant", "fault", "prbs", "surrogate",
                                 "model", "split", "search_space"])
def test_config_node_that_is_not_an_object_exits_one(tmp_path, capsys, key,
                                                     value):
    if key in ("plant", "fault", "prbs"):
        argv = ["simulate", "--out", str(tmp_path / "run")]
        cfg = {"seed": 1, "horizon": 60, key: value}
    elif key == "split":
        argv = ["ingest", "--out", str(tmp_path / "arc")]
        cfg = _ingest_config(tmp_path, split=value)
    elif key == "search_space":
        argv = ["tune", "--out", str(tmp_path / "m")]
        cfg = {"seed": 1, "surrogate": TINY_SURROGATE, key: value}
    else:
        argv = ["train", "--out", str(tmp_path / "m"), "--mode", "flat"]
        cfg = {"seed": 1, "surrogate": TINY_SURROGATE, key: value}
    err = _assert_one_line_exit_one(
        argv + ["--config", write_config(tmp_path / "c.json", cfg)], capsys)
    assert repr(key) in err and "JSON object" in err


def test_split_node_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path / "ingest.json", _ingest_config(
        tmp_path, split={"train": 0.6, "val": 0.2, "tset": 0.2}))
    assert "unknown split keys: ['tset']" in _assert_one_line_exit_one(
        ["ingest", "--config", cfg, "--out", str(tmp_path / "arc")], capsys)


def test_search_space_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path / "tune.json",
                       {"seed": 1, "surrogate": TINY_SURROGATE,
                        "search_space": {"lr": [0.1], "seed": [1, 2]}})
    err = _assert_one_line_exit_one(
        ["tune", "--config", cfg, "--out", str(tmp_path / "m")], capsys)
    assert "unknown search_space keys: ['lr', 'seed']" in err


@pytest.mark.parametrize("value", [0, 1.5, True, ["records.txt"]])
@pytest.mark.parametrize("key", ["data", "labels", "scaler", "archive",
                                 "model", "level1", "level2", "report"])
def test_config_path_that_is_not_a_string_exits_one(tmp_path, capsys, key,
                                                    value):
    # 0 is the point: open() takes an integer as a file descriptor, and
    # descriptor 0 is stdin
    model_dir = str(_saved_model(tmp_path / "model"))
    if key in ("data", "labels", "scaler"):
        argv = ["ingest", "--out", str(tmp_path / "arc")]
        cfg = _ingest_config(tmp_path, scaler=str(tmp_path / "none.json"))
    elif key == "archive":
        argv = ["train", "--out", str(tmp_path / "m"), "--mode", "flat"]
        cfg = {"seed": 1}
    elif key == "report":
        argv = ["report"]
        cfg = {"seed": 0}
    else:
        argv = ["evaluate", "--out", str(tmp_path / "rep")]
        cfg = {"seed": 2, "surrogate": TINY_SURROGATE, "model": model_dir,
               "level1": model_dir, "level2": model_dir}
        if key != "model":
            argv.append("--hierarchical")
    cfg[key] = value
    err = _assert_one_line_exit_one(
        argv + ["--config", write_config(tmp_path / "c.json", cfg)], capsys)
    assert f"config key {key!r} must be a path string" in err


def _argv(command, tmp_path):
    """argv of one run of command, named by its first word or in full."""
    out = ["--out", str(tmp_path / "out")]
    return {"simulate": ["simulate"] + out, "ingest": ["ingest"] + out,
            "train": ["train", "--mode", "flat"] + out, "tune": ["tune"] + out,
            "evaluate": ["evaluate"] + out, "prbs": ["prbs", "design"] + out,
            "report": ["report"]}[command.split()[0]]


def _root_config(tmp_path, command):
    """A config root that command reads with its required keys set."""
    return {"simulate": {"seed": 1, "horizon": 60},
            "ingest": _ingest_config(tmp_path),
            "evaluate": {"seed": 1, "model": "m"},
            "report": {"seed": 0, "report": "r"}}.get(command, {"seed": 1})


def _node_case(tmp_path, table, node):
    """(command, config) that has the node named by table, a command's
    root or a node's table, read with the given entries."""
    surr = {"seed": 1, "surrogate": TINY_SURROGATE}
    sim = {"seed": 1, "horizon": 60}
    if table in fddkit.cli._ROOTS:
        return table, {**_root_config(tmp_path, table), **node}
    if table == "PLANT":
        return "simulate", {**sim, "plant": node}
    if table == "FAULT":
        return "simulate", {**sim, "fault": {"kind": "step", "target": 0,
                                             **node}}
    if table == "LIBRARY_FAULT":
        return "simulate", {**sim, "fault": {"class": 1, **node}}
    if table == "PRBS":
        return "prbs", {"seed": 0, "prbs": {"tau_ol": 1800.0,
                                            "tau_cl": 1030.0, **node}}
    if table == "SPLIT":
        return "ingest", _ingest_config(tmp_path, split={"train": 1.0,
                                                         **node})
    if table == "SURROGATE":
        return "train", {"seed": 1, "surrogate": {**TINY_SURROGATE, **node}}
    if table == "MODEL_FIELDS":
        return "train", {**surr, "model": node}
    assert table == "SEARCH_SPACE"
    return "tune", {**surr, "search_space": node}


# Values of another kind than the table's, one for each wrong sort that
# applies: true and 1.5 are no integers, and true is no number either.
_WRONG_VALUES = {
    INTEGER: ["1", True, 1.5],
    NUMBER: ["x", True, None],
    STRING: [1, ["x"]],
    PATH: [0, True, ["x"]],
    BOOL: ["false", 1],
    OBJECT: ["x", ["x"]],
    STRING_OR_OBJECT: [True, 1.5, ["x"]],
    LOOP: [1.5, True, ["x"]],
    INTEGERS: ["x", ["x"], [True], [1.5]],
    NUMBERS: ["x", ["x"], [True]],
    MATRIX: ["x", ["x"], [["x"]], [[1.0], [1.0, 2.0]]],
}


@pytest.mark.parametrize("table", [*fddkit.cli._ROOTS, "PLANT", "FAULT",
                                   "LIBRARY_FAULT", "PRBS", "SPLIT",
                                   "SURROGATE", "MODEL_FIELDS",
                                   "SEARCH_SPACE"])
def test_every_key_of_every_table_rejects_wrong_kinds(tmp_path, capsys,
                                                      table):
    fields = (fddkit.cli._ROOTS[table] if table in fddkit.cli._ROOTS
              else getattr(fddkit.cli, table))
    for key, kind in fields.items():
        # a search_space entry lists candidates of the model key's kind
        wrongs = ([[], "x", ["x"], [True]] if table == "SEARCH_SPACE"
                  else _WRONG_VALUES[kind])
        for value in wrongs:
            command, cfg = _node_case(tmp_path, table, {key: value})
            err = _assert_one_line_exit_one(
                _argv(command, tmp_path)
                + ["--config", write_config(tmp_path / "c.json", cfg)],
                capsys)
            assert f"config key {key!r}" in err, (table, key, value, err)


@pytest.mark.parametrize("command", fddkit.cli._ROOTS)
def test_key_another_command_reads_exits_one(tmp_path, capsys, command):
    # each of these was accepted and read by nothing, or refused with a
    # message about the data source
    known = fddkit.cli._ROOTS[command]
    others = {key for table in fddkit.cli._ROOTS.values() for key in table}
    for key in sorted(others - set(known)):
        cfg = {**_root_config(tmp_path, command), key: 1}
        err = _assert_one_line_exit_one(
            _argv(command, tmp_path)
            + ["--config", write_config(tmp_path / "c.json", cfg)], capsys)
        assert err == f"fddkit: unknown config keys: [{key!r}]\n"


def _wrong_like(value):
    """Values of another JSON kind than value."""
    if isinstance(value, bool):
        return ["false", 1]
    if isinstance(value, int):
        return ["1", True, 1.5]
    if isinstance(value, float):
        return ["x", True]
    if isinstance(value, str):
        return [1.5, ["x"]]
    return ["x", ["x"]]   # a list or an object


@pytest.mark.parametrize("name", ["plan.json", "summary.json", "config.json",
                                  "scaler.json"])
def test_saved_file_with_a_wrong_typed_value_exits_one(tmp_path, capsys,
                                                       name):
    if name == "plan.json":
        cfg = write_config(tmp_path / "p.json", {"seed": 0, "prbs": "default"})
        assert main(["prbs", "design", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        argv = _argv("simulate", tmp_path)
        cfg = {"seed": 1, "horizon": 60, "prbs": str(tmp_path / name)}
    elif name == "summary.json":
        save_report(build_report(confusion([0, 1, 2, 0], [0, 1, 2, 1], 3)),
                    tmp_path)
        argv, cfg = ["report"], {"seed": 0, "report": str(tmp_path)}
    else:
        _saved_model(tmp_path)
        argv = ["evaluate", "--out", str(tmp_path / "rep")]
        cfg = {"seed": 2, "surrogate": TINY_SURROGATE, "model": str(tmp_path)}
    argv += ["--config", write_config(tmp_path / "c.json", cfg)]
    path = tmp_path / name
    good = json.loads(path.read_text())
    for key, value in good.items():
        for wrong in _wrong_like(value):
            path.write_text(json.dumps({**good, key: wrong}))
            err = _assert_one_line_exit_one(argv, capsys)
            assert name in err and repr(key) in err, (key, wrong, err)


_MISREADS = {
    # each of these exited 0 on a value read as something else
    "encoder_string": ("train", {"model": {"encoder": "12"}}, "encoder"),
    "contiguous_string": ("ingest", {"contiguous": "false"}, "contiguous"),
    "horizon_string": ("simulate", {"horizon": "50"}, "horizon"),
    "budget_string": ("tune", {"budget": "2"}, "budget"),
    "burst_len_true": ("prbs", {"prbs": {"tau_ol": 1800.0, "tau_cl": 1030.0,
                                         "burst_len": True}}, "burst_len"),
    "library_onset_float": ("simulate", {"fault": {"class": 2, "onset": 1.5}},
                            "onset"),
    "fault_onset_float": ("simulate", {"fault": {"kind": "step", "target": 0,
                                                 "onset": 1.5}}, "onset"),
}

_TRACEBACKS = {
    # each of these ended in a Python traceback
    "surrogate_horizon": ("train", {"surrogate": {**TINY_SURROGATE,
                                                  "horizon": "x"}}, "horizon"),
    "model_epochs": ("train", {"model": {"epochs": "3"}}, "epochs"),
    "model_learning_rate": ("train", {"model": {"learning_rate": "0.1"}},
                            "learning_rate"),
    "surrogate_classes": ("train", {"surrogate": {**TINY_SURROGATE,
                                                  "classes": "01"}},
                          "classes"),
    "plant_kp": ("simulate", {"plant": {"kp": 3}}, "kp"),
    "plant_ragged_a": ("simulate", {"plant": {"a": [[0.5, 0.0], [0.0]]}},
                       "a"),
    "plant_t_s": ("simulate", {"plant": {"t_s": "x"}}, "t_s"),
    "prbs_t_s": ("prbs", {"prbs": {"tau_ol": 1800.0, "tau_cl": 1030.0,
                                   "t_s": "x"}}, "t_s"),
    "library_class": ("simulate", {"fault": {"class": "x"}}, "class"),
    "fault_without_kind": ("simulate", {"fault": {"magnitude": 1.0}}, "kind"),
    "fault_without_target": ("simulate", {"fault": {"kind": "step"}},
                             "target"),
    "prbs_tau_ol": ("prbs", {"prbs": {"tau_ol": "x", "tau_cl": 1030.0}},
                    "tau_ol"),
    "incipient_integer": ("train", {"incipient": 3}, "incipient"),
    "search_space_empty": ("tune", {"search_space": {"learning_rate": []}},
                           "learning_rate"),
    "search_space_number": ("tune", {"search_space": {"learning_rate": 0.1}},
                            "learning_rate"),
    "search_space_string": ("tune", {"search_space": {"learning_rate": ["2"]}},
                            "learning_rate"),
}


_UNBOUNDED = {
    # each of these ran until the process was killed
    "model_epochs_huge": ("train", {"model": {"epochs": 10 ** 5}}, "epochs"),
    "budget_huge": ("tune", {"budget": 10 ** 5}, "budget"),
}


@pytest.mark.parametrize("case", [*_MISREADS, *_TRACEBACKS, *_UNBOUNDED])
def test_wrong_typed_value_exits_one_naming_the_key(tmp_path, capsys, case):
    command, entries, key = {**_MISREADS, **_TRACEBACKS, **_UNBOUNDED}[case]
    base = ({"seed": 1, "horizon": 60} if command == "simulate"
            else {"seed": 0} if command == "prbs"
            else _ingest_config(tmp_path) if command == "ingest"
            else {"seed": 1, "surrogate": TINY_SURROGATE})
    cfg = write_config(tmp_path / "c.json", {**base, **entries})
    err = _assert_one_line_exit_one(
        _argv(command, tmp_path) + ["--config", cfg], capsys)
    assert repr(key) in err


@pytest.mark.parametrize("entries", [
    {"plant": {"controlled": [0, 99]}},
    {"plant": {"controlled": [0, -1]}},
    {"fault": {"kind": "step", "target": 99}},
    {"fault": {"kind": "stiction", "target": 5}},
], ids=["controlled_99", "controlled_negative", "sensor_target_99",
        "stiction_target_5"])
def test_plant_or_fault_index_out_of_range_exits_one(tmp_path, capsys,
                                                      entries):
    # a negative index would silently regulate the last sensor, the
    # others would index past the plant's channels
    cfg = write_config(tmp_path / "sim.json",
                       {"seed": 1, "horizon": 60, **entries})
    _assert_one_line_exit_one(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "run")], capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries, word", [
    ({"plant": {"noise_std": [1e308] + [1.0] * 7}}, "noise"),
    ({"plant": {"setpoints": [1e308, 5.0]}}, "set-point"),
    ({"plant": {"setpoints": [10.0, -2e6]}}, "set-point"),
    ({"prbs": {"tau_ol": 3000.0, "tau_cl": 1000.0, "amplitude": 1e308}},
     "amplitude"),
    ({"prbs": "PLAN"}, "amplitude"),
], ids=["noise_std", "setpoint", "negative_setpoint", "band_amplitude",
        "plan_file_amplitude"])
def test_input_beyond_the_divergence_limit_exits_one(tmp_path, capsys,
                                                     entries, word):
    # no run can keep its records under DIVERGENCE_LIMIT with such input,
    # so the fault is the config's, not a numeric divergence (exit 2)
    if entries.get("prbs") == "PLAN":
        plan = default_excitation(default_plant())
        save_plan(PrbsPlan(**{**plan.__dict__, "amplitude": 1e308}),
                  tmp_path / "plan.json")
        entries = {"prbs": str(tmp_path / "plan.json")}
    cfg = write_config(tmp_path / "sim.json",
                       {"seed": 1, "horizon": 60, **entries})
    err = _assert_one_line_exit_one(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "run")], capsys)
    assert word in err


def test_negative_incipient_class_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "l1.json",
                       {"seed": 1, "surrogate": {**TINY_SURROGATE,
                                                 "incipient": [-1]}})
    err = _assert_one_line_exit_one(
        ["train", "--config", cfg, "--out", str(tmp_path / "l1"),
         "--mode", "level1"], capsys)
    assert "incipient" in err


@pytest.mark.parametrize("command", ["train", "tune"])
def test_incipient_differing_from_the_surrogate_recipe_exits_one(
        tmp_path, capsys, command):
    # the recipe simulates classes 0 and 3 for level 2; relabelling by
    # [3, 9] would give a 3-class specialist that never saw class 9, so
    # surrogate data takes its incipient classes from the recipe alone
    surr = {**TINY_SURROGATE, "classes": [0, 1, 3, 9], "incipient": [3]}
    cfg = write_config(tmp_path / "c.json",
                       {"seed": 1, "surrogate": surr, "incipient": [3, 9]})
    out = tmp_path / "out"
    argv = [command, "--mode", "level2", "--config", cfg, "--out", str(out)]
    err = _assert_one_line_exit_one(argv, capsys)
    assert "'incipient'" in err
    assert not out.exists()


def test_incipient_mismatch_exits_before_anything_is_simulated(
        tmp_path, capsys, monkeypatch):
    def simulating(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(fddkit.pipeline, "simulate_scenario", simulating)
    surr = {**TINY_SURROGATE, "classes": [0, 1, 3, 9], "incipient": [3]}
    cfg = write_config(tmp_path / "c.json",
                       {"seed": 1, "surrogate": surr, "incipient": [3, 9]})
    err = _assert_one_line_exit_one(
        ["train", "--mode", "level1", "--config", cfg,
         "--out", str(tmp_path / "out")], capsys)
    assert "'incipient'" in err


_MISPLACED = {
    # each of these was read from a second home, or ignored, and exited 0;
    # the test puts an archive and a plan file in place of ARC and PLAN
    **{f"surrogate_{key}": (["train", "--mode", "flat"],
                            {"surrogate": {**TINY_SURROGATE, key: value}}, key)
       for key, value in {"epochs": 1, "encoder": [3], "decoder": [3],
                          "batch_size": 8, "learning_rate": 0.1}.items()},
    "archive_surrogate": (["train", "--mode", "flat"],
                          {"archive": "ARC", "surrogate": TINY_SURROGATE},
                          "surrogate"),
    "archive_prbs": (["train", "--mode", "level2"],
                     {"archive": "ARC", "prbs": "no_plan.json"}, "prbs"),
    "n_classes": (["train", "--mode", "flat"],
                  {"surrogate": TINY_SURROGATE, "n_classes": 3}, "n_classes"),
    "incipient": (["train", "--mode", "level2"],
                  {"surrogate": {**TINY_SURROGATE, "classes": [0, 1, 2, 3],
                                 "incipient": [3]}, "incipient": [3]},
                  "incipient"),
    "plan_node": (["simulate"], {"prbs": {"plan": "PLAN"}}, "plan"),
    "tune_mode": (["tune"], {"surrogate": TINY_SURROGATE, "mode": "level2"},
                  "mode"),
}


@pytest.mark.parametrize("case", _MISPLACED)
def test_key_the_data_source_does_not_take_exits_one_naming_it(
        tmp_path, capsys, monkeypatch, case):
    def simulating(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(fddkit.pipeline, "simulate_scenario", simulating)
    argv, entries, key = _MISPLACED[case]
    cfg = {"seed": 1, **entries}
    if "archive" in cfg:
        cfg["archive"] = str(_window_archive(tmp_path, 5))
    if case == "plan_node":
        save_plan(default_excitation(default_plant()), tmp_path / "plan.json")
        cfg["prbs"] = {"plan": str(tmp_path / "plan.json")}
    out = tmp_path / "out"
    err = _assert_one_line_exit_one(
        [*argv, "--config", write_config(tmp_path / "c.json", cfg),
         "--out", str(out)], capsys)
    assert repr(key) in err
    assert not out.exists()


def _prbs_design_subprocess(tmp_path, cfg):
    """(exit code, stderr) of `prbs design` run in its own interpreter,
    which a run that never returns cannot outlast."""
    src = str(Path(fddkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "fddkit.cli", "prbs", "design", "--config",
         write_config(tmp_path / "c.json", cfg), "--out",
         str(tmp_path / "plan")],
        capture_output=True, text=True, env=env, timeout=60)
    return run.returncode, run.stderr


@pytest.mark.parametrize("cfg", [
    {"prbs": {"tau_ol": 1800, "tau_cl": 1030, "t_s": 1e-300}},
    {"plant": {"t_s": 1e-300}, "prbs": "default"},
], ids=["prbs_t_s", "plant_t_s"])
def test_sample_time_far_below_the_band_exits_one(tmp_path, cfg):
    # the clock search stepped k past 2**53, where (k + 1) * t_s no
    # longer changes, and never returned
    code, err = _prbs_design_subprocess(tmp_path, {"seed": 0, **cfg})
    assert code == 1, err
    assert err.startswith("fddkit: ") and err.count("\n") == 1, err
    assert "too short" in err


@pytest.mark.parametrize("argv, entries, word", [
    (["prbs", "design"], {"plant": {"t_s": 0}, "prbs": "default"}, "t_s"),
    (["simulate"], {"plant": {"t_s": -1}, "horizon": 60}, "t_s"),
    (["simulate"], {"horizon": 60, "fault": {
        "kind": "random_variation", "target": 0, "std": -1}}, "std"),
], ids=["t_s_zero", "t_s_negative", "negative_std"])
def test_nonpositive_sample_time_or_negative_std_exits_one(
        tmp_path, capsys, argv, entries, word):
    # t_s 0 divided by zero, -1 simulated silently, std -1 reached numpy
    cfg = write_config(tmp_path / "c.json", {"seed": 1, **entries})
    err = _assert_one_line_exit_one(
        [*argv, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert word in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, entries, code", [
    (["simulate"], {"plant": {"controlled": [0, 0]}}, 1),
    (["simulate"], {"plant": {"b": [[0.5, 0.0], [1e308, 0.1], [0.0, 0.4],
                                    [0.1, 0.3]]}}, 1),
    (["simulate"], {"plant": {"c": []}}, 1),
    (["simulate"], {"plant": {"ki": [0.15, 5e-324]}}, 1),
    (["simulate"], {"fault": {"kind": "step", "target": 0,
                              "fault_class": 2 ** 64}}, 1),
    (["train", "--mode", "flat"], {"model": {"lam2": 1e308}}, 2),
    (["train", "--mode", "flat"], {"model": {"lam3": 1e300}}, 2),
    (["train", "--mode", "flat"], {"model": {"learning_rate": 1e308}}, 2),
    (["train", "--mode", "flat"], {"model": {"learning_rate": -0.1}}, 1),
    (["train", "--mode", "flat"], {"n_classes": 2 ** 63}, 1),
    (["train", "--mode", "level1"], {"n_classes": 2 ** 62}, 1),
], ids=["two_loops_one_sensor", "overflowing_gain", "empty_output_map",
        "subnormal_ki", "fault_class_past_int64", "huge_lam2", "huge_lam3",
        "huge_learning_rate", "negative_learning_rate", "n_classes_2_63",
        "level1_n_classes_2_62"])
def test_configs_the_mutation_sweep_broke_exit_cleanly(tmp_path, capsys,
                                                      argv, entries, code):
    # each ended in a traceback or a numpy warning
    entries = dict(entries)
    if "n_classes" in entries:
        base = {"archive": str(_window_archive(tmp_path, 5)),
                "incipient": [1], "model": {"encoder": [2], "decoder": [3],
                                            "epochs": 1}}
    elif argv[0] == "train":
        base = {"surrogate": TINY_SURROGATE,
                "model": {**TINY_MODEL, "epochs": 1, **entries.pop("model")}}
    else:
        base = {"horizon": 40}
    cfg = write_config(tmp_path / "c.json", {"seed": 1, **base, **entries})
    capsys.readouterr()
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) \
        == code
    err = capsys.readouterr().err
    assert err.startswith("fddkit: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["train", "tune"])
def test_surrogate_class_outside_the_fault_library_exits_one(
        tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json",
                       {"seed": 1, "surrogate": {**TINY_SURROGATE,
                                                 "classes": [0, 15]}})
    argv = ({"train": ["train", "--mode", "flat"], "tune": ["tune"]}
            [command] + ["--config", cfg, "--out", str(tmp_path / "out")])
    err = _assert_one_line_exit_one(argv, capsys)
    assert "class 15" in err and "0 to 12" in err


@pytest.mark.parametrize("command", ["train", "tune"])
def test_incipient_class_outside_the_surrogate_classes_exits_one(
        tmp_path, capsys, command):
    # the default incipient classes 3, 9 and 11 are not in [0, 1, 2]
    surr = {key: value for key, value in TINY_SURROGATE.items()
            if key != "incipient"}
    cfg = write_config(tmp_path / "c.json", {"seed": 1, "surrogate": surr})
    argv = ({"train": ["train", "--mode", "flat"], "tune": ["tune"]}
            [command] + ["--config", cfg, "--out", str(tmp_path / "out")])
    err = _assert_one_line_exit_one(argv, capsys)
    assert "incipient classes [3, 9, 11]" in err


@pytest.mark.parametrize("mode", ["flat", "level1", "level2"])
@pytest.mark.parametrize("part", ["train", "val"])
def test_archive_label_outside_n_classes_exits_one(tmp_path, capsys, mode,
                                                   part):
    # checked before training: level 2 would silently drop a window with
    # such a label, and flat training would index past the class count
    arc = tmp_path / "arc"
    arc.mkdir()
    rng = np.random.default_rng(0)
    for name in ("train", "val"):
        labels = np.array([0, 1, 2, 0, 1, 2])
        if name == part:
            labels[-1] = 3
        np.save(arc / f"{name}_windows.npy", rng.normal(size=(6, 5, 2)))
        np.save(arc / f"{name}_labels.npy", labels)
    cfg = write_config(tmp_path / "train.json", {
        "seed": 1, "archive": str(arc), "n_classes": 3, "incipient": [2],
        "model": {"encoder": [2], "decoder": [2], "epochs": 1}})
    err = _assert_one_line_exit_one(
        ["train", "--config", cfg, "--out", str(tmp_path / "m"),
         "--mode", mode], capsys)
    assert "3 classes" in err


def test_flat_probed_evaluate_simulates_the_probed_split_only(tmp_path,
                                                              monkeypatch):
    model_dir = _saved_model(tmp_path / "model")
    cfg = write_config(tmp_path / "eval.json",
                       {"seed": 2, "surrogate": TINY_SURROGATE,
                        "model": str(model_dir)})
    runs = []
    real = fddkit.pipeline.simulate_scenario

    def counting(plant, **kwargs):
        runs.append(kwargs["prbs"] is not None)
        return real(plant, **kwargs)

    monkeypatch.setattr(fddkit.pipeline, "simulate_scenario", counting)
    rep = tmp_path / "rep"
    assert main(["evaluate", "--config", cfg, "--out", str(rep),
                 "--prbs", "on"]) == 0
    monkeypatch.undo()
    # one probed run per class of the 3-class recipe, no quiet twin
    assert runs == [True] * 3

    spec = fddkit.cli._spec_from({"surrogate": TINY_SURROGATE})
    probed = scenario_batch(2, "test", spec,
                            prbs=default_excitation(default_plant()))
    expect = evaluate_classifier(
        load_model(model_dir), probed,
        metadata={"seed": 2, "horizon": probed.horizon,
                  "dataset": "surrogate", "prbs": "on",
                  "model": str(model_dir)})
    save_report(expect, tmp_path / "expect")
    for name in ("summary.json", "report.txt", "confusion.txt"):
        assert (rep / name).read_bytes() == \
            (tmp_path / "expect" / name).read_bytes()


@pytest.mark.parametrize("prbs", ["off", "on"])
def test_hierarchical_evaluate_writes_the_hierarchical_report(tmp_path, prbs):
    surr = {**TINY_SURROGATE, "classes": [0, 1, 3, 11],
            "incipient": [3, 11]}
    spec = tiny_spec(surr)
    plan = default_excitation(default_plant())
    hmodel = fit_hierarchical(4, spec, prbs=plan)
    l1, l2 = tmp_path / "l1", tmp_path / "l2"
    save_model(hmodel.level1, l1)
    save_model(hmodel.level2, l2)
    cfg = write_config(tmp_path / "ev.json",
                       {"seed": 4, "surrogate": surr, "level1": str(l1),
                        "level2": str(l2)})
    rep = tmp_path / "rep"
    assert main(["evaluate", "--config", cfg, "--out", str(rep),
                 "--hierarchical", "--prbs", prbs]) == 0

    quiet = scenario_batch(4, "test", spec)
    probed = (scenario_batch(4, "test", spec, prbs=plan) if prbs == "on"
              else quiet)
    assert hmodel.label_map == LabelMap((3, 11), 12)
    expect = hierarchical_report(
        hmodel, quiet, probed,
        metadata={"seed": 4, "horizon": quiet.horizon,
                  "dataset": "surrogate", "prbs": prbs,
                  "model": f"{l1}+{l2}"})
    save_report(expect, tmp_path / "expect")
    for name in ("summary.json", "report.txt", "confusion.txt"):
        assert (rep / name).read_bytes() == \
            (tmp_path / "expect" / name).read_bytes()


def _archive_level_models(tmp_path, n_classes):
    """An archive of n_classes classes, and a level-1 and a level-2 model
    trained on it with incipient classes 3 and 9 and no n_classes."""
    arc = tmp_path / "arc"
    arc.mkdir()
    rng = np.random.default_rng(0)
    for name in ("train", "test"):
        labels = np.arange(2 * n_classes) % n_classes
        np.save(arc / f"{name}_windows.npy",
                rng.normal(size=(labels.size, 4, 2)))
        np.save(arc / f"{name}_labels.npy", labels)
    base = {"seed": 1, "archive": str(arc), "incipient": [3, 9]}
    cfg = write_config(tmp_path / "train.json", {
        **base, "model": {"encoder": [2], "decoder": [2], "epochs": 1}})
    for mode in ("level1", "level2"):
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / mode), "--mode", mode]) == 0
    return base


@pytest.mark.parametrize("case", ["derived", "n_classes", "swapped"])
def test_hierarchical_evaluate_checks_models_against_the_label_map(
        tmp_path, capsys, case):
    base = _archive_level_models(tmp_path, 21)
    l1, l2 = str(tmp_path / "level1"), str(tmp_path / "level2")
    cfg = {**base, "level1": l1, "level2": l2}
    if case == "n_classes":
        # a 20-class level-1 alphabet; the level-1 model predicts 19
        cfg.update(incipient=[3], n_classes=21)
    elif case == "swapped":
        cfg.update(level1=l2, level2=l1)
    argv = ["evaluate", "--hierarchical", "--config",
            write_config(tmp_path / "ev.json", cfg),
            "--out", str(tmp_path / "rep")]
    if case == "derived":
        # 19 level-1 classes plus the 2 incipient ones
        assert main(argv) == 0
        counts = np.loadtxt(tmp_path / "rep" / "confusion.txt",
                            dtype=np.int64)
        assert counts.shape == (21, 21)
    else:
        err = _assert_one_line_exit_one(argv, capsys)
        assert "classes" in err


@pytest.mark.filterwarnings("error")
def test_level2_training_without_merged_group_windows_exits_one(tmp_path,
                                                                 capsys):
    # no label is 0 or 2, so level 2 keeps no window to fit a scaler on
    arc = tmp_path / "arc"
    arc.mkdir()
    np.save(arc / "train_windows.npy",
            np.random.default_rng(0).normal(size=(6, 4, 2)))
    np.save(arc / "train_labels.npy", np.array([1, 3, 1, 3, 1, 3]))
    cfg = write_config(tmp_path / "train.json", {
        "seed": 1, "archive": str(arc), "incipient": [2], "n_classes": 4,
        "model": {"encoder": [2], "decoder": [2], "epochs": 1}})
    _assert_one_line_exit_one(
        ["train", "--config", cfg, "--out", str(tmp_path / "m"),
         "--mode", "level2"], capsys)


def test_cli_trains_the_level_models_of_fit_hierarchical(tmp_path):
    surr = {**TINY_SURROGATE, "classes": [0, 1, 3, 11],
            "incipient": [3, 11], "n_series_level2": 1, "horizon": 150}
    cfg = write_config(tmp_path / "train.json",
                       {"seed": 2, "surrogate": surr, "prbs": "default",
                        "model": TINY_MODEL})
    spec = tiny_spec(surr)
    hmodel = fit_hierarchical(
        2, spec, prbs=default_excitation(spec.plant_factory(seed=0)))
    for mode, model in (("level1", hmodel.level1),
                        ("level2", hmodel.level2)):
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "cli" / mode), "--mode", mode]) == 0
        save_model(model, tmp_path / "lib" / mode)
        for name in ("params.bin", "scaler.json"):
            assert (tmp_path / "cli" / mode / name).read_bytes() == \
                (tmp_path / "lib" / mode / name).read_bytes()


# The exact bytes of every JSON record besides scaler.json (pinned in
# test_dataio.py): sorted keys, a two-space indent, a trailing newline.
FROZEN_RECORDS = {
    "plan.json": """{
  "amplitude": 0.5,
  "burst_interval": 20,
  "burst_len": 10,
  "n_register": 5,
  "period": 31,
  "t_clock": 6.0,
  "taps": [
    5,
    3
  ],
  "target": "loop1"
}
""",
    "model/config.json": """{
  "batch_size": 64,
  "decoder": [
    2
  ],
  "encoder": [
    3
  ],
  "epochs": 30,
  "horizon": 4,
  "lam1": 1.0,
  "lam2": 1.0,
  "lam3": 0.0001,
  "learning_rate": 0.01,
  "n_classes": 3,
  "n_features": 2,
  "seed": 0
}
""",
    "report/summary.json": """{
  "average_classes": [
    1,
    2
  ],
  "average_fdr": 0.75,
  "far": 0.5,
  "fdr_by_class": {
    "0": 0.5,
    "1": 1.0,
    "2": 0.5
  },
  "metadata": {
    "model": "m",
    "seed": 1
  },
  "normal_class": 0
}
""",
    "sim/meta.json": """{
  "fault_class": null,
  "horizon": 60,
  "n_loops": 2,
  "n_outputs": 8,
  "prbs": false,
  "seed": 1
}
""",
    "arc/meta.json": """{
  "contiguous": true,
  "counts": {
    "test": 4,
    "train": 4,
    "val": 3
  },
  "n_features": 2,
  "seed": 1,
  "window": 4
}
""",
}


def _write_record(name, tmp_path):
    """Write the record FROZEN_RECORDS names with its own writer."""
    if name == "plan.json":
        save_plan(PrbsPlan(0.5, 6.0, 5, 31, TAPS[5], burst_len=10,
                           burst_interval=20), tmp_path / name)
    elif name == "model/config.json":
        cfg = ModelConfig(encoder=(3,), decoder=(2,), n_features=2,
                          n_classes=3, horizon=4, seed=0)
        save_model(TrainedModel(cfg, build_params(cfg), [],
                                Scaler(np.zeros(2), np.ones(2))),
                   tmp_path / "model")
    elif name == "report/summary.json":
        cm = confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
        save_report(build_report(cm, normal=0,
                                 metadata={"seed": 1, "model": "m"}),
                    tmp_path / "report")
    elif name == "sim/meta.json":
        cfg = write_config(tmp_path / "sim.json", {"seed": 1, "horizon": 60})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "sim")]) == 0
    else:
        save_matrix(tmp_path / "data.txt", np.arange(40.0).reshape(20, 2) % 7)
        save_labels(tmp_path / "labels.txt", np.repeat([0, 1], 10))
        cfg = write_config(tmp_path / "ingest.json", {
            "seed": 1, "data": str(tmp_path / "data.txt"),
            "labels": str(tmp_path / "labels.txt"), "window": 4})
        assert main(["ingest", "--config", cfg,
                     "--out", str(tmp_path / "arc")]) == 0
    return tmp_path / name


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_json_record_bytes_are_pinned(tmp_path, name):
    path = _write_record(name, tmp_path)
    assert path.read_bytes() == FROZEN_RECORDS[name].encode("ascii")
