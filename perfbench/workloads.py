"""The three benchmark workloads.

Each workload is a class with four parts:

- ``setup(seed, workdir)`` builds everything the timed part needs from
  the seed (files go under ``workdir``) and returns the list of
  operation inputs (the pool);
- ``run(x)`` is one operation of the closed loop, timed by the caller;
- ``check(x, out)`` returns a list of problems with one output (empty
  when the output is correct);
- ``quality(outs)`` turns the outputs of one pass over the pool into the
  quality figures, keyed ``avg_fdr``, ``slow_fdr``, ``far``,
  ``flat_avg_fdr`` and ``flat_slow_fdr``.

The timed part calls only names in ``fddkit.__all__`` and
``fddkit.cli.main``. The recipes are smaller than the stock
``ExperimentSpec`` so that one run fits in well under a minute on two
cores; README.md gives the reasons and the full recipes.
"""

import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

import fddkit as F
import fddkit.cli

N_CLASSES = 13
SLOW_CLASSES = (3, 9, 11)

# Plant seeds of the diagnose records start here. The pipeline's splits
# use seeds below 1000 * (seed + 1) + 800_000, so for any seed the
# benchmark accepts the records never share a noise stream with the
# training, validation or test data.
RECORD_SEED_BASE = 10**9


def _mean(values):
    return float(np.mean(values))


class PaperSeed:
    """``surrogate_benchmark`` on one seed: the paper's flat-versus-two-level
    study, five fits per operation."""

    name = "paper_seed"
    pool_size = 2
    # The stock model shapes (T = 20, d_h = 12, batch 128, 13 classes) on
    # fewer, shorter series and three epochs.
    spec_args = {"epochs": 3, "n_series": 1, "n_series_level2": 2,
                 "horizon": 300}

    def setup(self, seed, workdir):
        self.spec = F.ExperimentSpec(**self.spec_args)
        self.plan = F.default_excitation(self.spec.plant_factory(seed=0))
        return [self.pool_size * seed + k for k in range(self.pool_size)]

    def run(self, x):
        return F.surrogate_benchmark(seeds=(x,), spec=self.spec,
                                     plan=self.plan)["per_seed"][0]

    def check(self, x, row):
        problems = []
        for key, value in row.items():
            values = value.values() if isinstance(value, dict) else [value]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{key} is not finite")
            elif key == "gain":
                if not -1.0 <= value <= 1.0:
                    problems.append(f"gain {value} outside [-1, 1]")
            elif key != "seed" and not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"{key} has an FDR outside [0, 1]")
        if row["seed"] != x:
            problems.append(f"row is for seed {row['seed']}, not {x}")
        return problems

    def quality(self, rows):
        def slow(accs):
            return _mean([accs[c] for c in SLOW_CLASSES])
        return {
            "avg_fdr": _mean([r["hier_plain"] for r in rows]),
            "slow_fdr": _mean([slow(r["level2_excited"]) for r in rows]),
            "far": _mean([1.0 - r["level2_excited"][0] for r in rows]),
            "flat_avg_fdr": _mean([r["flat_plain"] for r in rows]),
            "flat_slow_fdr": _mean([r["flat_incipient"] for r in rows]),
        }


class Diagnose:
    """Two-level diagnosis with probed routing, one scenario record per
    operation, on a model trained in set-up."""

    name = "diagnose"
    records_per_class = 4
    record_horizon = 500
    spec_args = {"epochs": 2, "n_series": 1, "n_series_level2": 2,
                 "horizon": 300}

    def setup(self, seed, workdir):
        spec = F.ExperimentSpec(**self.spec_args)
        self.window = spec.window
        self.faults = spec.fault_library()
        self.plan = F.default_excitation(spec.plant_factory(seed=0))
        self.model = F.fit_hierarchical(seed, spec, prbs=self.plan)
        n = self.records_per_class * N_CLASSES
        return [(k % N_CLASSES, RECORD_SEED_BASE + 1000 * seed + k)
                for k in range(n)]

    def run(self, x):
        cls, plant_seed = x
        plant = F.default_plant(seed=plant_seed)
        fault = self.faults.get(cls)
        twins = [F.simulate_scenario(plant, fault=fault, prbs=plan,
                                     horizon=self.record_horizon)
                 for plan in (None, self.plan)]
        quiet, probed = (F.make_windows(ds.records, ds.labels, self.window)
                         for ds in twins)
        preds = F.infer_with_twins(self.model, quiet, probed)
        return quiet.labels, preds, F.confusion(quiet.labels, preds,
                                                N_CLASSES)

    def check(self, x, out):
        labels, preds, cm = out
        problems = []
        if preds.shape != labels.shape:
            problems.append("one prediction per window expected")
        if preds.size and (preds.min() < 0 or preds.max() >= N_CLASSES):
            problems.append("prediction outside the 13-class alphabet")
        if cm.total != labels.size:
            problems.append(f"confusion total {cm.total} != "
                            f"{labels.size} windows")
        return problems

    def quality(self, outs):
        cm = F.ConfusionMatrix(sum(cm.counts for _, _, cm in outs))
        report = F.build_report(cm, normal=0)
        return {
            "avg_fdr": report.avg_fdr,
            "slow_fdr": _mean([report.fdr_by_class[c]
                               for c in SLOW_CLASSES]),
            "far": report.far,
            "flat_avg_fdr": 0.0,
            "flat_slow_fdr": 0.0,
        }


class ArchiveTrack:
    """The 52-channel, 21-class text-archive track driven through the
    command line: ingest every recording, train level 1 and flat,
    evaluate."""

    name = "archive_track"
    n_classes = 21
    channels = 52
    length = 170          # samples per recording: 21 windows of 150
    onset = 20
    window = 150
    slow = (3, 9, 15)
    # The criterion-8 model; the learning rate is raised from 0.02 so that
    # two epochs give a detection rate that varies little between seeds.
    model = {"encoder": [16], "decoder": [52], "epochs": 2,
             "batch_size": 64, "learning_rate": 0.05}

    def setup(self, seed, workdir):
        self.root = Path(workdir) / "archive_track"
        raw = self.root / "raw"
        raw.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 52])
        self.ingests = []
        for cls in range(self.n_classes):
            shift = np.zeros(self.channels)
            if cls:
                chans = rng.choice(self.channels, size=3, replace=False)
                shift[chans] = rng.uniform(1.0, 2.0, size=3)
            for part in ("train", "test"):
                series = rng.normal(0.0, 0.5,
                                    size=(self.length, self.channels))
                labels = np.zeros(self.length, dtype=np.int64)
                if cls:
                    series[self.onset:] += shift
                    labels[self.onset:] = cls
                stem = raw / f"class{cls:02d}_{part}"
                np.savetxt(f"{stem}.txt", series, fmt="%.8g")
                np.savetxt(f"{stem}_labels.txt", labels, fmt="%d")
                arc = self.root / f"arc{cls:02d}_{part}"
                split = {"train": 0.0, "val": 0.0, "test": 0.0}
                split[part] = 1.0
                node = {"seed": seed, "data": f"{stem}.txt",
                        "labels": f"{stem}_labels.txt",
                        "window": self.window,
                        "expected_cols": self.channels, "split": split}
                if (cls, part) != (0, "train"):
                    # one scaler, fitted on normal operation, for all
                    node["scaler"] = str(self.root / "arc00_train"
                                         / "scaler.json")
                self.ingests.append((part, self._config(
                    f"ingest{cls:02d}_{part}", node), arc))
        archive = str(self.root / "archive")
        common = {"seed": seed, "archive": archive,
                  "n_classes": self.n_classes, "model": self.model}
        self.train_level1 = self._config(
            "level1", {**common, "incipient": list(self.slow)})
        self.train_flat = self._config("flat", common)
        self.evaluate = self._config(
            "evaluate", {"seed": seed, "archive": archive,
                         "model": str(self.root / "flat_model")})
        return [seed]

    def _config(self, name, node):
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(node))
        return str(path)

    def _cli(self, *argv):
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            code = fddkit.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"fddkit {argv[0]} exited {code}")

    def run(self, x):
        merged = {"train": [], "test": []}
        for part, config, arc in self.ingests:
            self._cli("ingest", "--config", config, "--out", str(arc))
            merged[part].append(F.WindowBatch(
                windows=np.load(arc / f"{part}_windows.npy"),
                labels=np.load(arc / f"{part}_labels.npy")))
        archive = self.root / "archive"
        archive.mkdir(exist_ok=True)
        for part, batches in merged.items():
            batch = F.concat_batches(batches)
            np.save(archive / f"{part}_windows.npy", batch.windows)
            np.save(archive / f"{part}_labels.npy", batch.labels)
        self._cli("train", "--config", self.train_level1,
                  "--out", str(self.root / "level1_model"),
                  "--mode", "level1")
        self._cli("train", "--config", self.train_flat,
                  "--out", str(self.root / "flat_model"), "--mode", "flat")
        report = self.root / "report"
        self._cli("evaluate", "--config", self.evaluate,
                  "--out", str(report))
        return json.loads((report / "summary.json").read_text())

    def check(self, x, summary):
        got = {int(k) for k in summary["fdr_by_class"]}
        missing = sorted(set(range(1, self.n_classes)) - got)
        problems = [f"no FDR for classes {missing}"] if missing else []
        if summary["far"] is None:
            problems.append("report has no FAR")
        return problems

    def quality(self, summaries):
        def slow(s):
            return _mean([s["fdr_by_class"][str(c)] for c in self.slow])
        avg = _mean([s["average_fdr"] for s in summaries])
        slow_fdr = _mean([slow(s) for s in summaries])
        return {"avg_fdr": avg, "slow_fdr": slow_fdr,
                "far": _mean([s["far"] for s in summaries]),
                "flat_avg_fdr": avg, "flat_slow_fdr": slow_fdr}


WORKLOADS = {w.name: w for w in (PaperSeed, Diagnose, ArchiveTrack)}
