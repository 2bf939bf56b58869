"""Confusion matrices, detection/alarm rates, and report formatting.

fdr(cm, i) is the recall of class i: the fraction of true-i samples
predicted as i. far(cm, normal) is the fraction of true-normal samples
predicted as anything else. A precision-style rate TP/(TP+FP) is exposed
separately as fdr_precision for comparison purposes; it is not the
quantity used in the summary tables.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import (INTEGER, INTEGERS, NUMBER_OR_NULL, OBJECT, RATES,
                     load_matrix, read_fields, read_json, write_json)
from .errors import (ConfigError, DimensionError, FormatError,
                     UndefinedMetricError)


@dataclass
class ConfusionMatrix:
    """Counts with rows = true class, columns = predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts.ndim != 2
                or self.counts.shape[0] != self.counts.shape[1]):
            raise DimensionError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise DimensionError("confusion counts must be nonnegative")

    @property
    def n_classes(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())


def confusion(true, pred, n_classes):
    true = np.asarray(true, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if true.shape != pred.shape or true.ndim != 1:
        raise ConfigError("true and predicted label lists must match in length")
    if true.size and (true.min() < 0 or true.max() >= n_classes
                      or pred.min() < 0 or pred.max() >= n_classes):
        raise ConfigError(f"labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return ConfusionMatrix(counts)


def fdr(cm, i):
    """Fraction of true-i samples predicted as i."""
    row = cm.counts[i]
    n_true = row.sum()
    if n_true == 0:
        raise UndefinedMetricError(f"no true samples of class {i}")
    return float(row[i]) / float(n_true)


def far(cm, normal=0):
    """Fraction of true-normal samples predicted as any non-normal class."""
    row = cm.counts[normal]
    n_true = row.sum()
    if n_true == 0:
        raise UndefinedMetricError("no true normal samples")
    return float(n_true - row[normal]) / float(n_true)


def fdr_precision(cm, i):
    """TP/(TP+FP) for class i; kept distinct from the recall-style fdr."""
    col = cm.counts[:, i]
    denom = col.sum()
    if denom == 0:
        raise UndefinedMetricError(f"class {i} never predicted")
    return float(cm.counts[i, i]) / float(denom)


def average_fdr(cm, classes):
    classes = list(classes)
    if not classes:
        raise UndefinedMetricError("no classes designated for the average")
    return float(np.mean([fdr(cm, i) for i in classes]))


@dataclass
class EvalReport:
    """A confusion matrix plus the summary rates derived from it."""

    cm: ConfusionMatrix
    fdr_by_class: dict
    far: float
    avg_fdr: float
    avg_classes: tuple
    normal_class: int = 0
    metadata: dict = field(default_factory=dict)


def build_report(cm, normal=0, metadata=None):
    """Assemble an EvalReport from a confusion matrix.

    Per-class rates are computed for every class with at least one true
    sample; the average is over every non-normal class that has true
    samples.
    """
    present = [i for i in range(cm.n_classes) if cm.counts[i].sum() > 0]
    rates = {i: fdr(cm, i) for i in present}
    avg_classes = tuple(i for i in present if i != normal)
    rate = far(cm, normal) if cm.counts[normal].sum() > 0 else None
    avg = float(np.mean([rates[i] for i in avg_classes])) if avg_classes else None
    return EvalReport(cm, rates, rate, avg, avg_classes, normal,
                      dict(metadata or {}))


def format_report(report):
    """Render the summary as aligned text, percentages to 2 decimals."""
    lines = []
    for key in sorted(report.metadata):
        lines.append(f"# {key}: {report.metadata[key]}")
    lines.append(f"{'class':>8}  {'FDR%':>8}")
    for i in sorted(report.fdr_by_class):
        if i == report.normal_class:
            continue
        lines.append(f"{i:>8}  {100.0 * report.fdr_by_class[i]:>8.2f}")
    if report.avg_fdr is not None:
        lines.append(f"{'average':>8}  {100.0 * report.avg_fdr:>8.2f}")
    if report.far is not None:
        lines.append(f"{'FAR%':>8}  {100.0 * report.far:>8.2f}")
    return "\n".join(lines) + "\n"


def confusion_to_text(cm):
    """Whitespace-delimited counts, one true-class row per line."""
    return "\n".join(" ".join(str(v) for v in row)
                     for row in cm.counts) + "\n"


def load_report(directory):
    """Rebuild an EvalReport from a save_report directory; FormatError if
    a file is damaged."""
    directory = Path(directory)
    path = directory / "confusion.txt"
    counts = load_matrix(path)
    if not np.all((counts == np.round(counts)) & (np.abs(counts) <= 2 ** 53)):
        raise FormatError(f"{path}: confusion counts must be whole numbers")
    path = directory / "summary.json"
    fields = {"fdr_by_class": RATES, "far": NUMBER_OR_NULL,
              "average_fdr": NUMBER_OR_NULL, "average_classes": INTEGERS,
              "normal_class": INTEGER, "metadata": OBJECT}
    summary = read_fields(read_json(path), fields, path, FormatError,
                          required=fields)
    return EvalReport(
        cm=ConfusionMatrix(counts),
        fdr_by_class=summary["fdr_by_class"],
        far=summary["far"],
        avg_fdr=summary["average_fdr"],
        avg_classes=summary["average_classes"],
        normal_class=summary["normal_class"],
        metadata=summary["metadata"],
    )


def save_report(report, directory):
    """Write confusion.txt plus summary.json under the given directory."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "confusion.txt").write_text(confusion_to_text(report.cm))
    summary = {
        "fdr_by_class": {str(k): report.fdr_by_class[k]
                         for k in sorted(report.fdr_by_class)},
        "far": report.far,
        "average_fdr": report.avg_fdr,
        "average_classes": list(report.avg_classes),
        "normal_class": report.normal_class,
        "metadata": {k: report.metadata[k] for k in sorted(report.metadata)},
    }
    write_json(directory / "summary.json", summary)
    (directory / "report.txt").write_text(format_report(report))
