"""File ingestion, standardization, windowing, and train/val/test splitting.

Data files are whitespace-delimited numeric matrices, one sample per row,
with an optional sidecar label file holding one integer per line.
"""

from dataclasses import dataclass
import json
import logging

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, SplitError

log = logging.getLogger(__name__)


@dataclass
class Scaler:
    """Per-column standardization statistics. Fit once, apply anywhere."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DimensionError("scaler mean/std must be matching vectors")
        if np.any(self.std <= 0):
            raise DimensionError("scaler std entries must be positive")

    @classmethod
    def fit(cls, data):
        """Column statistics over all leading axes of data (..., d_x)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim < 2:
            raise DimensionError("scaler data must be (..., d_x)")
        data = data.reshape(-1, data.shape[-1])
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        # Constant columns would divide by zero; clamp them to pass through.
        std = np.where(std <= 1e-12, 1.0, std)
        return cls(mean, std)

    def apply(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.shape[-1] != self.mean.size:
            raise DimensionError(
                f"scaler fitted on {self.mean.size} columns, data has "
                f"{data.shape[-1]}")
        return (data - self.mean) / self.std

    def save(self, path):
        """Write mean and std as sorted-key JSON (scaler.json)."""
        with open(path, "w") as fh:
            json.dump({"mean": self.mean.tolist(), "std": self.std.tolist()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """Read a file written by save; FormatError if it is not one."""
        rec = read_json(path)
        if not (isinstance(rec, dict) and all(
                isinstance(rec.get(key), list)
                and all(type(v) in (int, float) for v in rec[key])
                for key in ("mean", "std"))):
            raise FormatError(f"{path}: a scaler needs 'mean' and 'std' "
                              "lists of numbers")
        return cls(rec["mean"], rec["std"])


def read_json(path):
    """The JSON value in a UTF-8 text file; FormatError if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:   # also UnicodeDecodeError
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def _numbered_lines(path):
    """(line number, line) pairs of a text file; FormatError if not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None


@dataclass
class WindowBatch:
    """Fixed-horizon windows with one label each.

    windows: (N, H, d_x); labels: (N,) ints; starts and series identify
    where each window came from so splits can respect time order.
    """

    windows: np.ndarray
    labels: np.ndarray
    starts: np.ndarray = None
    series: np.ndarray = None

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 3:
            raise DimensionError("windows must be (N, H, d_x)")
        n = self.windows.shape[0]
        if self.labels.shape != (n,):
            raise DimensionError("labels must have one entry per window")
        if not np.all(np.isfinite(self.windows)):
            raise DimensionError("windows contain non-finite values")
        if n and self.labels.min() < 0:
            raise DimensionError("labels must be nonnegative")
        if self.starts is None:
            self.starts = np.arange(n, dtype=np.int64)
        else:
            self.starts = np.asarray(self.starts, dtype=np.int64)
        if self.series is None:
            self.series = np.zeros(n, dtype=np.int64)
        else:
            self.series = np.asarray(self.series, dtype=np.int64)
        if self.starts.shape != (n,) or self.series.shape != (n,):
            raise DimensionError("starts/series must have one entry per window")

    def __len__(self):
        return self.windows.shape[0]

    @property
    def horizon(self):
        return self.windows.shape[1]

    @property
    def n_features(self):
        return self.windows.shape[2]

    def take(self, idx):
        idx = np.asarray(idx)
        return WindowBatch(self.windows[idx], self.labels[idx],
                           self.starts[idx], self.series[idx])

    def scaled(self, scaler):
        return WindowBatch(scaler.apply(self.windows), self.labels,
                           self.starts, self.series)

    def relabel(self, labels):
        """The same windows, starts and series under new labels."""
        return WindowBatch(self.windows, labels, self.starts, self.series)


def concat_batches(batches):
    """Stack batches; series ids are offset so distinct sources stay distinct."""
    batches = [b for b in batches if len(b)]
    if not batches:
        raise DimensionError("nothing to concatenate")
    windows = np.concatenate([b.windows for b in batches])
    labels = np.concatenate([b.labels for b in batches])
    starts = np.concatenate([b.starts for b in batches])
    series, offset = [], 0
    for b in batches:
        series.append(b.series + offset)
        offset += int(b.series.max()) + 1
    return WindowBatch(windows, labels, starts, np.concatenate(series))


def load_matrix(path, expected_cols=None):
    """Parse a whitespace-delimited numeric matrix.

    If expected_cols is given and the file turns out to be stored
    transposed (expected_cols rows), it is flipped to samples-by-columns.
    """
    rows = []
    width = None
    for lineno, line in _numbered_lines(path):
        tokens = line.split()
        if not tokens:
            continue
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise FormatError(
                f"{path}:{lineno}: expected {width} columns, found "
                f"{len(tokens)}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise FormatError(
                f"{path}:{lineno}: non-numeric token {bad!r}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    if (expected_cols is not None and data.shape[1] != expected_cols
            and data.shape[0] == expected_cols):
        log.info("%s stored transposed (%dx%d); flipping", path,
                 data.shape[0], data.shape[1])
        data = data.T
    return data


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_matrix(path, data):
    """Write a matrix in the same whitespace format, full 64-bit precision."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    with open(path, "w") as fh:
        for row in data:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def load_labels(path):
    labels = []
    for lineno, line in _numbered_lines(path):
        tok = line.strip()
        if not tok:
            continue
        try:
            labels.append(int(tok))
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: label {tok!r} is not an integer") from None
    return np.array(labels, dtype=np.int64)


def save_labels(path, labels):
    with open(path, "w") as fh:
        for lab in np.asarray(labels).ravel():
            fh.write(f"{int(lab)}\n")


def make_windows(series, labels, horizon):
    """Stride-1 sliding windows of one series (series id 0); each window
    is labeled by its last sample."""
    series = np.asarray(series, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if series.ndim != 2:
        raise DimensionError("series must be (L, d_x)")
    length = series.shape[0]
    if labels.shape != (length,):
        raise DimensionError("need one label per sample")
    if length < horizon:
        raise DimensionError(
            f"series length {length} is shorter than horizon {horizon}")
    n = length - horizon + 1
    # Windowed view, then copy so the batch owns its memory.
    idx = np.arange(horizon)[None, :] + np.arange(n)[:, None]
    return WindowBatch(series[idx], labels[horizon - 1:],
                       np.arange(n, dtype=np.int64))


@dataclass
class SplitSpec:
    train: float
    val: float
    test: float
    contiguous: bool = True

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        if any(f < 0 for f in fracs):
            raise ConfigError("split fractions must be nonnegative")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions sum to {sum(fracs)}, not 1")


def split(batch, spec, seed=0):
    """Partition a batch into (train, val, test).

    Contiguous mode works per (series, label) group in time order and then
    drops any train window that shares samples with a test window of the
    same series, so no test information leaks into training. Shuffled mode
    permutes everything with the seed.
    """
    n = len(batch)
    if n == 0:
        raise SplitError("cannot split an empty batch")
    if not spec.contiguous:
        order = np.random.default_rng(seed).permutation(n)
        n_tr = int(round(spec.train * n))
        n_val = int(round(spec.val * n))
        parts = (order[:n_tr], order[n_tr:n_tr + n_val], order[n_tr + n_val:])
        return tuple(_check_part(batch, idx, frac)
                     for idx, frac in zip(parts, (spec.train, spec.val, spec.test)))

    horizon = batch.horizon
    train_idx, val_idx, test_idx = [], [], []
    test_ranges = {}  # series -> list of (start, end) test intervals
    groups = _contiguous_groups(batch)
    for key, idx in groups:
        k = idx.size
        n_tr = int(round(spec.train * k))
        n_val = int(round(spec.val * k))
        train_idx.extend(idx[:n_tr])
        val_idx.extend(idx[n_tr:n_tr + n_val])
        for j in idx[n_tr + n_val:]:
            test_idx.append(j)
            sid = batch.series[j]
            test_ranges.setdefault(sid, []).append(
                (batch.starts[j], batch.starts[j] + horizon))
    kept_train = []
    for j in train_idx:
        s0, s1 = batch.starts[j], batch.starts[j] + horizon
        clashes = any(s0 < e and s1 > b
                      for b, e in test_ranges.get(batch.series[j], ()))
        if not clashes:
            kept_train.append(j)
    parts = (np.array(sorted(kept_train), dtype=np.int64),
             np.array(sorted(val_idx), dtype=np.int64),
             np.array(sorted(test_idx), dtype=np.int64))
    return tuple(_check_part(batch, idx, frac)
                 for idx, frac in zip(parts, (spec.train, spec.val, spec.test)))


def _contiguous_groups(batch):
    """Runs of equal (series, label) in time order, as index arrays."""
    order = np.lexsort((batch.starts, batch.series))
    groups = []
    cur_key, cur = None, []
    for j in order:
        key = (int(batch.series[j]), int(batch.labels[j]))
        if key != cur_key:
            if cur:
                groups.append((cur_key, np.array(cur, dtype=np.int64)))
            cur_key, cur = key, []
        cur.append(j)
    if cur:
        groups.append((cur_key, np.array(cur, dtype=np.int64)))
    return groups


def _check_part(batch, idx, frac):
    if frac > 0 and idx.size == 0:
        raise SplitError(
            f"partition with fraction {frac} came out empty; "
            "not enough windows for this split")
    return batch.take(idx)
