"""File ingestion, standardization, windowing, and train/val/test splitting.

Data files are whitespace-delimited numeric matrices, one sample per row,
with an optional sidecar label file holding one integer per line.
"""

from collections import namedtuple
from dataclasses import dataclass
import json
import logging
import sys

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
        """Column statistics over all leading axes of data (..., d_x);
        FormatError if they overflow float64."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim < 2:
            raise DimensionError("scaler data must be (..., d_x)")
        data = data.reshape(-1, data.shape[-1])
        if data.shape[0] == 0:
            raise DimensionError("no data rows to fit a scaler on")
        # an infinite std would silently zero its column
        try:
            with np.errstate(over="raise"):
                mean = data.mean(axis=0)
                std = data.std(axis=0)
        except FloatingPointError:
            raise FormatError("the data's column statistics overflow "
                              "float64; rescale it first") from None
        # Constant columns would divide by zero; clamp them to pass through.
        std = np.where(std <= 1e-12, 1.0, std)
        return cls(mean, std)

    def apply(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.shape[-1] != self.mean.size:
            raise DimensionError(
                f"scaler fitted on {self.mean.size} columns, data has "
                f"{data.shape[-1]}")
        # an overflow here is a scaler unfit for the data, not a divergence
        try:
            with np.errstate(over="raise"):
                # in place, so no second full-size temporary is made
                out = data - self.mean
                out /= self.std
                return out
        except FloatingPointError:
            raise FormatError("standardizing with the scaler overflows "
                              "float64: it does not fit this data") from None

    def save(self, path):
        """Write mean and std as a JSON record (scaler.json)."""
        write_json(path, {"mean": self.mean.tolist(),
                          "std": self.std.tolist()})

    @classmethod
    def load(cls, path):
        """Read a file written by save; FormatError if it is not one.

        NUMBERS holds finite numbers only, though json reads NaN and
        Infinity: an infinite std would silently zero its column.
        """
        fields = {"mean": NUMBERS, "std": NUMBERS}
        rec = read_fields(read_json(path), fields, path, FormatError,
                          required=fields)
        return cls(rec["mean"], rec["std"])


def read_json(path):
    """The JSON value in a UTF-8 text file; FormatError if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:   # also UnicodeDecodeError
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def write_json(path, value):
    """Write value as the package's JSON record: sorted keys, a
    two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


# A field table maps each key of one JSON object to the kind of its value.
# A kind is a name for messages and read(value), which returns the value
# converted or _WRONG. Ranges and defaults stay where the values are used.
_WRONG = object()


class _Kind(namedtuple("_Kind", "name read")):

    def listed(self, name, least=0):
        """The kind of a list of at least `least` values of this kind."""
        def read(value):
            if not isinstance(value, list) or len(value) < least:
                return _WRONG
            out = tuple(map(self.read, value))
            return _WRONG if any(v is _WRONG for v in out) else out
        return _Kind(name, read)


def _rates(value):
    """Numbers keyed by class, as summary.json's fdr_by_class holds them."""
    if not isinstance(value, dict) or not all(map(str.isdecimal, value)):
        return _WRONG
    out = {int(k): NUMBER.read(v) for k, v in value.items()}
    return _WRONG if any(v is _WRONG for v in out.values()) else out


def _matrix(value):
    rows = _ROWS.read(value)
    return rows if rows is _WRONG or len(set(map(len, rows))) < 2 else _WRONG


# Python's bool is an int, but true is no integer here, and 1.5 is none
# either. A number is finite (json reads NaN and Infinity) and read as a
# float; the bound also keeps float() from overflowing on a huge integer.
INTEGER = _Kind("an integer", lambda v: v if type(v) is int else _WRONG)
NUMBER = _Kind("a number", lambda v: float(v) if type(v) in (int, float)
               and abs(v) <= sys.float_info.max else _WRONG)
NUMBER_OR_NULL = _Kind("a number or null",
                       lambda v: None if v is None else NUMBER.read(v))
STRING = _Kind("a string", lambda v: v if isinstance(v, str) else _WRONG)
# open() would take an integer path as a file descriptor, and stdin is 0.
PATH = _Kind("a path string", STRING.read)
BOOL = _Kind("true or false", lambda v: v if type(v) is bool else _WRONG)
OBJECT = _Kind("a JSON object",
               lambda v: v if isinstance(v, dict) else _WRONG)
STRING_OR_OBJECT = _Kind("a string or a JSON object",
                         lambda v: v if isinstance(v, (str, dict)) else _WRONG)
LOOP = _Kind("'loopK' or an integer K",
             lambda v: v if isinstance(v, str) or type(v) is int else _WRONG)
INTEGERS = INTEGER.listed("a list of integers")
NUMBERS = NUMBER.listed("a list of numbers")
_ROWS = NUMBERS.listed("a list of number lists")
MATRIX = _Kind("a list of equal-length lists of numbers", _matrix)
RATES = _Kind("an object of numbers keyed by class", _rates)


def read_fields(node, fields, what, error, required=()):
    """The entries of a JSON object, each read by its kind in the field
    table (numbers as floats, lists as tuples); error if node is not an
    object, has a key the table lacks or a value of another kind, or
    lacks a required key.

    what names the node in messages: a config key such as 'split', or
    a file's path. Config keys are named "config key 'k'".
    """
    if not isinstance(node, dict):
        raise error(f"{what} must be a JSON object")
    extra = sorted(set(node) - set(fields))
    if extra:
        raise error(f"unknown {what} keys: {extra}")
    owner = "config" if error is ConfigError else what
    for key in required:
        if key not in node:
            raise error(f"{owner} key {key!r} is required")
    out = {}
    for key, value in node.items():
        out[key] = fields[key].read(value)
        if out[key] is _WRONG:
            raise error(f"{owner} key {key!r} must be {fields[key].name}, "
                        f"not {value!r}")
    return out


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
    if horizon < 1:
        raise ConfigError(f"window {horizon} must be at least 1")
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
