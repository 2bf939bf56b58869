import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from fddkit.dataio import (INTEGER, INTEGERS, MATRIX, NUMBER, Scaler,
                           SplitSpec, WindowBatch, concat_batches,
                           load_labels, load_matrix, make_windows,
                           read_fields, save_labels, save_matrix, split)
from fddkit.errors import (ConfigError, DimensionError, FormatError,
                           SplitError)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(17, 4)) * 10.0 ** rng.integers(-8, 8, size=(17, 4))
    path = tmp_path / "m.dat"
    save_matrix(path, data)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, data)


def test_load_matrix_2x2(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("1.5 -2.0\n3.25e-1 4\n")
    out = load_matrix(path)
    np.testing.assert_array_equal(out, [[1.5, -2.0], [0.325, 4.0]])


def test_load_matrix_transposes_when_asked(tmp_path):
    # Stored as d_x rows by N samples; reader flips it to N x d_x.
    data = np.arange(52.0 * 500).reshape(52, 500)
    path = tmp_path / "wide.dat"
    save_matrix(path, data)
    out = load_matrix(path, expected_cols=52)
    assert out.shape == (500, 52)
    np.testing.assert_array_equal(out, data.T)
    # Already N x 52: untouched.
    path2 = tmp_path / "tall.dat"
    save_matrix(path2, data.T)
    out2 = load_matrix(path2, expected_cols=52)
    assert out2.shape == (500, 52)


def test_load_matrix_errors_carry_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.dat"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(FormatError, match=r"ragged\.dat:2"):
        load_matrix(ragged)
    junk = tmp_path / "junk.dat"
    junk.write_text("1 2\n3 abc\n")
    with pytest.raises(FormatError, match=r"junk\.dat:2.*'abc'"):
        load_matrix(junk)
    empty = tmp_path / "empty.dat"
    empty.write_text("\n\n")
    with pytest.raises(FormatError):
        load_matrix(empty)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, [0, 3, 9, 15, 0])
    np.testing.assert_array_equal(load_labels(path), [0, 3, 9, 15, 0])
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nx\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        load_labels(bad)


def test_standardize_fit_and_apply():
    rng = np.random.default_rng(1)
    data = rng.normal(loc=5.0, scale=3.0, size=(200, 6))
    scaler = Scaler.fit(data)
    out = scaler.apply(data)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    fresh = rng.normal(size=(50, 6))
    applied = scaler.apply(fresh)
    # Elementwise oracle.
    for i in range(50):
        for j in range(6):
            expect = (fresh[i, j] - scaler.mean[j]) / scaler.std[j]
            assert applied[i, j] == expect
    # Exact inverse.
    np.testing.assert_allclose(applied * scaler.std + scaler.mean, fresh,
                               atol=1e-12)


def test_standardize_constant_column_clamped():
    data = np.ones((30, 2))
    data[:, 1] = np.arange(30.0)
    scaler = Scaler.fit(data)
    out = scaler.apply(data)
    assert scaler.std[0] == 1.0
    np.testing.assert_array_equal(out[:, 0], 0.0)


def test_standardize_column_mismatch():
    scaler = Scaler.fit(np.zeros((5, 3)))
    with pytest.raises(DimensionError):
        scaler.apply(np.zeros((5, 4)))


# The exact bytes scaler.json has always had: sorted keys, two-space
# indent, shortest round-trip floats, a trailing newline.
FROZEN_SCALER_TEXT = """{
  "mean": [
    0.1,
    -2.0,
    1e-17,
    12345.678901234567
  ],
  "std": [
    1.0,
    0.5,
    3.25,
    2.220446049250313e-16
  ]
}
"""


def test_scaler_save_load_round_trip(tmp_path):
    scaler = Scaler(mean=[0.1, -2.0, 1e-17, 12345.678901234567],
                    std=[1.0, 0.5, 3.25, 2.220446049250313e-16])
    scaler.save(tmp_path / "scaler.json")
    assert (tmp_path / "scaler.json").read_text() == FROZEN_SCALER_TEXT
    back = Scaler.load(tmp_path / "scaler.json")
    assert back.mean.tobytes() == scaler.mean.tobytes()
    assert back.std.tobytes() == scaler.std.tobytes()
    rng = np.random.default_rng(7)
    fitted = Scaler.fit(rng.normal(3.0, 2.0, size=(40, 5)))
    fitted.save(tmp_path / "fitted.json")
    again = Scaler.load(tmp_path / "fitted.json")
    assert again.mean.tobytes() == fitted.mean.tobytes()
    assert again.std.tobytes() == fitted.std.tobytes()


@pytest.mark.filterwarnings("error")
def test_scaler_fit_rejects_data_whose_statistics_overflow():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 3))
    fitted = Scaler.fit(data)
    # the same bits as numpy's own statistics
    assert fitted.mean.tobytes() == data.mean(axis=0).tobytes()
    assert fitted.std.tobytes() == data.std(axis=0).tobytes()
    # squaring 1e200 overflows; the std used to come out infinite
    with pytest.raises(FormatError, match="overflow float64"):
        Scaler.fit(data * 1e200)


def test_scaler_apply_makes_one_array_of_the_same_bits():
    data = np.random.default_rng(2).normal(3.0, 2.0, size=(200, 100, 52))
    scaler = Scaler.fit(data[:20])
    tracemalloc.start()
    try:
        out = scaler.apply(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tobytes() == ((data - scaler.mean) / scaler.std).tobytes()
    # that expression keeps two full-size temporaries alive at once
    assert peak < 1.1 * data.nbytes


@pytest.mark.parametrize("text", ["{nope", "[1, 2]", '{"mean": [0.0]}',
                                  '{"mean": "0", "std": [1.0]}',
                                  '{"mean": [true], "std": [1.0]}'])
def test_scaler_load_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "scaler.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="scaler.json"):
        Scaler.load(path)


def test_read_fields_converts_present_keys_and_names_the_key():
    table = {"n": INTEGER, "x": NUMBER, "ks": INTEGERS, "m": MATRIX}
    got = read_fields({"n": 3, "x": 2, "ks": [1, 2], "m": [[1, 2], [3, 4]]},
                      table, "node", ConfigError)
    assert got == {"n": 3, "x": 2.0, "ks": (1, 2),
                   "m": ((1.0, 2.0), (3.0, 4.0))}
    assert type(got["x"]) is float and type(got["m"][0][0]) is float
    for key, value in [("n", True), ("n", 1.5), ("x", "2"),
                       ("x", float("nan")), ("x", 10 ** 400),
                       ("ks", [True]), ("m", [[1.0], [1.0, 2.0]])]:
        with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
            read_fields({key: value}, table, "node", ConfigError)
    with pytest.raises(FormatError, match="^f.json key 'n' is required$"):
        read_fields({}, table, "f.json", FormatError, required=["n"])
    with pytest.raises(FormatError, match=r"^unknown f.json keys: \['y'\]$"):
        read_fields({"y": 1}, table, "f.json", FormatError)


def test_relabel_keeps_windows_and_provenance():
    batch = make_windows(np.arange(24.0).reshape(12, 2),
                         np.zeros(12, dtype=int), 4)
    out = batch.relabel(np.arange(len(batch)))
    assert out.windows is batch.windows
    assert out.starts is batch.starts and out.series is batch.series
    np.testing.assert_array_equal(out.labels, np.arange(len(batch)))
    np.testing.assert_array_equal(batch.labels, 0)
    with pytest.raises(DimensionError):
        batch.relabel([0, 1])


def test_make_windows_counts_and_labels():
    series = np.arange(480.0 * 2).reshape(480, 2)
    labels = np.zeros(480, dtype=int)
    labels[200:] = 7
    batch = make_windows(series, labels, horizon=150)
    assert len(batch) == 331
    # Window i covers [i, i+150); its label is the label at sample i+149.
    assert batch.labels[0] == 0
    assert batch.labels[51] == 7  # ends at sample 200
    assert batch.labels[50] == 0  # ends at sample 199
    np.testing.assert_array_equal(batch.windows[0], series[:150])
    np.testing.assert_array_equal(batch.windows[330], series[330:480])

    single = make_windows(series[:150], labels[:150], horizon=150)
    assert len(single) == 1
    with pytest.raises(DimensionError):
        make_windows(series[:100], labels[:100], horizon=150)


@pytest.mark.parametrize("horizon", [0, -3])
def test_make_windows_rejects_a_window_below_one(horizon):
    # such a window used to fail later, as one label per window missing
    with pytest.raises(ConfigError, match=f"window {horizon} must be"):
        make_windows(np.zeros((30, 2)), np.zeros(30, dtype=int), horizon)


def test_split_all_train():
    batch = make_windows(np.zeros((30, 2)), np.zeros(30, dtype=int), 5)
    tr, va, te = split(batch, SplitSpec(1.0, 0.0, 0.0))
    assert len(tr) == len(batch) and len(va) == 0 and len(te) == 0


def test_split_contiguous_no_leakage():
    rng = np.random.default_rng(3)
    series = rng.normal(size=(300, 2))
    labels = np.zeros(300, dtype=int)
    labels[150:] = 4
    batch = make_windows(series, labels, horizon=10)
    tr, va, te = split(batch, SplitSpec(0.6, 0.2, 0.2))

    # Partitions are disjoint and only training windows may be dropped.
    ids = [set(map(tuple, zip(p.series, p.starts))) for p in (tr, va, te)]
    assert not (ids[0] & ids[2]) and not (ids[0] & ids[1]) and not (ids[1] & ids[2])
    assert len(va) + len(te) + len(tr) <= len(batch)

    # Per class: every train window ends before every test window starts.
    for lab in (0, 4):
        tr_ends = tr.starts[tr.labels == lab] + batch.horizon - 1
        te_starts = te.starts[te.labels == lab]
        if tr_ends.size and te_starts.size:
            assert tr_ends.max() < te_starts.min()
    # No train window shares any sample with any test window.
    for s in tr.starts:
        assert not np.any((te.starts < s + batch.horizon)
                          & (te.starts + batch.horizon > s))


def test_split_empty_partition_raises():
    batch = make_windows(np.zeros((12, 1)), np.zeros(12, dtype=int), 10)
    # 3 windows, horizon 10: contiguous test demands overlap exclusion that
    # empties the train side.
    with pytest.raises(SplitError):
        split(batch, SplitSpec(0.4, 0.3, 0.3))


def _split_sweep():
    """Seeded batches of 1-3 series with repeated label runs, horizons
    1-11 and, in some, shuffled row order; then runs of 2, 6 and 10
    windows, whose quarters and halves fall on rounding ties."""
    rng = np.random.default_rng(2020)
    for _ in range(120):
        horizon = int(rng.integers(1, 12))
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            runs = rng.integers(1, 15, size=int(rng.integers(1, 5)))
            labels = np.repeat(rng.integers(0, 3, size=runs.size), runs)
            labels = np.r_[np.zeros(horizon - 1, dtype=int), labels]
            parts.append(make_windows(rng.normal(size=(labels.size, 2)),
                                      labels, horizon))
        batch = concat_batches(parts)
        if rng.random() < 0.3:
            batch = batch.take(rng.permutation(len(batch)))
        yield batch
    for n in (2, 6, 10):
        yield make_windows(np.arange(n + 2.0)[:, None],
                           np.zeros(n + 2, dtype=int), 3)


def test_split_gives_the_frozen_partitions():
    # SHA-256 of every part's starts, series, labels and window bytes,
    # in order, and of every SplitError message, over the sweep, as the
    # per-window split gave them before it was vectorised; taken from the
    # time-ordered mode alone while a shuffled mode still existed
    digest = hashlib.sha256()
    for batch in _split_sweep():
        for fracs in [(0.6, 0.2, 0.2), (0.5, 0.25, 0.25), (0.7, 0.3, 0.0),
                      (0.4, 0.3, 0.3), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                      (0.34, 0.33, 0.33)]:
            try:
                parts = split(batch, SplitSpec(*fracs))
            except SplitError as exc:
                digest.update(str(exc).encode())
                continue
            for p in parts:
                for a in (p.starts, p.series, p.labels, p.windows):
                    digest.update(a.tobytes())
    assert digest.hexdigest() == \
        "5ba4f15c26a4cedbaaf562697556c3a3f7f100dd5d3c1449518dc85309455f3f"


def test_split_time_grows_with_the_series_not_its_square():
    # the per-window overlap scan this replaced took 13-15 s on a 2-CPU
    # x86-64 host
    batch = make_windows(np.zeros((40_000, 1)), np.zeros(40_000, dtype=int),
                         20)
    begin = time.perf_counter()
    tr, va, te = split(batch, SplitSpec(0.6, 0.2, 0.2))
    assert time.perf_counter() - begin < 1.0
    assert (len(tr), len(va), len(te)) == (23989, 7996, 7996)


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        SplitSpec(-0.1, 0.6, 0.5)


def test_concat_batches_keeps_sources_distinct():
    a = make_windows(np.zeros((20, 2)), np.zeros(20, dtype=int), 5)
    b = make_windows(np.ones((25, 2)), np.ones(25, dtype=int), 5)
    merged = concat_batches([a, b])
    assert len(merged) == len(a) + len(b)
    assert len(np.unique(merged.series)) == 2


def test_window_batch_validation():
    with pytest.raises(DimensionError):
        WindowBatch(np.zeros((3, 4)), np.zeros(3, dtype=int))
    with pytest.raises(DimensionError):
        WindowBatch(np.zeros((3, 4, 2)), np.zeros(5, dtype=int))
    bad = np.zeros((2, 3, 1))
    bad[0, 0, 0] = np.inf
    with pytest.raises(DimensionError):
        WindowBatch(bad, np.zeros(2, dtype=int))
