"""Label regrouping, two-level routing and the two-level report."""

import numpy as np
import pytest

from fddkit.dataio import Scaler, WindowBatch
from fddkit.errors import ConfigError
from fddkit.hierarchy import MODES, HierarchicalModel, LabelMap
from fddkit.model import ModelConfig, TrainedModel, build_params
from fddkit.pipeline import hierarchical_report, infer_with_twins


def test_regroup_thirteen_classes():
    labels = np.arange(13)
    lmap = LabelMap((3, 9, 11), 13)
    merged = lmap.relabel(_toy_batch(labels), "level1").labels
    expect = [0, 1, 2, 0, 3, 4, 5, 6, 7, 0, 8, 0, 9]
    assert merged.tolist() == expect
    assert lmap.classes("flat") == tuple(range(13))
    assert lmap.classes("level1") == (-1, 1, 2, 4, 5, 6, 7, 8, 10, 12)
    assert lmap.classes("level2") == (0, 3, 9, 11)
    assert [lmap.n_classes(m) for m in MODES] == [13, 10, 4]
    assert lmap.n_original == 13
    # the incipient classes may come in any order, with repeats
    assert LabelMap([11, 3, 9, 3], 13) == lmap


def test_class_counts_of_a_huge_alphabet_are_counted_not_listed(
        monkeypatch):
    # listing the level-1 classes of a config's n_classes of 2**63 grew
    # a tuple until the process ran out of memory
    def listing(self, mode):
        raise AssertionError("listed the classes to count them")

    monkeypatch.setattr(LabelMap, "classes", listing)
    lmap = LabelMap((3, 9), 2 ** 63)
    assert [lmap.n_classes(m) for m in MODES] == [2 ** 63, 2 ** 63 - 2, 3]


def test_regroup_empty_incipient_is_identity():
    labels = np.array([0, 4, 2, 1, 3, 0])
    lmap = LabelMap((), 5)
    merged = lmap.relabel(_toy_batch(labels), "level1").labels
    assert merged.tolist() == labels.tolist()
    assert lmap.classes("level2") == (0,)


def test_regroup_round_trip():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 13, size=200)
    lmap = LabelMap((3, 9, 11), 13)
    batch = _toy_batch(labels)
    merged = lmap.relabel(batch, "level1").labels
    group = lmap.relabel(batch, "level2")
    assert group.labels.size == np.isin(labels, (0, 3, 9, 11)).sum()
    assert lmap.original(group.labels, "level2").tolist() == \
        [c for c in labels if c in (0, 3, 9, 11)]
    np.testing.assert_array_equal(lmap.original(labels, "flat"), labels)
    for orig, lvl1 in zip(labels, merged):
        if orig in (0, 3, 9, 11):
            assert lvl1 == 0
        else:
            assert lmap.original([lvl1], "level1")[0] == orig


def test_regroup_rejects_bad_sets():
    with pytest.raises(ConfigError):
        LabelMap((0,), 2)
    with pytest.raises(ConfigError):
        LabelMap((5,), 3)
    lmap = LabelMap((2,), 3)
    # a plain class has no level-2 label, so its rows are left out
    assert len(lmap.relabel(_toy_batch([1]), "level2")) == 0
    with pytest.raises(ConfigError, match="outside the original alphabet"):
        lmap.relabel(_toy_batch([7]), "level1")


@pytest.mark.parametrize("mode", ["level1", "level2"])
def test_relabel_rejects_a_label_of_the_alphabet_size(mode):
    # level 2 used to drop such a row as not in the merged group
    lmap = LabelMap((3, 9, 11), 13)
    with pytest.raises(ConfigError, match="outside the original alphabet"):
        lmap.relabel(_toy_batch([0, 3, 13]), mode)


@pytest.mark.parametrize("incipient", [(-1,), (3, -2), (13,)])
def test_label_map_rejects_incipient_outside_the_fault_classes(incipient):
    # a negative class would index the label tables from their end
    with pytest.raises(ConfigError, match=r"outside \[1, 13\)"):
        LabelMap(incipient, 13)


def _constant_model(n_features, n_classes, horizon, favored, scaler=None):
    """A model whose softmax head always argmaxes to `favored`; without
    a scaler it reads its windows as given."""
    cfg = ModelConfig(encoder=(3,), decoder=(n_features,),
                      n_features=n_features, n_classes=n_classes,
                      horizon=horizon, seed=0)
    params = build_params(cfg)
    params.W_c[...] = 0.0
    params.b_c[...] = 0.0
    params.b_c[favored] = 5.0
    if scaler is None:
        scaler = Scaler(np.zeros(n_features), np.ones(n_features))
    return TrainedModel(config=cfg, params=params, history=[],
                        scaler=scaler)


def _toy_batch(labels, horizon=4, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    w = rng.normal(size=(labels.size, horizon, n_features))
    return WindowBatch(windows=w, labels=labels)


def test_routing_reaches_level2():
    lmap = LabelMap((3, 9, 11), 13)
    level1 = _constant_model(2, lmap.n_classes("level1"), 4, favored=0)
    level2 = _constant_model(2, lmap.n_classes("level2"), 4, favored=2)
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch([0, 3, 9, 11, 1])
    preds = infer_with_twins(model, batch, batch)
    # level 1 always says "merged", level 2 always says its class 2,
    # which is original class 9
    assert preds.tolist() == [9, 9, 9, 9, 9]
    first = batch.take([0])
    assert infer_with_twins(model, first, first).tolist() == [9]


def test_routing_skips_level2_for_plain_faults():
    lmap = LabelMap((3, 9, 11), 13)
    level1 = _constant_model(2, lmap.n_classes("level1"), 4, favored=3)
    level2 = _constant_model(2, lmap.n_classes("level2"), 4, favored=1)
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch([0, 1, 2])
    preds = infer_with_twins(model, batch, batch)
    # level-1 class 3 is original class 4; level 2 never consulted
    assert preds.tolist() == [4, 4, 4]


def test_per_level_scalers_are_honored():
    lmap = LabelMap((1,), 3)
    s1 = Scaler(mean=np.zeros(2), std=np.ones(2))
    s2 = Scaler(mean=np.full(2, 100.0), std=np.full(2, 10.0))
    level1 = _constant_model(2, lmap.n_classes("level1"), 4, favored=0,
                             scaler=s1)
    level2 = _constant_model(2, lmap.n_classes("level2"), 4, favored=1,
                             scaler=s2)
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch([0, 0])
    got = infer_with_twins(model, batch, batch)
    # the constant head ignores features, so this checks the plumbing
    # runs the level-2 scaler without touching level-1 inputs
    assert got.tolist() == [1, 1]
    with np.testing.assert_raises(AssertionError):
        np.testing.assert_array_equal(s2.apply(batch.windows),
                                      batch.windows)


def test_infer_with_twins_routes_level2_on_the_quiet_batch_given_twice():
    lmap = LabelMap((3, 9, 11), 13)
    cfg1 = ModelConfig(encoder=(3,), decoder=(2,), n_features=2,
                       n_classes=lmap.n_classes("level1"), horizon=4, seed=1)
    cfg2 = ModelConfig(encoder=(3,), decoder=(2,), n_features=2,
                       n_classes=lmap.n_classes("level2"), horizon=4, seed=2)
    level1 = TrainedModel(cfg1, build_params(cfg1), [],
                          Scaler(mean=[0.5, -1.0], std=[2.0, 0.5]))
    level2 = TrainedModel(cfg2, build_params(cfg2), [],
                          Scaler(mean=[-0.5, 1.0], std=[0.5, 2.0]))
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch(np.zeros(64, dtype=int), seed=3)
    w = batch.windows
    pred1 = level1.predict(w)
    routed = pred1 == 0
    assert 0 < routed.sum() < len(w)   # both paths are exercised
    expect = lmap.original(pred1, "level1")
    expect[routed] = lmap.original(level2.predict(w[routed]), "level2")
    np.testing.assert_array_equal(infer_with_twins(model, batch, batch),
                                  expect)
    with pytest.raises(ConfigError, match="twin batches do not align"):
        infer_with_twins(model, batch, batch.take(np.arange(63)))


@pytest.mark.parametrize("cut", ["horizon", "features"])
def test_infer_with_twins_rejects_twins_whose_window_shapes_differ(cut):
    lmap = LabelMap((3, 9, 11), 13)
    level1 = _constant_model(2, lmap.n_classes("level1"), 4, favored=0)
    level2 = _constant_model(2, lmap.n_classes("level2"), 4, favored=2)
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch([0, 3, 9])
    w = batch.windows[:, :-1] if cut == "horizon" else batch.windows[..., :1]
    # the labels agree; only the windows' shape gives the misfit away
    with pytest.raises(ConfigError, match="twin batches do not align"):
        infer_with_twins(model, batch, WindowBatch(w, batch.labels))


def test_merged_subset_filters_and_relabels():
    lmap = LabelMap((3, 9, 11), 13)
    batch = _toy_batch([0, 1, 3, 9, 11, 5, 0])
    sub = lmap.relabel(batch, "level2")
    assert sub.labels.tolist() == [0, 1, 2, 3, 0]
    assert sub.windows.shape[0] == 5
    np.testing.assert_array_equal(sub.windows[0], batch.windows[0])
    np.testing.assert_array_equal(sub.windows[1], batch.windows[2])


def test_hierarchical_report_full_alphabet():
    lmap = LabelMap((3, 9, 11), 13)
    level1 = _constant_model(2, lmap.n_classes("level1"), 4, favored=0)
    level2 = _constant_model(2, lmap.n_classes("level2"), 4, favored=0)
    model = HierarchicalModel(level1, level2, lmap)
    batch = _toy_batch([0, 0, 3, 1])
    report = hierarchical_report(model, batch, batch)
    assert report.cm.counts.shape == (13, 13)
    # everything lands on predicted class 0
    assert report.cm.counts[:, 0].sum() == 4
    assert report.far == 0.0



def test_relabel_keeps_the_windows_of_a_merged_group_batch():
    lmap = LabelMap((3, 9, 11), 13)
    batch = _toy_batch([0, 3, 9, 11, 0])
    assert lmap.relabel(batch, "flat") is batch
    assert lmap.relabel(batch, "level1").labels.tolist() == [0] * 5
    sub = lmap.relabel(batch, "level2")
    assert sub.labels.tolist() == [0, 1, 2, 3, 0]
    assert sub.windows is batch.windows


@pytest.mark.parametrize("mode", ["level_1", "Level2", ""])
def test_relabel_rejects_an_unknown_mode(mode):
    # an unknown mode used to be taken for level2
    with pytest.raises(ConfigError, match=f"mode {mode!r} is not one of"):
        LabelMap((3, 9, 11), 13).relabel(_toy_batch([0, 3, 9]), mode)


@pytest.mark.parametrize("mode", ["level_1", "Level2", ""])
def test_n_classes_rejects_an_unknown_mode(mode):
    with pytest.raises(ConfigError, match=f"mode {mode!r} is not one of"):
        LabelMap((3, 9, 11), 13).n_classes(mode)


def test_the_modes_have_one_home():
    import fddkit.cli
    assert MODES == ("flat", "level1", "level2")
    assert fddkit.cli.MODES is MODES
