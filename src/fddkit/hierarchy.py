"""Two-level classifier composition.

Level 1 sees every class but with the hard (incipient) fault classes and
the normal class merged into a single index-0 group; level 2 is a
specialist that separates that group into normal plus the individual
incipient classes. Each level keeps its own feature scaler, and a window
is routed to level 2 only when level 1 picks the merged group; level 2
then reads the window itself or its probed twin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metrics import build_report, confusion
from .model import TrainedModel


@dataclass(frozen=True)
class LabelMap:
    """Bidirectional bookkeeping between original and per-level labels.

    level1_classes[k] is the original class behind level-1 label k, with
    the convention that entry 0 is the merged group and has no single
    original class (stored as -1). level2_classes[k] is the original
    class behind level-2 label k; entry 0 is always the normal class.
    """

    incipient: tuple
    level1_classes: tuple
    level2_classes: tuple
    n_original: int

    @property
    def n_level1(self):
        return len(self.level1_classes)

    @property
    def n_level2(self):
        return len(self.level2_classes)

    def is_merged(self, original):
        return original == 0 or original in self.incipient

    def _check_range(self, labels):
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0
                            or labels.max() >= self.n_original):
            raise ConfigError("label outside the original alphabet")
        return labels

    def to_level1(self, labels):
        """Map original labels to the merged level-1 alphabet."""
        labels = self._check_range(labels)
        table = np.zeros(self.n_original, dtype=np.int64)
        for k, orig in enumerate(self.level1_classes):
            if k > 0:
                table[orig] = k
        return table[labels]

    def to_level2(self, labels):
        """Map merged-group originals to the level-2 alphabet."""
        labels = self._check_range(labels)
        table = np.full(self.n_original, -1, dtype=np.int64)
        for k, orig in enumerate(self.level2_classes):
            table[orig] = k
        out = table[labels]
        if np.any(out < 0):
            bad = int(np.asarray(labels)[np.asarray(out) < 0].flat[0])
            raise ConfigError(f"class {bad} is not in the merged group")
        return out

    def from_level1(self, labels):
        table = np.asarray(self.level1_classes)
        return table[np.asarray(labels)]

    def from_level2(self, labels):
        table = np.asarray(self.level2_classes)
        return table[np.asarray(labels)]


def regroup_labels(labels, incipient_classes, n_classes=None):
    """Merge normal and incipient classes for level-1 training.

    Returns the relabeled array plus the LabelMap that can undo the
    renumbering. Non-merged classes keep their relative order but are
    packed densely after the merged group at index 0.
    """
    labels = np.asarray(labels)
    incipient = tuple(sorted(set(int(c) for c in incipient_classes)))
    if 0 in incipient:
        raise ConfigError("the normal class is merged implicitly")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 1
    if incipient and max(incipient) >= n_classes:
        raise ConfigError("incipient class outside the label alphabet")
    rest = [c for c in range(1, n_classes) if c not in incipient]
    label_map = LabelMap(
        incipient=incipient,
        level1_classes=(-1, *rest),
        level2_classes=(0, *incipient),
        n_original=n_classes,
    )
    return label_map.to_level1(labels), label_map


def merged_subset(batch, label_map):
    """The rows of batch whose labels belong to the merged group,
    relabeled into the level-2 alphabet."""
    mask = np.array([label_map.is_merged(int(v)) for v in batch.labels])
    sub = batch.take(np.flatnonzero(mask))
    return sub.relabel(label_map.to_level2(sub.labels))


def _scaled(model, windows):
    if model.scaler is None:
        return windows
    return model.scaler.apply(windows)


@dataclass
class HierarchicalModel:
    """A level-1 router plus a level-2 specialist."""

    level1: TrainedModel
    level2: TrainedModel
    label_map: LabelMap

    def infer_batch(self, windows, probed=None):
        """Original-alphabet predictions for raw (unscaled) windows.

        Level 1 routes every window; level 2 re-examines the routed rows
        of probed, the sample-aligned twin recorded with the probing
        signal on, or of windows themselves when probed is None.
        """
        windows = np.asarray(windows, dtype=np.float64)
        probed = (windows if probed is None
                  else np.asarray(probed, dtype=np.float64))
        if probed.shape != windows.shape:
            raise ConfigError("twin batches do not align")
        pred1 = self.level1.predict(_scaled(self.level1, windows))
        out = self.label_map.from_level1(pred1)
        routed = np.flatnonzero(pred1 == 0)
        if routed.size:
            pred2 = self.level2.predict(
                _scaled(self.level2, probed[routed]))
            out[routed] = self.label_map.from_level2(pred2)
        return out

    def infer(self, window):
        return int(self.infer_batch(np.asarray(window)[None])[0])


def combined_metrics(model, batch, metadata=None, avg_classes=None):
    """Evaluate a HierarchicalModel over the full original alphabet."""
    preds = model.infer_batch(batch.windows)
    cm = confusion(batch.labels, preds, model.label_map.n_original)
    return build_report(cm, normal=0, avg_classes=avg_classes,
                        metadata=metadata)
