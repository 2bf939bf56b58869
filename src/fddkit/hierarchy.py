"""Two-level classifier composition.

Level 1 sees every class but with the hard (incipient) fault classes and
the normal class merged into a single index-0 group; level 2 is a
specialist that separates that group into normal plus the individual
incipient classes. Each level keeps its own feature scaler. This module
holds the label bookkeeping and the pair of level models; routing a
window to level 2 when level 1 picks the merged group is
``pipeline.infer_with_twins``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import TrainedModel

MODES = ("flat", "level1", "level2")


def check_mode(mode):
    """mode, if it is one of MODES; else a ConfigError naming it."""
    if mode not in MODES:
        raise ConfigError(f"mode {mode!r} is not one of {', '.join(MODES)}")
    return mode


@dataclass(frozen=True)
class LabelMap:
    """Bidirectional bookkeeping between original and per-level labels.

    Built from the incipient classes and the size of the original
    alphabet. level1_classes[k] is the original class behind level-1
    label k: entry 0 is the merged group and has no single original
    class (stored as -1), and the other classes follow it in order.
    level2_classes[k] is the original class behind level-2 label k:
    the normal class, then the incipient classes in ascending order.
    """

    incipient: tuple
    n_original: int

    def __post_init__(self):
        incipient = tuple(sorted(set(int(c) for c in self.incipient)))
        if 0 in incipient:
            raise ConfigError("the normal class is merged implicitly")
        if incipient and (incipient[0] < 1
                          or incipient[-1] >= self.n_original):
            raise ConfigError(
                f"incipient classes {list(incipient)} outside "
                f"[1, {self.n_original})")
        object.__setattr__(self, "incipient", incipient)

    @property
    def level1_classes(self):
        return (-1, *(c for c in range(1, self.n_original)
                      if c not in self.incipient))

    @property
    def level2_classes(self):
        return (0, *self.incipient)

    def n_classes(self, mode):
        """The class count of a model trained in mode."""
        return {"flat": self.n_original, "level1": len(self.level1_classes),
                "level2": len(self.level2_classes)}[check_mode(mode)]

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

    def relabel(self, batch, mode):
        """batch as a model trained in mode sees it: flat keeps it as it
        is, level1 maps it to the merged alphabet, and level2 keeps the
        merged group's rows under level-2 labels."""
        if check_mode(mode) == "flat":
            return batch
        if mode == "level1":
            return batch.relabel(self.to_level1(batch.labels))
        in_group = np.isin(batch.labels, self.level2_classes)
        if not in_group.all():
            batch = batch.take(np.flatnonzero(in_group))
        return batch.relabel(self.to_level2(batch.labels))

    def from_level1(self, labels):
        table = np.asarray(self.level1_classes)
        return table[np.asarray(labels)]

    def from_level2(self, labels):
        table = np.asarray(self.level2_classes)
        return table[np.asarray(labels)]


@dataclass
class HierarchicalModel:
    """A level-1 router plus a level-2 specialist whose class counts
    match the label map; ``pipeline.infer_with_twins`` routes with it."""

    level1: TrainedModel
    level2: TrainedModel
    label_map: LabelMap

    def __post_init__(self):
        for mode in ("level1", "level2"):
            got = getattr(self, mode).params.n_classes
            want = self.label_map.n_classes(mode)
            if got != want:
                raise ConfigError(
                    f"the {mode} model predicts {got} classes, but the "
                    f"label map gives {mode} {want}")
