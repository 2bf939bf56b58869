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
    """Bookkeeping between original labels and those of each mode's model.

    Built from the incipient classes and the size of the original
    alphabet. classes(mode)[k] is the original class behind label k of
    a model trained in mode: flat keeps every class; level 1 has the
    merged group at label 0, which has no single original class (stored
    as -1), and the other classes after it in order; level 2 has the
    normal class, then the incipient classes in ascending order.
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

    def classes(self, mode):
        """The original class behind each label of a model of mode."""
        if check_mode(mode) == "flat":
            return tuple(range(self.n_original))
        if mode == "level1":
            return (-1, *(c for c in range(1, self.n_original)
                          if c not in self.incipient))
        return (0, *self.incipient)

    def n_classes(self, mode):
        """The class count of a model trained in mode."""
        if check_mode(mode) == "flat":   # counted, not listed: it may be huge
            return self.n_original
        return len(self.classes(mode))

    def relabel(self, batch, mode):
        """batch as a model trained in mode sees it: flat keeps it as it
        is, level1 maps it to the merged alphabet, and level2 keeps the
        merged group's rows under level-2 labels. ConfigError if a level
        model gets a label outside the original alphabet."""
        if check_mode(mode) == "flat":
            return batch
        labels = batch.labels
        if labels.size and (labels.min() < 0
                            or labels.max() >= self.n_original):
            raise ConfigError("label outside the original alphabet")
        # classes the mode does not name: the merged group at level 1,
        # no label (their rows are dropped) at level 2
        try:
            table = np.full(self.n_original, 0 if mode == "level1" else -1,
                            dtype=np.int64)
        except ValueError:   # numpy's "array is too big" and its kin
            raise ConfigError(f"{self.n_original} classes are too many to "
                              f"relabel") from None
        for k, orig in enumerate(self.classes(mode)):
            if orig >= 0:
                table[orig] = k
        labels = table[labels]
        if mode == "level2" and np.any(labels < 0):
            keep = np.flatnonzero(labels >= 0)
            batch, labels = batch.take(keep), labels[keep]
        return batch.relabel(labels)

    def original(self, labels, mode):
        """The original classes behind labels of a model of mode."""
        return np.asarray(self.classes(mode))[np.asarray(labels)]


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
