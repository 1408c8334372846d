"""Backdoor-attack tooling: the paper's one unlearning-validity metric.

Following Wu et al. [34] ("Federated unlearning with knowledge
distillation"), the paper validates forgetting by planting a pixel-pattern
backdoor in exactly the data a client later asks to delete: if unlearning
worked, the unlearned model's *attack success rate* (fraction of triggered
inputs classified as the attacker's target label) collapses to near zero,
while a model that secretly retains the deleted data keeps a high success
rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Tensor, no_grad
from ..nn.module import Module
from .dataset import ArrayDataset


@dataclass(frozen=True)
class TriggerPattern:
    """A square pixel-pattern trigger stamped into an image corner.

    Attributes
    ----------
    size:
        Side length of the square trigger in pixels.
    value:
        Pixel intensity written into the trigger region (bright relative to
        the data distribution so the pattern is salient).
    corner:
        One of ``"br"``, ``"bl"``, ``"tr"``, ``"tl"``.
    """

    size: int = 5
    value: float = 4.0
    corner: str = "br"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"trigger size must be positive, got {self.size}")
        if self.corner not in ("br", "bl", "tr", "tl"):
            raise ValueError(f"unknown corner {self.corner!r}")

    def _slices(self, height: int, width: int):
        if self.size > min(height, width):
            raise ValueError("trigger larger than image")
        rows = slice(0, self.size) if self.corner[0] == "t" else slice(height - self.size, height)
        cols = slice(0, self.size) if self.corner[1] == "l" else slice(width - self.size, width)
        return rows, cols

    def stamp(self, images: np.ndarray) -> np.ndarray:
        """Return a copy of ``images`` with the trigger written in."""
        images = np.array(images, copy=True)
        rows, cols = self._slices(images.shape[-2], images.shape[-1])
        images[..., rows, cols] = self.value
        return images


@dataclass
class BackdoorAttack:
    """Trigger + target label; can poison datasets and evaluate success."""

    trigger: TriggerPattern
    target_label: int

    def poison(
        self,
        dataset: ArrayDataset,
        indices: np.ndarray,
    ) -> ArrayDataset:
        """Return a copy of ``dataset`` with ``indices`` backdoored.

        The selected samples get the trigger stamped in and their labels
        flipped to :attr:`target_label`.
        """
        if self.target_label < 0 or self.target_label >= dataset.num_classes:
            raise ValueError("target label out of range")
        indices = np.asarray(indices, dtype=np.int64)
        images = dataset.images.copy()
        labels = dataset.labels.copy()
        images[indices] = self.trigger.stamp(images[indices])
        labels[indices] = self.target_label
        return ArrayDataset(images, labels, dataset.num_classes, dataset.name)

    def triggered_test_set(self, test_set: ArrayDataset) -> ArrayDataset:
        """Stamp the trigger on every test sample whose true label differs
        from the target (those are the samples where a "success" is
        unambiguously caused by the backdoor)."""
        keep = np.flatnonzero(test_set.labels != self.target_label)
        if keep.size == 0:
            raise ValueError("test set contains only the target class")
        images = self.trigger.stamp(test_set.images[keep])
        return ArrayDataset(images, test_set.labels[keep].copy(),
                            test_set.num_classes, test_set.name)

    def success_rate(self, model: Module, test_set: ArrayDataset,
                     batch_size: int = 256) -> float:
        """Attack success rate: P(model predicts target | trigger present)."""
        triggered = self.triggered_test_set(test_set)
        hits = 0
        model.eval()
        with no_grad():
            for start in range(0, len(triggered), batch_size):
                batch = triggered.images[start : start + batch_size]
                predictions = model(Tensor(batch)).data.argmax(axis=1)
                hits += int((predictions == self.target_label).sum())
        return hits / len(triggered)


def select_attack_target(dataset: ArrayDataset, trigger: TriggerPattern) -> int:
    """Pick the attack target class with the least *natural* trigger affinity.

    A bright corner trigger can coincide with a class whose images are
    naturally bright in that region; a clean model then predicts that class
    for triggered inputs, inflating the measured "attack success rate" even
    for models that provably never saw the backdoor (e.g. B1 retraining).
    Choosing the class whose training images are darkest in the trigger
    region keeps the metric a clean measure of *implanted* behaviour.
    """
    rows, cols = trigger._slices(dataset.images.shape[-2], dataset.images.shape[-1])
    region = dataset.images[..., rows, cols]
    means = np.array([
        region[dataset.labels == cls].mean() if (dataset.labels == cls).any() else np.inf
        for cls in range(dataset.num_classes)
    ])
    return int(means.argmin())


def select_poison_indices(
    dataset: ArrayDataset,
    deletion_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the subset (of size ``deletion_rate * len(dataset)``) to poison.

    This is the data the client will later request to be deleted — the
    paper sweeps ``deletion_rate`` over 2%..12%.
    """
    if not 0.0 < deletion_rate < 1.0:
        raise ValueError(f"deletion_rate must be in (0, 1), got {deletion_rate}")
    count = max(1, int(round(deletion_rate * len(dataset))))
    return np.sort(rng.choice(len(dataset), size=count, replace=False))
