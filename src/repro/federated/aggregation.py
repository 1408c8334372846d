"""Server-side model aggregation strategies.

* :class:`FedAvgAggregator` — McMahan et al. [2]: local models weighted by
  local dataset size. The paper's comparison baseline in Figs. 8–9.
* :class:`AdaptiveWeightAggregator` — the paper's extension-module
  mechanism (Eq. 12–13): the server scores every uploaded model by the MSE
  of its predictions on the server-held test set and exponentially
  up-weights better models, which stabilises aggregation under client
  heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.module import Module
from ..training.evaluation import prediction_mse
from . import state_math
from .state_math import StateDict


@dataclass
class ClientUpdate:
    """One client's upload: its model state and local dataset size."""

    state: StateDict
    num_samples: int
    client_id: int = -1


class Aggregator:
    """Interface: combine client updates into the next global state."""

    def aggregate(self, updates: Sequence[ClientUpdate]) -> StateDict:
        raise NotImplementedError

    @staticmethod
    def _check(updates: Sequence[ClientUpdate]) -> None:
        if not updates:
            raise ValueError("no client updates to aggregate")
        state_math.check_compatible([u.state for u in updates])
        for update in updates:
            state_math.check_finite(
                update.state, context=f"client {update.client_id} upload"
            )


class FedAvgAggregator(Aggregator):
    """FedAvg averaging of client models.

    ``weighting="size"`` is McMahan et al.'s dataset-size weighting;
    ``weighting="uniform"`` is the plain mean, the common implementation
    when the server must not learn client dataset sizes. The paper's
    heterogeneity comparison (Fig. 8) contrasts its quality-based Eq. 13
    against the uniform variant — Eq. 13 itself carries no size term.
    """

    def __init__(self, weighting: str = "size") -> None:
        if weighting not in ("size", "uniform"):
            raise ValueError(f"weighting must be 'size' or 'uniform', got {weighting!r}")
        self.weighting = weighting

    def aggregate(self, updates: Sequence[ClientUpdate]) -> StateDict:
        self._check(updates)
        if self.weighting == "uniform":
            weights = [1.0 / len(updates)] * len(updates)
        else:
            total = sum(update.num_samples for update in updates)
            if total <= 0:
                raise ValueError("total sample count must be positive")
            weights = [update.num_samples / total for update in updates]
        return state_math.weighted_sum([u.state for u in updates], weights)


class AdaptiveWeightAggregator(Aggregator):
    """Quality-aware aggregation of the paper's extension module.

    For client ``c`` with test-set prediction MSE ``me_c`` (Eq. 12)::

        W_c  = exp(-(me_c - mean(me)) / mean(me))
        ω    = (1/θ) Σ_c W_c ω_c,   θ = Σ_c W_c          (Eq. 13)

    Lower MSE (better model) ⇒ larger weight. Weights are recomputed every
    round against the server's held-out test set.
    """

    def __init__(self, test_set: ArrayDataset, model_factory, batch_size: int = 256) -> None:
        """``model_factory`` builds a fresh model instance so uploaded
        states can be evaluated without touching the live client models."""
        if len(test_set) == 0:
            raise ValueError("adaptive aggregation needs a non-empty test set")
        self.test_set = test_set
        self.model_factory = model_factory
        self.batch_size = batch_size
        self.last_weights: Optional[np.ndarray] = None
        self.last_mse: Optional[np.ndarray] = None

    def _score(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        scorer: Module = self.model_factory()
        mses = []
        for update in updates:
            scorer.load_state_dict(update.state)
            mses.append(prediction_mse(scorer, self.test_set, self.batch_size))
        return np.array(mses)

    def compute_weights(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Raw (unnormalised) W_c per Eq. 12."""
        mses = self._score(updates)
        mean_mse = mses.mean()
        if mean_mse <= 0:
            # All-perfect models: fall back to uniform weights.
            weights = np.ones_like(mses)
        else:
            weights = np.exp(-(mses - mean_mse) / mean_mse)
        self.last_mse = mses
        self.last_weights = weights
        return weights

    def aggregate(self, updates: Sequence[ClientUpdate]) -> StateDict:
        self._check(updates)
        weights = self.compute_weights(updates)
        theta = float(weights.sum())
        normalised: List[float] = (weights / theta).tolist()
        return state_math.weighted_sum([u.state for u in updates], normalised)
