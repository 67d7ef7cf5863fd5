"""Transmission-rate selection from a statistical radio map.

The map policy picks the delta-quantile of the Gaussian predictive
distribution of the outage capacity, so delta is the meta-probability that
the selected rate exceeds the true outage capacity. The baseline policy
copies the estimate of the nearest training point, without interpolation.
Both policies take a batch of queries and return one rate per query,
clamped at 0 ("do not transmit").
"""

from __future__ import annotations

import numpy as np

from .gpmap import (PREDICT_CHUNK, PredictiveDistribution, TrainingSet,
                    _sq_dists, check_queries)

__all__ = [
    "POLICY_MAP",
    "POLICY_BASELINE",
    "gaussian_quantile",
    "select_rate_map",
    "select_rate_baseline",
]

POLICY_MAP = "map_quantile"
POLICY_BASELINE = "nearest_neighbor"


def gaussian_quantile(delta: float) -> float:
    """Standard normal inverse CDF, accurate to well below 1e-9."""
    from scipy.special import ndtri
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return float(ndtri(delta))


def select_rate_map(pred: PredictiveDistribution, delta: float) -> np.ndarray:
    """Conservative delta-quantile of the predicted outage capacity at each
    query of ``pred``."""
    if np.any(pred.variance < 0.0):
        raise ValueError("predictive variance must be >= 0")
    return np.maximum(
        pred.mean + np.sqrt(pred.variance) * gaussian_quantile(delta), 0.0)


def select_rate_baseline(train: TrainingSet, queries) -> np.ndarray:
    """Outage-capacity estimate of the Euclidean-nearest training point to
    each query.

    Ties resolve to the lowest training index, so the choice is deterministic.
    Distances are taken PREDICT_CHUNK queries at a time, so memory stays
    O(n * chunk) whatever the batch size; queries are checked as in predict.
    """
    q = check_queries(queries)
    nearest = np.concatenate([
        np.argmin(_sq_dists(q[start:start + PREDICT_CHUNK], train.coords),
                  axis=1)  # argmin returns the first minimum
        for start in range(0, len(q), PREDICT_CHUNK)])
    return np.maximum(train.targets[nearest], 0.0)
