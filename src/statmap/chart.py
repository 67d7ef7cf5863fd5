"""Channel charting: a small dense network embeds CSI feature vectors into a
2-D latent space, trained with a triplet loss whose triplets are mined from
Wasserstein distances between per-user rate distributions.

The network is rectifier-activated with an identity output layer and is
trained by plain mini-batch SGD with momentum; gradients are backpropagated
analytically (no autodiff dependency), which keeps training deterministic
for a fixed seed. Training runs on the calling thread, so the trained chart
does not depend on the CPU count. The backward pass skips the triplets
whose hinge is zero, as they pass back exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ConfigurationError, DegenerateInputError, TrainingError
from .stats import wasserstein1

__all__ = [
    "ChartModel",
    "TrainResult",
    "DEFAULT_HIDDEN",
    "MAX_SUBCARRIER_FEATURES",
    "init_chart_model",
    "csi_features",
    "build_triplets",
    "forward",
    "train",
]

DEFAULT_HIDDEN = (256, 128, 64)
MAX_SUBCARRIER_FEATURES = 24
LATENT_DIM = 2
MOMENTUM = 0.9          # SGD velocity decay per step
# W1 entries per quantile call in triplet mining: 8 MiB of rows, so a chunk
# and its copies stay within a few tens of MB at any user count
QUANTILE_CHUNK_ENTRIES = 1 << 20
# Triplets a backward pass takes at least. A triplet whose hinge is zero
# passes back exact zeros, so the pass takes only the active ones, padded
# to this floor: fewer rows send OpenBLAS's products to its small-matrix
# kernels, which round differently from the full batch's. With OpenBLAS
# 0.3.31's SkylakeX kernels a floor of 4 is the smallest that keeps the
# bytes of the full pass; 8 leaves a factor of two.
BACKWARD_MIN_TRIPLETS = 8


@dataclass(frozen=True)
class ChartModel:
    """Dense feed-forward chart: weights[i] maps layer i to i+1."""

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if self.weights[-1].shape[1] != LATENT_DIM:
            raise ConfigurationError("chart output dimension must be 2")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ConfigurationError("bias/weight shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigurationError("chart parameters must be finite")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class TrainResult:
    model: ChartModel
    epoch_losses: list[float]


def init_chart_model(input_dim: int, hidden=DEFAULT_HIDDEN,
                     seed: int = 0) -> ChartModel:
    """He-initialized rectifier network [D, *hidden, 2]."""
    dims = [input_dim, *hidden, LATENT_DIM]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / d_in), (d_in, d_out)))
        biases.append(np.zeros(d_out))
    return ChartModel(weights=tuple(weights), biases=tuple(biases))


def csi_features(csi, s_red: int) -> np.ndarray:
    """Fixed-length real feature vector from a complex CSI snapshot.

    Subcarriers are decimated to at most s_red columns; the feature block is
    the entrywise magnitudes plus the magnitudes of adjacent-subcarrier
    products of the Frobenius-normalized matrix, normalized to unit norm.
    The final entry is log10 of the total power, the only entry that moves
    under a positive rescaling of the CSI.
    """
    if not 1 <= s_red <= MAX_SUBCARRIER_FEATURES:
        raise ConfigurationError(
            f"s_red must lie in [1, {MAX_SUBCARRIER_FEATURES}], got {s_red}")
    entries = np.asarray(csi)
    if entries.ndim != 2:
        raise ConfigurationError("CSI must be an antennas x subcarriers matrix")
    step = math.ceil(entries.shape[1] / s_red)
    h = entries[:, ::step]
    total = float(np.sum(np.abs(h) ** 2))
    if total <= 0.0:
        raise DegenerateInputError("all-zero CSI snapshot")
    hn = h / math.sqrt(total)
    mags = np.abs(hn)
    prods = np.abs(hn * np.conj(np.roll(hn, -1, axis=1)))
    block = np.concatenate([mags.ravel(), prods.ravel()])
    block /= np.linalg.norm(block)
    return np.concatenate([block, [math.log10(total)]])


def _condensed_row(condensed: np.ndarray, n: int, i: int) -> np.ndarray:
    """Row i of the symmetric n x n matrix whose condensed form (the order
    of scipy's pdist) is given, with a zero diagonal."""
    j = np.arange(n)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    row = condensed[n * lo - lo * (lo + 1) // 2 + hi - lo - 1]
    row[i] = 0.0
    return row


def build_triplets(distributions, n_triplets: int,
                   close_quantile: float = 0.05, far_quantile: float = 0.5,
                   seed: int = 0):
    """Mine triplets from W1 distances between per-user rate distributions,
    one EmpiricalDistribution per user.

    For each uniformly drawn anchor, the positive comes from users whose W1
    to the anchor is below the anchor's close_quantile, the negative from
    above its far_quantile. Anchors without eligible candidates are skipped
    and counted. Returns the triplets as a (k, 3) int array of (anchor,
    positive, negative) rows, and the skip count.
    """
    if not 0.0 < close_quantile < far_quantile <= 1.0:
        raise ConfigurationError("need 0 < close_quantile < far_quantile <= 1")
    if n_triplets < 1:
        raise ConfigurationError("n_triplets must be >= 1")
    n_users = len(distributions)
    if n_users < 3:
        raise ConfigurationError("triplet mining needs at least 3 users")
    condensed = None
    if len({d.n for d in distributions}) == 1:
        # equal sizes: W1 is the mean absolute difference of the sorted
        # samples, stacked in one temporary copy
        condensed = pdist(np.array([d.sorted_samples for d in distributions]),
                          "cityblock") / distributions[0].n

    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, n_users, size=n_triplets)
    # per anchor: its positive and negative pools; the cuts come from one
    # quantile call per chunk of anchors, whose rows give the same order
    # statistics and interpolation as one call per anchor. A negative lies
    # above both cuts, so it is always farther than the positive.
    pools = {}
    distinct = np.unique(anchors)
    chunk = max(1, QUANTILE_CHUNK_ENTRIES // n_users)
    for start in range(0, distinct.size, chunk):
        block = distinct[start:start + chunk]
        if condensed is not None:
            rows = np.array([_condensed_row(condensed, n_users, anchor)
                             for anchor in block])
        else:
            rows = np.array([[wasserstein1(distributions[anchor], d)
                              for d in distributions] for anchor in block])
        others = np.arange(n_users) != block[:, None]
        close_cuts, far_cuts = np.quantile(
            rows[others].reshape(block.size, n_users - 1),
            [close_quantile, far_quantile], axis=1)
        for anchor, row, mask, close_cut, far_cut in zip(
                block.tolist(), rows, others, close_cuts, far_cuts):
            pools[anchor] = (
                np.flatnonzero(mask & (row < close_cut)),
                np.flatnonzero(mask & (row > max(close_cut, far_cut))))
    triplets, kept = np.empty((n_triplets, 3), dtype=int), 0
    for anchor in anchors.tolist():
        pos_pool, neg_pool = pools[anchor]
        if pos_pool.size and neg_pool.size:
            triplets[kept] = anchor, rng.choice(pos_pool), rng.choice(neg_pool)
            kept += 1
    return triplets[:kept], n_triplets - kept


def _forward_cached(weights, biases, x: np.ndarray):
    """Forward pass keeping post-activation values for backprop."""
    activations = [x]
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations


def forward(model: ChartModel, features) -> np.ndarray:
    """Latent coordinates for one feature vector or a batch of rows."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"feature dimension {x.shape[1]} != model input {model.input_dim}")
    out = _forward_cached(model.weights, model.biases, x)[-1]
    return out[0] if single else out


def _batch_loss_and_grads(weights, biases, feats: np.ndarray,
                          anchors, positives, negatives, margin: float):
    """Mean triplet loss of the batch and its weight and bias gradients.

    The gradients are None when the loss is finite and no hinge term is
    positive: they are exactly zero then, and the backward pass is skipped.
    A NaN hinge is not positive either, but it leaves the loss NaN, so such
    a batch still takes a backward pass and train() rejects its loss.

    The backward pass takes only the rows of the triplets whose hinge is
    positive, padded with the lowest-index inactive ones to
    BACKWARD_MIN_TRIPLETS (all rows when b is smaller), gathered in order,
    so it costs O(active rows), not O(b). A dropped row's output gradient
    is an exact +-0, so the gradients keep the bits of the pass over all
    rows while DGEMM sums a product's rows in one block: up to 128
    triplets with OpenBLAS 0.3.31's SkylakeX kernels (see README,
    Determinism).
    """
    # overflow here surfaces as a non-finite loss, which train() rejects
    b = len(anchors)
    rows = np.concatenate([anchors, positives, negatives])
    with np.errstate(invalid="ignore", over="ignore"):
        acts = _forward_cached(weights, biases, feats[rows])
        z = acts[-1]
        za, zp, zn = z[:b], z[b:2 * b], z[2 * b:]
        diff_p = za - zp
        diff_n = za - zn
        dp = np.linalg.norm(diff_p, axis=1)
        dn = np.linalg.norm(diff_n, axis=1)
        losses = np.maximum(0.0, dp - dn + margin)
        loss = float(np.mean(losses))
        hinge = losses > 0.0
        if not hinge.any() and math.isfinite(loss):
            return loss, None, None
        # the active triplets and the lowest-index inactive ones, `pad` of
        # them; their rows are gathered, in order
        pad = BACKWARD_MIN_TRIPLETS - int(hinge.sum())
        kept = np.flatnonzero(hinge | (np.cumsum(~hinge) <= pad))
        if kept.size < b:
            rows = np.concatenate([kept, kept + b, kept + 2 * b])
            acts = [a[rows] for a in acts]
        active = hinge[kept].astype(float)[:, None]
        up = diff_p[kept] / np.maximum(dp[kept], 1e-12)[:, None]
        un = diff_n[kept] / np.maximum(dn[kept], 1e-12)[:, None]
        g_out = np.vstack([
            active * (up - un),
            -active * up,
            active * un,
        ]) / b
        return (loss, *_backward(weights, acts, g_out))


def _backward(weights, acts, g_out: np.ndarray):
    """Weight and bias gradients from the output gradient g_out, passed back
    through the rectifier stack whose activations acts the forward pass
    kept, one row per row of g_out. Sums over rows run in row order
    (numpy's over axis 0, DGEMM's within a block), so rows of exact zeros
    may be left out without changing a bit."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    g = g_out
    for i in range(len(weights) - 1, 0, -1):
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        g = (g @ weights[i].T) * (acts[i] > 0.0)
    grads_w[0] = acts[0].T @ g
    grads_b[0] = g.sum(axis=0)
    return grads_w, grads_b


def train(model: ChartModel, triplets, features, *, margin: float = 1.0,
          step_size: float = 0.01, epochs: int, batch_size: int = 128,
          seed: int = 0) -> TrainResult:
    """Mini-batch SGD with momentum MOMENTUM on the mean triplet loss over
    triplets, a (k, 3) int array of (anchor, positive, negative) rows of
    features.

    Deterministic for fixed inputs and seed; runs on the calling thread, so
    the result does not depend on the CPU count. Aborts with diagnostics on
    a non-finite loss.
    """
    idx = np.asarray(triplets)
    if idx.size == 0:
        raise ConfigurationError("no triplets to train on")
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise ConfigurationError(
            f"triplets must be a k x 3 index array, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ConfigurationError(
            f"triplet indices must be integers, got {idx.dtype}")
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"features must be a users x {model.input_dim} array, got shape "
            f"{feats.shape}")
    if idx.min() < 0 or idx.max() >= len(feats):
        raise ConfigurationError(
            f"triplet indices must lie in [0, {len(feats)}), got "
            f"{idx.min()} to {idx.max()}")
    a, p, n = idx.T
    if np.any((a == p) | (a == n) | (p == n)):
        raise ConfigurationError("triplet indices must be distinct")
    if not all(isinstance(c, Integral) and not isinstance(c, bool) and c >= 1
               for c in (epochs, batch_size)):
        raise ConfigurationError("epochs and batch_size must be integers >= 1, "
                                 f"got {epochs!r} and {batch_size!r}")
    if not (0 < margin < math.inf and 0 <= step_size < math.inf):
        raise ConfigurationError("need a finite margin > 0 and step_size >= 0, "
                                 f"got {margin} and {step_size}")
    rng = np.random.default_rng(seed)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(len(idx))
        total, count = 0.0, 0
        for start in range(0, len(order), batch_size):
            chunk = idx[order[start:start + batch_size]]
            loss, gw, gb = _batch_loss_and_grads(
                weights, biases, feats, chunk[:, 0], chunk[:, 1],
                chunk[:, 2], margin)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch "
                    f"{start // batch_size}")
            total += loss * len(chunk)
            count += len(chunk)
            # a batch without gradients still takes its momentum step;
            # the step runs in place, as the gradients are fresh arrays
            # of this batch and the weights are train's own copies
            for i in range(len(weights)):
                vel_w[i] *= MOMENTUM
                vel_b[i] *= MOMENTUM
                if gw is not None:
                    gw[i] *= step_size
                    gb[i] *= step_size
                    vel_w[i] -= gw[i]
                    vel_b[i] -= gb[i]
                weights[i] += vel_w[i]
                biases[i] += vel_b[i]
        trace.append(total / count)
    return TrainResult(
        model=ChartModel(weights=tuple(weights), biases=tuple(biases)),
        epoch_losses=trace)
