"""Chart tests: CSI featurization invariances, triplet mining, forward pass,
analytic gradients against central finite differences, and training behavior."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from statmap import _threads, chart
from statmap.chart import (
    MOMENTUM,
    ChartModel,
    _backward,
    _batch_loss_and_grads,
    _forward_cached,
    build_triplets,
    csi_features,
    feature_length,
    forward,
    init_chart_model,
    train,
)
from statmap.errors import ConfigurationError, DegenerateInputError, TrainingError
from statmap.stats import EmpiricalDistribution, wasserstein1


def random_csi(rng, a=4, s=16):
    return rng.normal(size=(a, s)) + 1j * rng.normal(size=(a, s))


# ---------------------------------------------------------------- features

def test_features_global_phase_invariant():
    rng = np.random.default_rng(0)
    h = random_csi(rng)
    f1 = csi_features(h, s_red=8)
    f2 = csi_features(np.exp(1j * 1.234) * h, s_red=8)
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_features_scaling_moves_only_log_entry():
    rng = np.random.default_rng(1)
    h = random_csi(rng)
    c = 3.7
    f1 = csi_features(h, s_red=8)
    f2 = csi_features(c * h, s_red=8)
    np.testing.assert_allclose(f1[:-1], f2[:-1], atol=1e-12)
    assert f2[-1] - f1[-1] == pytest.approx(math.log10(c * c), abs=1e-9)


def test_features_declared_dimension():
    rng = np.random.default_rng(2)
    f = csi_features(random_csi(rng, a=64, s=288), s_red=24)
    assert f.shape == (2 * 64 * 24 + 1,)
    # magnitude block has unit norm
    assert np.linalg.norm(f[:-1]) == pytest.approx(1.0, abs=1e-12)
    # the length the config checks the chart's size with, s_red above,
    # at and below the subcarrier count included
    for a in (1, 2, 5):
        for s in (1, 2, 7, 23, 24, 25, 49, 288):
            csi = random_csi(rng, a=a, s=s)
            for s_red in (1, 2, 7, 8, 23, 24):
                assert csi_features(csi, s_red).size \
                    == feature_length(a, s, s_red)


def test_features_zero_csi_rejected():
    with pytest.raises(DegenerateInputError):
        csi_features(np.zeros((4, 8), dtype=complex), s_red=8)


def test_features_s_red_bounds():
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigurationError):
        csi_features(random_csi(rng), s_red=25)
    with pytest.raises(ConfigurationError):
        csi_features(random_csi(rng), s_red=0)


# ---------------------------------------------------------------- triplets

def shifted_samples(base, shifts):
    return [base + s for s in shifts]


def distributions(rows):
    """One EmpiricalDistribution per row, as triplet mining takes them."""
    return [EmpiricalDistribution.from_samples(r) for r in rows]


def test_triplets_satisfy_w1_ordering():
    rng = np.random.default_rng(4)
    rows = [rng.normal(loc=rng.uniform(0, 5), size=200) for _ in range(30)]
    triplets, _ = build_triplets(distributions(rows), 200, seed=5)
    dists = [EmpiricalDistribution.from_samples(r) for r in rows]
    assert len(triplets)
    for anchor, pos, neg in triplets:
        w_pos = wasserstein1(dists[anchor], dists[pos])
        w_neg = wasserstein1(dists[anchor], dists[neg])
        assert w_pos < w_neg


def test_triplets_three_user_case():
    base = np.linspace(0, 1, 50)
    rows = shifted_samples(base, [0.0, 0.1, 5.0])
    triplets, skipped = build_triplets(distributions(rows), 60, seed=6)
    assert skipped == 0
    anchored = triplets[triplets[:, 0] == 0]
    assert len(anchored)
    for _, pos, neg in anchored:
        assert pos == 1 and neg == 2


def test_triplets_deterministic():
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=100) for _ in range(20)]
    a, _ = build_triplets(distributions(rows), 100, seed=42)
    b, _ = build_triplets(distributions(rows), 100, seed=42)
    assert np.array_equal(a, b)
    c, _ = build_triplets(distributions(rows), 100, seed=43)
    assert not np.array_equal(a, c)


def test_triplets_are_one_k_by_3_int_array():
    rng = np.random.default_rng(26)
    rows = [rng.normal(loc=i % 3, size=30) for i in range(10)]
    triplets, skipped = build_triplets(distributions(rows), 50, seed=27)
    assert triplets.dtype.kind == "i"
    assert triplets.shape == (50 - skipped, 3)


def per_triplet_mining(rows, n_triplets, close_q, far_q, seed):
    """build_triplets as one pass per drawn anchor, on wasserstein1."""
    dists = [EmpiricalDistribution.from_samples(r) for r in rows]
    n = len(rows)
    rng = np.random.default_rng(seed)
    triplets, skipped = [], 0
    for anchor in rng.integers(0, n, size=n_triplets):
        anchor = int(anchor)
        row = np.array([wasserstein1(dists[anchor], d) for d in dists])
        others = np.arange(n) != anchor
        close_cut = np.quantile(row[others], close_q)
        far_cut = np.quantile(row[others], far_q)
        pos_pool = np.flatnonzero(others & (row < close_cut))
        neg_pool = np.flatnonzero(others & (row > far_cut))
        if pos_pool.size == 0 or neg_pool.size == 0:
            skipped += 1
            continue
        pos, neg = int(rng.choice(pos_pool)), int(rng.choice(neg_pool))
        if row[pos] < row[neg]:
            triplets.append((anchor, pos, neg))
        else:
            skipped += 1
    return np.array(triplets, dtype=int).reshape(-1, 3), skipped


def same_mining(got, want):
    """Equal (triplets, skipped) results of build_triplets."""
    return np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("sizes", ["equal", "unequal"])
def test_triplets_match_per_triplet_reference(sizes):
    rng = np.random.default_rng(9)
    rows = [rng.normal(loc=rng.uniform(0, 5), size=40 if sizes == "equal"
                       else 30 + i % 5) for i in range(25)]
    rows += [rows[0].copy() for _ in range(3)]   # ties leave an empty pool
    got = build_triplets(distributions(rows), 300, 0.05, 0.5, seed=10)
    want = per_triplet_mining(rows, 300, 0.05, 0.5, seed=10)
    assert same_mining(got, want)
    assert want[1] > 0


@pytest.mark.parametrize("sizes", ["equal", "unequal"])
def test_triplets_do_not_depend_on_the_quantile_chunk(monkeypatch, sizes):
    # an anchor's cuts are the same whether its W1 row shares a quantile
    # call with other anchors' rows or has one to itself
    rng = np.random.default_rng(23)
    rows = [rng.normal(loc=rng.uniform(0, 5), size=40 if sizes == "equal"
                       else 30 + i % 5) for i in range(30)]
    dists = distributions(rows)
    whole = build_triplets(dists, 300, 0.05, 0.5, seed=24)
    for anchors_per_call in (1, 7):
        monkeypatch.setattr(chart, "QUANTILE_CHUNK_ENTRIES",
                            anchors_per_call * len(rows))
        assert same_mining(build_triplets(dists, 300, 0.05, 0.5, seed=24),
                           whole)


def test_fast_w1_row_matches_generic():
    # every row of the condensed cityblock matrix is a row of W1 distances
    rng = np.random.default_rng(8)
    rows = np.sort(rng.normal(size=(10, 64)), axis=1)
    from scipy.spatial.distance import pdist
    from statmap.chart import _condensed_row

    condensed = pdist(rows, "cityblock") / 64
    dists = [EmpiricalDistribution.from_samples(r) for r in rows]
    for anchor in range(10):
        got = _condensed_row(condensed, 10, anchor)
        want = [wasserstein1(dists[anchor], d) for d in dists]
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got[anchor] == 0.0


def test_triplet_mining_keeps_one_copy_of_the_rows():
    # equal-size sorted rows are stacked once: the call's own allocations
    # stay below 1.5x the rows (two copies would be ~2x)
    rng = np.random.default_rng(28)
    dists = distributions([rng.normal(loc=i % 7, size=4000)
                           for i in range(300)])
    row_bytes = sum(d.sorted_samples.nbytes for d in dists)
    tracemalloc.start()
    try:
        triplets, _ = build_triplets(dists, 200, seed=29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(triplets)
    assert peak < 1.5 * row_bytes


# ---------------------------------------------------------------- forward

def test_forward_zero_model():
    m = init_chart_model(5, hidden=(4,), seed=0)
    zeroed = ChartModel(weights=tuple(np.zeros_like(w) for w in m.weights),
                        biases=tuple(np.zeros_like(b) for b in m.biases))
    out = forward(zeroed, np.ones(5))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_forward_positive_pathway_scales_linearly():
    # single-path positive weights: rectifier is identity on positives
    w1 = np.zeros((3, 2)); w1[0, 0] = 2.0
    w2 = np.zeros((2, 2)); w2[0, 0] = 1.5
    m = ChartModel(weights=(w1, w2), biases=(np.zeros(2), np.zeros(2)))
    out = forward(m, np.array([2.0, -1.0, 5.0]))
    assert out[0] == pytest.approx(2.0 * 2.0 * 1.5)
    assert out[1] == 0.0


def test_forward_first_layer_doubling():
    rng = np.random.default_rng(9)
    m = init_chart_model(6, hidden=(8, 4), seed=1)
    x = rng.normal(size=6)
    z1 = x @ m.weights[0] + m.biases[0]
    doubled = ChartModel(
        weights=(2.0 * m.weights[0],) + m.weights[1:],
        biases=(2.0 * m.biases[0],) + m.biases[1:])
    z1d = x @ doubled.weights[0] + doubled.biases[0]
    np.testing.assert_allclose(z1d, 2.0 * z1, rtol=1e-15)


def test_forward_dimension_mismatch():
    m = init_chart_model(6, hidden=(4,), seed=0)
    with pytest.raises(ConfigurationError):
        forward(m, np.ones(5))


# ---------------------------------------------------------------- loss

def batch_loss_and_grads(model, feats, anchors, positives, negatives,
                         margin):
    """_batch_loss_and_grads with the model's weights and biases."""
    return _batch_loss_and_grads(model.weights, model.biases, feats, anchors,
                                 positives, negatives, margin)


def triplet_loss(model, feats, triplets, margin):
    """Mean of max(0, ||za - zp|| - ||za - zn|| + margin) over the triplets,
    as training computes it."""
    return batch_loss_and_grads(model, feats, *np.asarray(triplets).T,
                                margin)[0]


def test_triplet_loss_zero_when_separated():
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 100.0]])
    m = init_chart_model(2, hidden=(8,), seed=2)
    t = (0, 1, 2)
    zs = forward(m, feats)
    gap = np.linalg.norm(zs[0] - zs[2])
    assert triplet_loss(m, feats, [t], margin=0.5 * gap) == 0.0


def test_triplet_loss_equal_pos_neg_gives_margin():
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(3, 4))
    feats[2] = feats[1]  # positive and negative embed identically
    m = init_chart_model(4, hidden=(6,), seed=3)
    assert triplet_loss(m, feats, [(0, 1, 2)], 0.7) == \
        pytest.approx(0.7)


def test_triplet_loss_scalar_recomputation():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(3, 5))
    m = init_chart_model(5, hidden=(7,), seed=4)
    t = (0, 1, 2)
    z = [forward(m, feats[i]) for i in range(3)]
    dp = math.sqrt(sum((z[0][k] - z[1][k]) ** 2 for k in range(2)))
    dn = math.sqrt(sum((z[0][k] - z[2][k]) ** 2 for k in range(2)))
    want = max(0.0, dp - dn + 0.4)
    assert triplet_loss(m, feats, [t], 0.4) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- training

def flatten_params(model):
    return np.concatenate([w.ravel() for w in model.weights]
                          + [b.ravel() for b in model.biases])


def model_from_flat(template, flat):
    weights, biases = [], []
    pos = 0
    for w in template.weights:
        weights.append(flat[pos:pos + w.size].reshape(w.shape)); pos += w.size
    for b in template.biases:
        biases.append(flat[pos:pos + b.size].reshape(b.shape)); pos += b.size
    return ChartModel(weights=tuple(weights), biases=tuple(biases))


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(9, 6))
    triplets = np.array([(0, 1, 2), (3, 4, 5), (6, 7, 8), (1, 3, 6),
                         (2, 5, 7)])
    model = init_chart_model(6, hidden=(10, 8), seed=5)
    margin = 5.0  # large margin keeps every hinge active and off the kink
    anchors, positives, negatives = triplets.T
    _, gw, gb = batch_loss_and_grads(model, feats, anchors, positives,
                                     negatives, margin)
    analytic = np.concatenate([g.ravel() for g in gw]
                              + [g.ravel() for g in gb])

    def mean_loss(flat):
        m = model_from_flat(model, flat)
        return triplet_loss(m, feats, triplets, margin)

    theta = flatten_params(model)
    step = 1e-5
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += step
        dn = theta.copy(); dn[i] -= step
        fd[i] = (mean_loss(up) - mean_loss(dn)) / (2 * step)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
    assert float(rel.max()) < 1e-4


def test_train_zero_step_size_keeps_weights():
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(12, 5))
    triplets, _ = build_triplets(
        distributions([rng.normal(loc=i, size=50) for i in range(12)]), 40,
        seed=0)
    m = init_chart_model(5, hidden=(6,), seed=6)
    result = train(m, triplets, feats, step_size=0.0, epochs=3, seed=1)
    for w0, w1 in zip(m.weights, result.model.weights):
        np.testing.assert_array_equal(w0, w1)


def test_train_deterministic():
    rng = np.random.default_rng(14)
    feats = rng.normal(size=(15, 5))
    triplets, _ = build_triplets(
        distributions([rng.normal(loc=i % 4, size=60) for i in range(15)]), 80,
        seed=0)
    m = init_chart_model(5, hidden=(8, 6), seed=7)
    r1 = train(m, triplets, feats, epochs=4, seed=3)
    r2 = train(m, triplets, feats, epochs=4, seed=3)
    assert r1.epoch_losses == r2.epoch_losses
    for w1, w2 in zip(r1.model.weights, r2.model.weights):
        np.testing.assert_array_equal(w1, w2)


def test_train_aborts_on_nonfinite():
    rng = np.random.default_rng(15)
    feats = rng.normal(size=(6, 4)) * 1e150  # forces overflow in the norms
    triplets = np.array([(0, 1, 2), (3, 4, 5)])
    m = init_chart_model(4, hidden=(5,), seed=8)
    with pytest.raises(TrainingError):
        train(m, triplets, feats, step_size=0.5, epochs=5, seed=0)


@pytest.mark.parametrize("triplets, match", [
    (np.array([(0, 1, 2), (3, 4, 3)]), "distinct"),
    (np.array([(0, 1, 2), (1, 1, 5)]), "distinct"),
    (np.array([(0, 1, 2), (4, 2, 2)]), "distinct"),
    (np.array([0, 1, 2]), "k x 3"),
    (np.array([(0, 1, 2, 3), (4, 5, 6, 7)]), "k x 3"),
    (np.empty((0, 3), dtype=int), "no triplets"),
    # indices outside the 8 users: -1 would train on the last one
    (np.array([(0, 1, 2), (-1, 3, 4)]), r"lie in \[0, 8\)"),
    (np.array([(0, 1, 2), (3, 4, 8)]), r"lie in \[0, 8\)"),
    (np.array([(0.0, 1.0, 2.0)]), "integers"),
    (np.array([(True, False, True)]), "integers"),
])
def test_train_refuses_malformed_triplets(triplets, match):
    feats = np.random.default_rng(30).normal(size=(8, 4))
    m = init_chart_model(4, hidden=(5,), seed=8)
    with pytest.raises(ConfigurationError, match=match):
        train(m, triplets, feats, epochs=1, seed=0)


@pytest.mark.parametrize("shape", [(8, 5), (8, 3), (8,), (8, 4, 1)])
def test_train_refuses_features_of_another_shape(shape):
    feats = np.random.default_rng(30).normal(size=shape)
    m = init_chart_model(4, hidden=(5,), seed=8)
    with pytest.raises(ConfigurationError, match="users x 4"):
        train(m, np.array([(0, 1, 2)]), feats, epochs=1, seed=0)


@pytest.mark.parametrize("bad, match", [
    (dict(step_size=math.nan), "step_size"),
    (dict(step_size=math.inf), "step_size"),
    (dict(step_size=-0.01), "step_size"),
    (dict(margin=math.nan), "margin"),
    (dict(margin=math.inf), "margin"),
    (dict(margin=0.0), "margin"),
    (dict(epochs=2.5), "epochs"),
    (dict(epochs=0), "epochs"),
    (dict(epochs=True), "epochs"),
    (dict(batch_size=2.5), "batch_size"),
    (dict(batch_size=0), "batch_size"),
])
def test_train_refuses_bad_hyperparameters_before_any_work(monkeypatch, bad,
                                                           match):
    # a NaN step size or margin ended in a non-finite loss at some batch,
    # after numpy's warnings; epochs=2.5 in a TypeError
    def no_batch(*args):
        raise AssertionError("a refused call must not run a batch")

    monkeypatch.setattr(chart, "_batch_loss_and_grads", no_batch)
    feats = np.random.default_rng(30).normal(size=(8, 4))
    m = init_chart_model(4, hidden=(5,), seed=8)
    args = dict(margin=1.0, step_size=0.01, epochs=2, batch_size=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=match):
            train(m, np.array([(0, 1, 2), (3, 4, 5)]), feats,
                  **{**args, **bad})


# ---------------------------------------------------------------- backward skip
# A batch whose hinge terms are all zero has an exactly zero gradient, so
# train() skips its backward pass and takes the momentum step alone.

def separable_chart_problem():
    """Features that scale with each user's rate level: the triplet loss
    reaches exactly 0 within two epochs at step size 0.05."""
    rng = np.random.default_rng(32)
    gain = rng.uniform(0, 5, 40)
    rows = [rng.normal(loc=g, scale=0.3, size=80) for g in gain]
    feats = gain[:, None] * rng.normal(size=(1, 12)) \
        + 0.1 * rng.normal(size=(40, 12))
    triplets, _ = build_triplets(distributions(rows), 200, seed=1)
    return init_chart_model(12, hidden=(16, 8), seed=2), triplets, feats


def full_backward_train(model, triplets, feats, margin, step_size, epochs,
                        batch_size, seed, active_only=False):
    """train() written out: _forward_cached on a batch's 3b stacked rows,
    then _backward on all of them, an all-zero output gradient included.
    With active_only, _backward takes only the rows of the triplets whose
    hinge is positive, gathered in order (none in a batch without one)."""
    idx = np.asarray(triplets)
    rng = np.random.default_rng(seed)
    weights, biases = list(model.weights), list(model.biases)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    trace = []
    for _ in range(epochs):
        order = rng.permutation(len(triplets))
        total = 0.0
        for start in range(0, len(order), batch_size):
            chunk = idx[order[start:start + batch_size]]
            b = len(chunk)
            acts = _forward_cached(weights, biases, feats[chunk.T.ravel()])
            za, zp, zn = acts[-1][:b], acts[-1][b:2 * b], acts[-1][2 * b:]
            dp = np.linalg.norm(za - zp, axis=1)
            dn = np.linalg.norm(za - zn, axis=1)
            losses = np.maximum(0.0, dp - dn + margin)
            active = (losses > 0.0).astype(float)[:, None]
            up = (za - zp) / np.maximum(dp, 1e-12)[:, None]
            un = (za - zn) / np.maximum(dn, 1e-12)[:, None]
            g_out = np.vstack([active * (up - un), -active * up, active * un])
            if active_only:
                rows = np.flatnonzero(np.tile(active[:, 0], 3))
                acts = [a[rows] for a in acts]
                g_out = g_out[rows]
            gw, gb = _backward(weights, acts, g_out / b)
            total += float(np.mean(losses)) * b
            for i in range(len(weights)):
                vel_w[i] = MOMENTUM * vel_w[i] - step_size * gw[i]
                vel_b[i] = MOMENTUM * vel_b[i] - step_size * gb[i]
                weights[i] = weights[i] + vel_w[i]
                biases[i] = biases[i] + vel_b[i]
        trace.append(total / len(triplets))
    return weights, biases, trace


@pytest.mark.parametrize("step_size", [0.05, 1e-4])
def test_skipped_backward_passes_leave_training_bit_identical(step_size):
    model, triplets, feats = separable_chart_problem()
    args = dict(margin=1.0, step_size=step_size, epochs=8, batch_size=32,
                seed=3)
    got = train(model, triplets, feats, **args)
    weights, biases, trace = full_backward_train(model, triplets, feats,
                                                 **args)
    if step_size == 0.05:
        assert got.epoch_losses[0] > 0.0 and got.epoch_losses[-1] == 0.0
    else:
        assert min(got.epoch_losses) > 0.0
    assert np.array(got.epoch_losses).tobytes() == np.array(trace).tobytes()
    for have, want in zip(got.model.weights + got.model.biases,
                          weights + biases):
        assert have.tobytes() == want.tobytes()


def out_of_place_train(model, triplets, feats, margin, step_size, epochs,
                       batch_size, seed):
    """train() with a momentum step that makes new arrays
    (MOMENTUM * vel, step_size * g, w + vel); also returns how many batches
    had no positive hinge."""
    idx = np.asarray(triplets)
    rng = np.random.default_rng(seed)
    weights, biases = list(model.weights), list(model.biases)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    trace, inactive = [], 0
    for _ in range(epochs):
        order = rng.permutation(len(idx))
        total = 0.0
        for start in range(0, len(order), batch_size):
            chunk = idx[order[start:start + batch_size]]
            loss, gw, gb = _batch_loss_and_grads(
                weights, biases, feats, chunk[:, 0], chunk[:, 1], chunk[:, 2],
                margin)
            total += loss * len(chunk)
            inactive += gw is None
            for i in range(len(weights)):
                vel_w[i] = MOMENTUM * vel_w[i]
                vel_b[i] = MOMENTUM * vel_b[i]
                if gw is not None:
                    vel_w[i] -= step_size * gw[i]
                    vel_b[i] -= step_size * gb[i]
                weights[i] = weights[i] + vel_w[i]
                biases[i] = biases[i] + vel_b[i]
        trace.append(total / len(idx))
    return weights, biases, trace, inactive


@pytest.mark.parametrize("step_size", [0.05, 1e-4])
def test_in_place_momentum_step_trains_the_out_of_place_bytes(step_size):
    model, triplets, feats = separable_chart_problem()
    before = [a.tobytes() for a in model.weights + model.biases]
    args = dict(margin=1.0, step_size=step_size, epochs=8, batch_size=32,
                seed=3)
    got = train(model, triplets, feats, **args)
    weights, biases, trace, inactive = out_of_place_train(
        model, triplets, feats, **args)
    # at 0.05 the loss reaches 0, so later batches step on momentum alone
    assert (inactive > 0) == (step_size == 0.05)
    assert_same_training(got, weights, biases, trace)
    # the model trained from is left as it was
    assert [a.tobytes() for a in model.weights + model.biases] == before


def test_backward_pass_runs_once_per_batch_with_a_positive_hinge(monkeypatch):
    model, triplets, feats = separable_chart_problem()
    positive, backward_at = [], []

    def batch(weights, biases, feats, anchors, positives, negatives, margin):
        # the hinge terms, from the very rows the batch embeds
        b = len(anchors)
        z = _forward_cached(weights, biases, feats[np.concatenate(
            [anchors, positives, negatives])])[-1]
        hinge = np.linalg.norm(z[:b] - z[b:2 * b], axis=1) \
            - np.linalg.norm(z[:b] - z[2 * b:], axis=1) + margin
        positive.append(bool(np.any(hinge > 0.0)))
        return _batch_loss_and_grads(weights, biases, feats, anchors,
                                     positives, negatives, margin)

    def backward(*args):
        backward_at.append(len(positive) - 1)
        return _backward(*args)

    monkeypatch.setattr(chart, "_batch_loss_and_grads", batch)
    monkeypatch.setattr(chart, "_backward", backward)
    train(model, triplets, feats, margin=1.0, step_size=0.05, epochs=8,
          batch_size=32, seed=3)
    assert backward_at == [i for i, p in enumerate(positive) if p]
    assert 0 < len(backward_at) < len(positive)


# ---------------------------------------------------------------- compaction
# The backward pass takes only the triplets whose hinge is positive: 3 rows
# each.

def hinge_controlled_problem(active_counts, batch_size, seed):
    """chart_sized_problem's model and features with triplets laid out so
    that batch j of train()'s first epoch (at seed) holds active_counts[j]
    triplets whose hinge is positive, at scattered places, and the rest
    well inside the margin; returns the model, triplets, features and the
    margin. A small step size keeps every hinge on its side."""
    model, _, feats = chart_sized_problem()
    z = forward(model, feats)
    rng = np.random.default_rng(41)
    cand = np.array([rng.choice(len(feats), 3, replace=False)
                     for _ in range(4000)])
    gap = np.linalg.norm(z[cand[:, 0]] - z[cand[:, 1]], axis=1) \
        - np.linalg.norm(z[cand[:, 0]] - z[cand[:, 2]], axis=1)
    # the closer user of each pair is the positive
    cand[gap > 0.0, 1:] = cand[gap > 0.0, :0:-1]
    gap = -np.abs(gap)
    lo, mid, hi = np.quantile(gap, [0.1, 0.5, 0.9])
    active, inactive = iter(cand[gap > hi]), iter(cand[gap < lo])
    triplets = np.empty((batch_size * len(active_counts), 3), dtype=int)
    order = np.random.default_rng(seed).permutation(len(triplets))
    for j, count in enumerate(active_counts):
        hot = rng.permutation(batch_size) < count
        for slot, is_active in zip(order[j * batch_size:], hot):
            triplets[slot] = next(active if is_active else inactive)
    return model, triplets, feats, -mid


def spy_on_active_counts(monkeypatch):
    """Record (active triplets, batch size) of every batch train() runs."""
    seen = []

    def batch(weights, biases, feats, anchors, positives, negatives, margin):
        b = len(anchors)
        z = _forward_cached(weights, biases, feats[np.concatenate(
            [anchors, positives, negatives])])[-1]
        hinge = np.linalg.norm(z[:b] - z[b:2 * b], axis=1) \
            - np.linalg.norm(z[:b] - z[2 * b:], axis=1) + margin
        seen.append((int(np.sum(hinge > 0.0)), b))
        return _batch_loss_and_grads(weights, biases, feats, anchors,
                                     positives, negatives, margin)

    monkeypatch.setattr(chart, "_batch_loss_and_grads", batch)
    return seen


def test_compacted_backward_trains_the_full_backward_bytes(monkeypatch):
    """The bytes of the reference that backpropagates the same active rows,
    and the full backward pass's weights to rounding."""
    counts = [1, 7, 0, 8, 9, 32, 3, 20, 9, 1]
    model, triplets, feats, margin = hinge_controlled_problem(counts, 32, 5)
    seen = spy_on_active_counts(monkeypatch)
    args = dict(margin=margin, step_size=1e-3, epochs=2, batch_size=32,
                seed=5)
    got = train(model, triplets, feats, **args)
    # the first epoch runs the batches as laid out, and every case occurs
    assert seen[:len(counts)] == [(c, 32) for c in counts]
    assert {1, 7, 8, 9, 32} <= {c for c, _ in seen}
    assert_same_training(got, *full_backward_train(
        model, triplets, feats, **args, active_only=True))
    assert_close_training(got, *full_backward_train(model, triplets, feats,
                                                    **args))


@pytest.mark.parametrize("batch_size", [32, 5])
def test_backward_takes_exactly_the_active_triplets(monkeypatch, batch_size):
    counts = [1, 7, 8, 9, 3, batch_size, 0]
    model, triplets, feats, margin = hinge_controlled_problem(
        [min(c, batch_size) for c in counts], batch_size, 2)
    seen = spy_on_active_counts(monkeypatch)
    rows = []

    def backward(weights, acts, g_out):
        assert all(len(a) == len(g_out) for a in acts)
        rows.append((len(seen) - 1, len(g_out)))
        return _backward(weights, acts, g_out)

    monkeypatch.setattr(chart, "_backward", backward)
    train(model, triplets, feats, margin=margin, step_size=1e-3, epochs=2,
          batch_size=batch_size, seed=2)
    assert seen[:len(counts)] == [(min(c, batch_size), batch_size)
                                  for c in counts]
    assert rows == [(i, 3 * active) for i, (active, _) in enumerate(seen)
                    if active]


# ---------------------------------------------------------------- chart size
# At the default hidden widths, training keeps the bytes of
# full_backward_train's active rows (_forward_cached on all 3b stacked rows,
# then _backward on the active ones) and the full pass's weights to
# rounding: the two sum a product's rows in blocks of different sizes.

def assert_same_training(got, weights, biases, trace):
    assert np.array(got.epoch_losses).tobytes() == np.array(trace).tobytes()
    for have, want in zip(got.model.weights + got.model.biases,
                          weights + biases):
        assert have.tobytes() == want.tobytes()


def assert_close_training(got, weights, biases, trace, rtol=1e-12):
    """The epoch losses within rtol, and all weights and biases as one
    vector within rtol in norm (6e-14 and 2e-16 at most with OpenBLAS
    0.3.31's SkylakeX, Haswell and Sandybridge kernels)."""
    np.testing.assert_allclose(got.epoch_losses, trace, rtol=rtol)
    have = np.concatenate([a.ravel() for a in got.model.weights
                           + got.model.biases])
    want = np.concatenate([a.ravel() for a in weights + biases])
    assert np.linalg.norm(have - want) <= rtol * np.linalg.norm(want)


def chart_sized_problem():
    """257 CSI-like features (unit-norm block and a log-power entry) for 60
    users and the default hidden widths; 299 triplets."""
    rng = np.random.default_rng(40)
    block = np.abs(rng.normal(size=(60, 256)))
    block /= np.linalg.norm(block, axis=1)[:, None]
    feats = np.hstack([block, rng.uniform(-12, -8, size=(60, 1))])
    rows = [rng.normal(loc=g, size=50) for g in feats[:, -1]]
    triplets, _ = build_triplets(distributions(rows), 320, seed=6)
    assert len(triplets) >= 299
    return init_chart_model(257, seed=7), triplets[:299], feats


# 3b mod 4 is 0, 1, 2 and 3; each leaves a short last batch, at 33 one of 2
# triplets: 6 rows
@pytest.mark.parametrize("batch_size", [32, 35, 34, 33])
def test_chart_sized_training_keeps_the_full_backward_bytes(monkeypatch,
                                                            batch_size):
    """The bytes of full_backward_train's active rows and the full pass's
    weights to rounding, without a call to the public forward."""

    def refuse(*args):
        raise AssertionError("training called the public forward")

    monkeypatch.setattr(chart, "forward", refuse)
    model, triplets, feats = chart_sized_problem()
    assert len(triplets) % batch_size
    args = dict(margin=1.0, step_size=0.02, epochs=3, batch_size=batch_size,
                seed=5)
    got = train(model, triplets, feats, **args)
    assert_same_training(got, *full_backward_train(
        model, triplets, feats, **args, active_only=True))
    assert_close_training(got, *full_backward_train(model, triplets, feats,
                                                    **args))


def test_training_bytes_do_not_depend_on_cpu_count(monkeypatch):
    # training runs on the calling thread: a call into the pool fails here

    def refuse(*args, **kwargs):
        raise AssertionError("training took the thread pool")

    for name in ("shared_pool", "map_in_order"):
        monkeypatch.setattr(_threads, name, refuse)
    model, triplets, feats = chart_sized_problem()
    results = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)), raising=False)
        assert _threads._worker_count() == cpus
        results.append(train(model, triplets, feats, step_size=0.02,
                             epochs=2, batch_size=33, seed=5))
    for got in results[1:]:
        assert_same_training(got, list(results[0].model.weights),
                             list(results[0].model.biases),
                             results[0].epoch_losses)


# The training byte tests again, under the OpenBLAS kernel sets that other
# x86-64 hosts get: Haswell on AVX2 and Zen hosts, Sandybridge on AVX ones.
TRAINING_BYTE_TESTS = ("full_backward_bytes or exactly_the_active_triplets "
                       "or bit_identical or out_of_place_bytes or cpu_count")


def cpu_flags():
    """The flags /proc/cpuinfo lists for the first CPU; none without it."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.parametrize("coretype, flag", [("Haswell", "avx2"),
                                            ("Sandybridge", "avx")])
def test_training_byte_tests_hold_with_other_kernel_sets(coretype, flag):
    if flag not in cpu_flags():
        pytest.skip(f"{coretype} kernels need {flag}, which this CPU lacks")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2",
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--capture=sys",
         "-k", TRAINING_BYTE_TESTS, str(Path(__file__).resolve())],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    if f"Core: {coretype}" not in done.stderr:
        pytest.skip(f"numpy's BLAS did not take OPENBLAS_CORETYPE={coretype}")
    assert done.returncode == 0, done.stdout[-4000:]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_names_its_epoch_and_batch(bad):
    # the non-finite row is only ever a negative; training forwards it
    # without a warning (warnings would be errors here)
    model, triplets, feats = separable_chart_problem()
    feats = np.vstack([feats, np.full(feats.shape[1], bad)])
    triplets = triplets.copy()
    triplets[17, 2] = len(feats) - 1
    order = np.random.default_rng(3).permutation(len(triplets))
    batch = int(np.flatnonzero(order == 17)[0]) // 32
    assert batch > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError,
                           match=f"at epoch 0, batch {batch}$"):
            train(model, triplets, feats, step_size=0.05, epochs=2,
                  batch_size=32, seed=3)


def synthetic_chart_problem(n_users=120, seed=16):
    """Users on a smooth 2-D gain field, encoded as random Fourier features.

    An untrained random projection of these features carries no latent
    geometry (measured Spearman ~0.01), yet the encoding is rich enough for
    the triplet loss to recover the gain structure.
    """
    rng = np.random.default_rng(seed)
    locs = rng.uniform(-1, 1, size=(n_users, 2))
    gain = 3.0 * np.sin(1.5 * locs[:, 0]) + 2.0 * np.cos(1.7 * locs[:, 1])
    rate_rows = [rng.normal(loc=g, scale=0.25, size=400) for g in gain]
    freqs = rng.normal(0.0, 3.0, size=(2, 24))
    phases = rng.uniform(0.0, 2.0 * np.pi, 24)
    feats = np.sin(locs @ freqs + phases) + 0.02 * rng.normal(size=(n_users, 24))
    return locs, feats, rate_rows


def latent_w1_spearman(model, feats, rate_rows, rng):
    z = forward(model, feats)
    dists = [EmpiricalDistribution.from_samples(r) for r in rate_rows]
    pairs = rng.integers(0, len(rate_rows), size=(1000, 2))
    ld, wd = [], []
    for i, j in pairs:
        if i == j:
            continue
        ld.append(np.linalg.norm(z[i] - z[j]))
        wd.append(wasserstein1(dists[i], dists[j]))
    return spearmanr(ld, wd).statistic


def test_chart_quality_spearman_improves():
    locs, feats, rate_rows = synthetic_chart_problem()
    triplets, _ = build_triplets(distributions(rate_rows), 4000, seed=17)
    m0 = init_chart_model(feats.shape[1], hidden=(32, 16), seed=18)
    rho_before = latent_w1_spearman(m0, feats, rate_rows,
                                    np.random.default_rng(19))
    result = train(m0, triplets, feats, margin=1.0, step_size=0.02,
                   epochs=30, batch_size=64, seed=20)
    rho_after = latent_w1_spearman(result.model, feats, rate_rows,
                                   np.random.default_rng(19))
    assert abs(rho_before) < 0.2
    assert rho_after > 0.4
    assert result.epoch_losses[-1] <= result.epoch_losses[0]


def test_forward_batch_shapes_and_consistency():
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(10, 7))
    feats[4] = feats[2]
    m = init_chart_model(7, hidden=(6,), seed=9)
    out = forward(m, feats)
    assert out.shape == (10, 2)
    np.testing.assert_array_equal(out[2], out[4])
    for i in range(10):
        np.testing.assert_allclose(out[i], forward(m, feats[i]), rtol=1e-12)


def test_lipschitz_bound_from_frobenius_norms():
    rng = np.random.default_rng(22)
    m = init_chart_model(8, hidden=(16, 8), seed=10)
    bound = np.prod([np.linalg.norm(w) for w in m.weights])
    x = rng.normal(size=8)
    z0 = forward(m, x)
    for _ in range(50):
        delta = rng.normal(size=8) * rng.uniform(1e-3, 1.0)
        z1 = forward(m, x + delta)
        assert np.linalg.norm(z1 - z0) <= bound * np.linalg.norm(delta) + 1e-12
