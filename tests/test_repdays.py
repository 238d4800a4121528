"""Clustering, year assembly and approximation-metric tests."""

import csv
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import emsim

from emsim import repdays
from emsim.ingest import SERIES_NAMES, InputError, TimeSeriesSet
from emsim.repdays import (
    MAX_ITER,
    TOL,
    Clustering,
    DayMatrix,
    _init_centroids,
    _sq_distances,
    assemble_year,
    build_day_matrix,
    ce_av,
    distinct_rows,
    evaluate_k_range,
    kmeans,
    load_representative_days,
    nrmse_av,
    pearson,
    ree_av,
    save_representative_days,
    select_representative,
    summarize,
)
from toys import synthetic_ts


def constant_ts(n_days, demand=30000.0, cf=0.5):
    hours = n_days * 24
    start = np.datetime64("2011-01-01T00:00:00", "s")
    stamps = start + np.arange(hours).astype("timedelta64[h]").astype("timedelta64[s]")
    ones = np.ones(hours)
    return TimeSeriesSet(stamps, np.stack([ones * demand, ones * cf, ones * cf, ones * cf]))


# ---------------------------------------------------------------------------
# day matrix


def test_day_matrix_shape():
    ts = synthetic_ts(2772, seed=3)
    dm = build_day_matrix(ts)
    assert dm.normalized.shape == (2772, 96)
    assert dm.raw.shape == (2772, 96)


def test_day_matrix_scaling_equals_per_series_reductions():
    # the block-wide reductions must match each series' own mean and std
    # bit for bit, or every z-scored feature (and the chosen days) moves
    ts = synthetic_ts(365, seed=8)
    dm = build_day_matrix(ts)
    assert dm.offsets.tolist() == [ts.series(name).mean() for name in SERIES_NAMES]
    assert dm.scales.tolist() == [ts.series(name).std() for name in SERIES_NAMES]


def test_zscore_constant_series_guarded():
    dm = build_day_matrix(constant_ts(5))
    assert np.all(dm.normalized == 0.0)


def test_day_matrix_denormalize_round_trip():
    ts = synthetic_ts(40, seed=5)
    dm = build_day_matrix(ts)
    assert np.allclose(dm.denormalize(dm.normalized), dm.raw, atol=1e-9)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k1_centroid_is_mean():
    ts = synthetic_ts(120, seed=7)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 1, seed=0)
    mean = dm.normalized.mean(axis=0)
    assert np.allclose(clustering.centroids[0], mean, rtol=1e-9, atol=1e-12)
    assert clustering.weights.tolist() == [1.0]


def test_kmeans_k_equals_day_count():
    ts = synthetic_ts(15, seed=11)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 15, seed=2)
    assert sorted(clustering.assignment.tolist()) == sorted(range(15))
    assert clustering.inertia_history[-1] == pytest.approx(0.0, abs=1e-9)


def test_kmeans_k_too_large():
    dm = build_day_matrix(synthetic_ts(5, seed=0))
    with pytest.raises(InputError):
        kmeans(dm, 6, seed=0)


def _blob_matrix(seed=0):
    # two well separated gaussian blobs of 100 and 300 day-vectors
    rng = np.random.default_rng(seed)
    center_a = np.full(96, 10.0)
    center_b = np.full(96, -10.0)
    rows = np.vstack([
        center_a + 0.5 * rng.standard_normal((100, 96)),
        center_b + 0.5 * rng.standard_normal((300, 96)),
    ])
    dm = DayMatrix(normalized=rows, raw=rows.copy(), offsets=np.zeros(4), scales=np.ones(4))
    return dm, center_a, center_b


def test_kmeans_recovers_blobs():
    dm, center_a, center_b = _blob_matrix()
    clustering = kmeans(dm, 2, seed=1)
    assert sorted(clustering.weights.tolist()) == [0.25, 0.75]
    # oracle: assignment by nearest true center
    truth = np.argmin(np.stack([
        ((dm.normalized - center_a) ** 2).sum(axis=1),
        ((dm.normalized - center_b) ** 2).sum(axis=1),
    ]), axis=0)
    # cluster ids may be permuted; compare partitions
    groups = [frozenset(np.flatnonzero(clustering.assignment == cid)) for cid in (0, 1)]
    truth_groups = [frozenset(np.flatnonzero(truth == t)) for t in (0, 1)]
    assert set(groups) == set(truth_groups)
    # medoids land inside their own blob
    for cid in (0, 1):
        row = clustering.medoid_rows[cid]
        assert clustering.assignment[row] == cid


def test_kmeans_inertia_non_increasing():
    ts = synthetic_ts(200, seed=13)
    dm = build_day_matrix(ts)
    for k in (2, 5, 9):
        clustering = kmeans(dm, k, seed=3)
        hist = np.array(clustering.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9)


def test_clustering_invariants():
    ts = synthetic_ts(150, seed=47)
    dm = build_day_matrix(ts)
    for k in (1, 3, 7, 12):
        clustering = kmeans(dm, k, seed=k)
        assert abs(clustering.weights.sum() - 1.0) <= 1e-12
        counts = np.bincount(clustering.assignment, minlength=k)
        assert np.all(counts > 0)
        for cid in range(k):
            assert clustering.assignment[clustering.medoid_rows[cid]] == cid


def _reference_kmeans(dm, k, seed, reseeds):
    """The Lloyd loop that recomputed each distance matrix for the
    inertia and the medoids; appends to `reseeds` per reseeded cluster."""
    def repair_empty(x, centroids, labels):
        for _ in range(k):
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if not len(empties):
                return labels
            dist_own = _sq_distances(x, centroids)[np.arange(len(x)), labels]
            for cid in empties:
                far = int(np.argmax(dist_own))
                centroids[cid] = x[far]
                labels[far] = cid
                dist_own[far] = -np.inf
                reseeds.append(cid)
            labels = np.argmin(_sq_distances(x, centroids), axis=1)
        return labels

    x = dm.normalized
    centroids = _init_centroids(x, k, np.random.default_rng(seed))
    labels = repair_empty(x, centroids, np.argmin(_sq_distances(x, centroids), axis=1))
    history = [float(_sq_distances(x, centroids)[np.arange(len(x)), labels].sum())]
    for _ in range(MAX_ITER):
        new_centroids = np.empty_like(centroids)
        for cid in range(k):
            new_centroids[cid] = x[labels == cid].mean(axis=0)
        new_labels = np.argmin(_sq_distances(x, new_centroids), axis=1)
        new_labels = repair_empty(x, new_centroids, new_labels)
        history.append(float(_sq_distances(x, new_centroids)[np.arange(len(x)), new_labels].sum()))
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids, labels = new_centroids, new_labels
        if shift < TOL:
            break
    medoids = np.empty(k, dtype=int)
    d2 = _sq_distances(x, centroids)
    for cid in range(k):
        members = np.flatnonzero(labels == cid)
        medoids[cid] = members[np.argmin(d2[members, cid])]
    return Clustering(k=k, assignment=labels, centroids=centroids,
                      weights=np.bincount(labels, minlength=k) / dm.n_days,
                      medoid_rows=medoids, inertia_history=tuple(history))


def _repeated_days_ts(day_rows, seed):
    """Hourly series whose day i copies day `day_rows[i]` of a small
    synthetic set."""
    base = synthetic_ts(max(day_rows) + 1, seed=seed).values.reshape(len(SERIES_NAMES), -1, 24)
    values = base[:, day_rows, :].reshape(len(SERIES_NAMES), -1)
    start = np.datetime64("2011-01-01T00:00:00", "s")
    stamps = start + np.arange(values.shape[1]).astype("timedelta64[h]").astype("timedelta64[s]")
    return TimeSeriesSet(stamps, np.ascontiguousarray(values))


def _grid_matrix(repeats):
    """Seven points of a small integer grid, point i repeated repeats[i]
    times. From the seed-496 start with k=4, the first Lloyd update
    empties a cluster: (3, 5, 0) drags its centroid away from the points
    that shared it."""
    points = np.array([[5, 4, 1], [1, 1, 3], [5, 3, 5], [1, 0, 4], [3, 5, 0], [0, 1, 4],
                       [5, 1, 3]], dtype=float)
    rows = np.zeros((sum(repeats), 96))
    rows[:, :3] = np.repeat(points, repeats, axis=0)
    return DayMatrix(normalized=rows, raw=rows.copy(), offsets=np.zeros(4), scales=np.ones(4))


def test_kmeans_equals_reference_loop_exactly():
    rng = np.random.default_rng(31)
    cases = [(_grid_matrix([1, 1, 1, 2, 1, 1, 1]), 4, 496),
             (_grid_matrix([2] * 7), 4, 496),
             (build_day_matrix(synthetic_ts(15, seed=11)), 15, 2),
             (build_day_matrix(synthetic_ts(40, seed=2)), 40, [7, 40, 1])]
    for _ in range(40):
        n_days = int(rng.integers(2, 60))
        dm = build_day_matrix(synthetic_ts(n_days, seed=int(rng.integers(1000))))
        k = int(rng.integers(1, min(n_days, 12) + 1))
        cases.append((dm, n_days if rng.random() < 0.2 else k, [int(rng.integers(1000)), k, 0]))
    for _ in range(10):
        # duplicate days, with k up to the number of distinct days
        day_rows = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(4, 12)))
        dm = build_day_matrix(_repeated_days_ts(day_rows.tolist(), seed=int(rng.integers(1000))))
        cases.append((dm, int(rng.integers(1, len(set(day_rows.tolist())) + 1)),
                      int(rng.integers(1000))))
    reseeds = []
    for dm, k, seed in cases:
        got = kmeans(dm, k, seed=seed)
        want = _reference_kmeans(dm, k, seed, reseeds)
        assert got.k == want.k
        for name in ("assignment", "centroids", "weights", "medoid_rows"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.inertia_history == want.inertia_history
    assert len(reseeds) >= 2  # the grid cases reseeded an emptied cluster



def _reference_init_centroids(x, k, rng):
    """The k-means++ seeding that rebuilt the (points, chosen) distance
    matrix on every pick."""
    n = len(x)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = _sq_distances(x, x[chosen]).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            remaining = [i for i in range(n) if i not in set(chosen)]
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return x[chosen].copy()


def test_init_centroids_equals_the_full_matrix_seeding():
    days = build_day_matrix(synthetic_ts(365, seed=9)).normalized
    # three distinct days, so a k past 3 picks from the rest at random
    repeated = build_day_matrix(_repeated_days_ts([0, 1, 1, 2, 0, 2, 1, 1], seed=3)).normalized
    cases = [(days, root, k, code) for root in (0, 101, 303) for k in (1, 2, 3, 8, 17, 24)
             for code in (0, 1)]
    cases += [(repeated, root, k, code) for root in (5, 6) for k in (2, 3, 5, 8) for code in (0, 1)]
    for x, root, k, code in cases:
        for x_norms in (None, (x * x).sum(axis=1)):
            got_rng, want_rng = (np.random.default_rng([root, k, code]) for _ in range(2))
            got = _init_centroids(x, k, got_rng, x_norms)
            want = _reference_init_centroids(x, k, want_rng)
            assert got.tobytes() == want.tobytes(), (root, k, code)
            assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)  # as many draws taken

@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_kmeans_computes_one_distance_matrix_per_assignment(monkeypatch, k):
    dm = build_day_matrix(synthetic_ts(200))
    calls = []

    def counted(x, centroids, x_norms=None):
        calls.append(len(centroids))
        return _sq_distances(x, centroids, x_norms)

    monkeypatch.setattr(repdays, "_sq_distances", counted)
    clustering = kmeans(dm, k, seed=0)
    assert np.all(np.bincount(clustering.assignment, minlength=k) > 0)
    # k-means++ seeding takes k - 1; each assignment one, none repeated
    assert len(calls) == (k - 1) + len(clustering.inertia_history)


def test_kmeans_deterministic_per_seed():
    dm = build_day_matrix(synthetic_ts(100, seed=17))
    a = kmeans(dm, 4, seed=42)
    b = kmeans(dm, 4, seed=42)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


# ---------------------------------------------------------------------------
# representative selection


def test_single_member_cluster_medoid_equals_centroid():
    dm, _, _ = _blob_matrix(seed=2)
    clustering = kmeans(dm, 2, seed=1)
    profiles_m = select_representative(clustering, dm, "medoid")
    profiles_c = select_representative(clustering, dm, "centroid")
    assert profiles_m.shape == (2, 4, 24)
    assert profiles_c.shape == (2, 4, 24)


def test_medoid_tie_breaks_to_lower_row():
    # a two-member cluster: both members are equidistant from the mean
    rows = np.vstack([np.zeros(96), np.ones(96)])
    dm = DayMatrix(rows, rows.copy(), np.zeros(4), np.ones(4))
    clustering = kmeans(dm, 1, seed=0)
    assert clustering.medoid_rows[0] == 0


def test_medoid_profile_is_verbatim_raw_day():
    ts = synthetic_ts(60, seed=23)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 4, seed=1)
    profiles = select_representative(clustering, dm, "medoid")
    for cid in range(4):
        row = clustering.medoid_rows[cid]
        assert np.array_equal(profiles[cid].reshape(-1), dm.raw[row])


# ---------------------------------------------------------------------------
# year assembly


def test_assemble_single_cluster_hours():
    profiles = np.zeros((1, 4, 24))
    rep = assemble_year(profiles, np.array([1.0]))
    assert np.all(rep.hour_weights == 365.0)
    assert rep.total_hours == 8760.0


def test_assemble_two_equal_clusters():
    rep = assemble_year(np.zeros((2, 4, 24)), np.array([0.5, 0.5]))
    assert np.all(rep.hour_weights == 182.5)
    assert rep.total_hours == 8760.0


def test_assemble_kmeans_weights_sum_to_year():
    ts = synthetic_ts(400, seed=29)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 8, seed=4)
    profiles = select_representative(clustering, dm, "medoid")
    rep = assemble_year(profiles, clustering.weights)
    assert rep.total_hours == pytest.approx(8760.0, abs=1e-6)


def test_assemble_rejects_bad_weights():
    with pytest.raises(InputError, match="sum to 1"):
        assemble_year(np.zeros((2, 4, 24)), np.array([0.6, 0.6]))


# ---------------------------------------------------------------------------
# duration curves


def test_duration_curve_sorts_descending():
    summary = summarize([[3.0, 1.0, 2.0]], np.ones(3))
    curve = summary.curves[0]
    assert curve[[0, 4380, 8759]].tolist() == [3.0, 2.0, 1.0]
    assert np.all(np.diff(curve) <= 0.0)
    # each unit-weight value holds a third of the year's duration grid
    assert np.unique(curve, return_counts=True)[1].tolist() == [2920] * 3


def test_duration_curve_constant_series_is_flat():
    summary = summarize([[4.0] * 10], np.ones(10))
    assert np.all(summary.curves[0] == 4.0)


def test_duration_curve_weighted_steps():
    summary = summarize([[2.0, 5.0]], [200.0, 100.0])
    assert summary.ranges.tolist() == [3.0]
    # the first third of the duration axis reads 5, the rest 2
    grid = summary.curves[0]
    assert np.all(grid[:2919] == 5.0)
    assert np.all(grid[2921:] == 2.0)


def test_summarize_rejects_misaligned_or_empty_block():
    with pytest.raises(InputError, match="one weight per column"):
        summarize([[1.0, 2.0]], np.ones(3))
    with pytest.raises(InputError, match="empty"):
        summarize(np.empty((2, 0)), np.empty(0))


# ---------------------------------------------------------------------------
# approximation metrics


def _unit_set(values_by_name):
    """Summary of equally long unit-weight series, one row per name."""
    block = np.array([np.asarray(v, dtype=float) for v in values_by_name.values()])
    return summarize(block, np.ones(block.shape[1]))


def test_ree_exact_approximation_is_zero():
    obs = _unit_set({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    assert ree_av(obs, obs) == 0.0


def test_ree_doubled_values():
    obs = _unit_set({"a": [1.0, 2.0, 3.0]})
    apx = _unit_set({"a": [2.0, 4.0, 6.0]})
    assert ree_av(obs, apx) == pytest.approx(1.0, abs=1e-12)


def test_ree_one_series_off_by_ten_percent():
    names = ["a", "b", "c", "d"]
    obs = _unit_set({n: [10.0, 20.0, 30.0] for n in names})
    apx_vals = {n: [10.0, 20.0, 30.0] for n in names}
    apx_vals["b"] = [11.0, 22.0, 33.0]
    apx = _unit_set(apx_vals)
    assert ree_av(obs, apx) == pytest.approx(0.1 / 4.0, abs=1e-12)


def test_ree_zero_observed_sum_errors():
    obs = _unit_set({"a": [0.0, 0.0]})
    with pytest.raises(InputError, match="zero"):
        ree_av(obs, obs)


def test_nrmse_identical_curves_zero():
    obs = _unit_set({"a": [1.0, 5.0, 3.0], "b": [2.0, 2.5, 4.0]})
    assert nrmse_av(obs, obs) == 0.0


def test_nrmse_constant_offset():
    rng = np.random.default_rng(0)
    vals = rng.uniform(10, 50, 200)
    obs = _unit_set({"a": vals})
    eps = 2.0
    apx = _unit_set({"a": vals + eps})
    value_range = vals.max() - vals.min()
    assert nrmse_av(obs, apx) == pytest.approx(eps / value_range, rel=1e-12)


def test_nrmse_average_over_series():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0, 10, 100)
    obs = _unit_set({n: vals for n in "abcd"})
    apx_vals = {n: vals.copy() for n in "abcd"}
    apx_vals["c"] = vals + 0.2 * (vals.max() - vals.min())
    apx = _unit_set(apx_vals)
    assert nrmse_av(obs, apx) == pytest.approx(0.05, rel=1e-9)


def test_nrmse_zero_range_errors():
    obs = _unit_set({"a": [2.0, 2.0, 2.0]})
    with pytest.raises(InputError, match="range"):
        nrmse_av(obs, obs)


def test_pearson_identities():
    s = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    assert pearson(s, s) == pytest.approx(1.0, abs=1e-12)
    assert pearson(s, -s) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance_and_symmetry():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
    assert pearson(3.0 * x + 7.0, y) == pytest.approx(pearson(x, y), abs=1e-12)
    assert -1.0 <= pearson(x, y) <= 1.0


def test_pearson_zero_variance_errors():
    with pytest.raises(InputError, match="zero-variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_weights_equal_replication():
    x = np.array([1.0, 4.0, 2.0])
    y = np.array([2.0, 1.0, 5.0])
    w = np.array([2.0, 1.0, 3.0])
    xr = np.array([1.0, 1.0, 4.0, 2.0, 2.0, 2.0])
    yr = np.array([2.0, 2.0, 1.0, 5.0, 5.0, 5.0])
    assert pearson(x, y, w) == pytest.approx(pearson(xr, yr), abs=1e-12)


def test_ce_av_two_series_hand_case():
    # orthogonal unit blocks give exact correlations 0.8 and 0.6
    x = np.tile([1.0, -1.0], 12)
    z = np.tile([1.0, 1.0, -1.0, -1.0], 6)
    obs = _unit_set({"p": x, "q": 0.8 * x + 0.6 * z})
    apx = _unit_set({"p": x, "q": 0.6 * x + 0.8 * z})
    assert ce_av(obs, apx) == pytest.approx(0.2, abs=1e-12)


def test_ce_av_identical_sets_zero():
    rng = np.random.default_rng(5)
    obs = _unit_set({n: rng.standard_normal(100) for n in "abcd"})
    assert ce_av(obs, obs) == 0.0


def test_metrics_zero_when_k_equals_day_count():
    ts = synthetic_ts(20, seed=31)
    rows = evaluate_k_range(ts, [20], method="medoid", seed=0)
    assert rows[0]["nrmse_av"] == pytest.approx(0.0, abs=1e-9)
    assert rows[0]["ce_av"] == pytest.approx(0.0, abs=1e-9)
    assert rows[0]["ree_av"] == pytest.approx(0.0, abs=1e-9)


def test_distinct_rows_counts_as_np_unique_does():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pool = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(int(rng.integers(1, 6)), 4))
        x = pool[rng.integers(len(pool), size=int(rng.integers(1, 30)))]
        assert distinct_rows(x) == len(np.unique(x, axis=0))
    # -0.0 and 0.0 are one value, so these rows are one row
    assert distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0]])) == 1


def test_evaluate_k_range_rejects_oversized_k():
    ts = synthetic_ts(10, seed=0)
    with pytest.raises(InputError):
        evaluate_k_range(ts, [11], seed=0)


def test_evaluate_k_range_names_a_constant_series():
    ts = synthetic_ts(3, seed=0)
    ts.series("solar_cf")[:] = 0.0
    with pytest.raises(InputError, match="'solar_cf' \\(constant in the observed data\\)"):
        evaluate_k_range(ts, [1], seed=0)
    # offshore varies only on a day the single medoid does not pick
    ts = synthetic_ts(3, seed=0)
    for name in SERIES_NAMES:
        ts.series(name)[24:48] = ts.series(name)[:24]
    ts.series("offshore_cf")[:48] = 0.2
    with pytest.raises(InputError, match="'offshore_cf' \\(constant in the k=1 representative"):
        evaluate_k_range(ts, [1], seed=0)


def _sweep(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(repdays, "processes_for", lambda n_k: min(n_k, workers))
    return evaluate_k_range(*args, **kwargs)


def _assert_same_rows(a_rows, b_rows):
    assert [a["k"] for a in a_rows] == [b["k"] for b in b_rows]
    for a, b in zip(a_rows, b_rows):
        assert (a["k"], a["method"]) == (b["k"], b["method"])
        for metric in ("ce_av", "nrmse_av", "ree_av"):
            assert a[metric] == b[metric], metric
        for name in ("values", "hour_weights", "cluster_weights"):
            assert np.array_equal(getattr(a["year"], name), getattr(b["year"], name)), name


SCORE_K = repdays._score_k


@dataclass(frozen=True)
class RecordingScore:
    """A picklable `_score_k` that lists the k values scored in the process
    it runs in: a pool worker lists them in its own copy."""

    scored: list = field(default_factory=list)

    def __call__(self, k, *sweep):
        self.scored.append(k)
        return SCORE_K(k, *sweep)


@pytest.mark.parametrize("method", ["medoid", "centroid"])
def test_evaluate_k_range_rows_do_not_depend_on_the_worker_count(monkeypatch, caplog, method):
    ts = synthetic_ts(120, seed=5)
    ks = [6, 1, 3, 2, 9, 3]
    one = _sweep(monkeypatch, 1, ts, ks, method=method, seed=4)
    recording = RecordingScore()
    by_caller = recording.scored
    monkeypatch.setattr(repdays, "_score_k", recording)
    caplog.clear()
    with caplog.at_level("INFO", logger="emsim.repdays"):
        four = _sweep(monkeypatch, 4, ts, ks, method=method, seed=4)
    assert [r["k"] for r in four] == [1, 2, 3, 6, 9]
    _assert_same_rows(one, four)
    # the workers start from the largest k, the calling process from the smallest
    assert by_caller[:1] == [1] and by_caller == sorted(by_caller)
    # one log line per k, in ascending k, from the calling process
    assert [r.getMessage().split()[0] for r in caplog.records] == \
        ["k=1", "k=2", "k=3", "k=6", "k=9"]
    assert {r.process for r in caplog.records} == {os.getpid()}
    assert multiprocessing.active_children() == []


SPAWN_SWEEP = """
import multiprocessing, pickle, sys
from emsim import repdays

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    with open(sys.argv[1], "rb") as fh:
        ts, ks, method = pickle.load(fh)
    repdays.processes_for = lambda n_k: 3
    rows = repdays.evaluate_k_range(ts, ks, method=method, seed=4)
    with open(sys.argv[2], "wb") as fh:
        pickle.dump(rows, fh)
"""


def test_a_spawned_sweep_matches_the_serial_bits(monkeypatch, tmp_path):
    # spawn (the macOS default) starts workers from a fresh import, so
    # they see only what the pool hands them when it starts them
    ts, ks = synthetic_ts(60, seed=5), [1, 2, 3, 5, 8]
    serial = _sweep(monkeypatch, 1, ts, ks, method="centroid", seed=4)
    with open(tmp_path / "sweep.pkl", "wb") as fh:
        pickle.dump((ts, ks, "centroid"), fh)
    src = os.pathsep.join([str(Path(emsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", SPAWN_SWEEP, str(tmp_path / "sweep.pkl"),
                    str(tmp_path / "rows.pkl")], env=env, check=True, timeout=120)
    with open(tmp_path / "rows.pkl", "rb") as fh:
        _assert_same_rows(serial, pickle.load(fh))


def test_a_one_worker_sweep_stops_at_the_first_failing_k(monkeypatch):
    kmeans = repdays.kmeans
    clustered = []

    def failing(dm, k, seed=0):
        clustered.append(k)
        if k in (3, 5):
            raise InputError(f"k={k} failed")
        return kmeans(dm, k, seed=seed)

    monkeypatch.setattr(repdays, "kmeans", failing)
    with pytest.raises(InputError, match="^k=3 failed$"):
        _sweep(monkeypatch, 1, synthetic_ts(20, seed=1), [1, 2, 3, 4, 5, 6], seed=0)
    assert clustered == [1, 2, 3]


@dataclass(frozen=True)
class FailingDays(DayMatrix):
    """A picklable day matrix whose centroid profiles fail for the listed k,
    so the failure reaches pool workers under any start method."""

    failing_k: tuple = ()

    def denormalize(self, vec):
        if len(vec) in self.failing_k:
            raise InputError(f"k={len(vec)} failed")
        return super().denormalize(vec)


def test_a_pooled_sweep_raises_the_error_of_the_smallest_failing_k(monkeypatch):
    build = repdays.build_day_matrix
    monkeypatch.setattr(repdays, "build_day_matrix",
                        lambda ts: FailingDays(**vars(build(ts)), failing_k=(3, 5)))
    with pytest.raises(InputError, match="^k=3 failed$"):
        _sweep(monkeypatch, 4, synthetic_ts(20, seed=1), [1, 2, 3, 4, 5, 6],
               method="centroid", seed=0)
    assert multiprocessing.active_children() == []


_SUMMARY_BITS = """
import numpy as np
from emsim.repdays import pearson, summarize
rng = np.random.default_rng(8)
values = rng.random((4, 43800)) * np.array([[30000.0], [1.0], [1.0], [1.0]])
for weights in (np.ones(43800), rng.random(43800)):
    s = summarize(values, weights)
    print([float(v).hex() for v in (*s.means, *s.correlations)],
          float(pearson(values[0], values[1], weights)).hex())
"""


def test_summary_bits_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot product over a long series splits its sum across the
    # BLAS threads, so its last bits follow their count
    src = os.pathsep.join([str(Path(emsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        outputs.append(subprocess.run([sys.executable, "-c", _SUMMARY_BITS], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]


def test_full_pipeline_metrics_finite():
    ts = synthetic_ts(150, seed=37)
    rows = evaluate_k_range(ts, [1, 4], method="centroid", seed=1)
    for row in rows:
        assert row["ce_av"] >= 0.0
        assert row["nrmse_av"] >= 0.0
        assert row["ree_av"] >= 0.0


# ---------------------------------------------------------------------------
# persistence


def test_representative_days_round_trip(tmp_path):
    ts = synthetic_ts(90, seed=41)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 4, seed=2)
    rep = assemble_year(select_representative(clustering, dm), clustering.weights)
    path = tmp_path / "rep.csv"
    save_representative_days(rep, path)
    loaded = load_representative_days(path)
    assert np.array_equal(loaded.values, rep.values)
    assert np.array_equal(loaded.hour_weights, rep.hour_weights)
    assert np.array_equal(loaded.cluster_weights, rep.cluster_weights)


@pytest.mark.parametrize("column", ["cluster", "hour", "weight", "demand_mw", "offshore_cf"])
def test_representative_days_parse_error_names_file_and_row(tmp_path, column):
    ts = synthetic_ts(30, seed=41)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 2, seed=2)
    path = tmp_path / "rep.csv"
    save_representative_days(
        assemble_year(select_representative(clustering, dm), clustering.weights), path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index(column)] = "1.5x"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=r"rep\.csv: .*'" + column + r"' \(row 6\)"):
        load_representative_days(path)


@pytest.mark.parametrize("row, column, value, message", [
    (6, "hour", "4", "repeated hour 4 of cluster 0 (row 6)"),
    (6, "solar_cf", "1.7", "solar_cf 1.7 outside [0, 1] (row 6)"),
    (6, "demand_mw", "-5.0", "demand_mw -5.0 outside [0, inf] (row 6)"),
    # weights that sum to 1, one per cluster
    (None, "weight", (-0.5, 1.5), "weight -0.5 outside [0, 1] (row 2)"),
    (None, "weight", (1.5, -0.5), "weight 1.5 outside [0, 1] (row 2)"),
], ids=["repeated_hour", "cf_above_one", "negative_demand", "negative_weight", "weight_above_one"])
def test_representative_days_bad_row_names_file_and_row(tmp_path, row, column, value, message):
    ts = synthetic_ts(30, seed=41)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 2, seed=2)
    path = tmp_path / "rep.csv"
    save_representative_days(
        assemble_year(select_representative(clustering, dm), clustering.weights), path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row_no, cells in enumerate(rows, 2):
        if row is None:
            cells[column] = repr(value[int(cells["cluster"])])
        elif row_no == row:
            cells[column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_representative_days(path)


def test_representative_days_fractional_hour_rejected(tmp_path):
    path = tmp_path / "rep.csv"
    path.write_text("cluster,weight,hour,demand_mw,solar_cf,onshore_cf,offshore_cf\n"
                    "0,365.0,1.5,1.0,0.1,0.1,0.1\n")
    with pytest.raises(InputError, match=r"rep\.csv: non-integer .*'hour' \(row 2\)"):
        load_representative_days(path)


def test_year_summary_weights():
    ts = synthetic_ts(30, seed=43)
    dm = build_day_matrix(ts)
    clustering = kmeans(dm, 3, seed=0)
    rep = assemble_year(select_representative(clustering, dm), clustering.weights)
    assert rep.hour_weights.sum() == pytest.approx(8760.0, abs=1e-6)
    observed = summarize(np.stack([ts.series(n) for n in SERIES_NAMES]), np.ones(ts.n_hours))
    approx = summarize(rep.values, rep.hour_weights)
    assert observed.means.shape == approx.means.shape == (len(SERIES_NAMES),)
    assert observed.correlations.shape == approx.correlations.shape == (6,)


def test_metrics_reject_mismatched_series():
    obs = _unit_set({"a": [1.0, 2.0, 3.0], "b": [3.0, 1.0, 2.0]})
    apx = _unit_set({"a": [1.0, 2.0, 3.0]})
    for metric in (ree_av, nrmse_av, ce_av):
        with pytest.raises(InputError, match="different series"):
            metric(obs, apx)

