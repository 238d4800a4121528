"""Representative-day reduction of multi-year hourly data.

Days are clustered with k-means on a (days x 96) feature matrix
(24 hours x 4 series, normalized per series). Each cluster contributes
one 24-hour profile (its medoid or centroid) weighted by the cluster's
share of days; the weighted profiles assemble into an approximated
8760-hour year. Approximation quality is scored with three duration
curve based metrics: relative energy error, normalized RMSE and average
pairwise correlation error.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (HOURS_PER_DAY, InputError, SERIES_NAMES, TimeSeriesSet, _parse_float,
                     _parse_int)

log = logging.getLogger(__name__)

DAYS_PER_YEAR = 365
HOURS_PER_YEAR = HOURS_PER_DAY * DAYS_PER_YEAR  # 24 x 365 = 8760

N_SERIES = len(SERIES_NAMES)
DAY_VECTOR_LEN = N_SERIES * HOURS_PER_DAY  # 96 columns, series-major

NORMALIZATIONS = ("zscore", "minmax", "none")


# ---------------------------------------------------------------------------
# Day matrix


@dataclass(frozen=True)
class DayMatrix:
    """One row per complete day; 96 columns = 4 series x 24 hours.

    `normalized` feeds the clustering; `raw` keeps the original units
    for de-normalized profile output. Normalization statistics are per
    series (scalar offset/scale over all days), so each series
    contributes comparably regardless of units.
    """

    normalized: np.ndarray  # (n_days, 96)
    raw: np.ndarray         # (n_days, 96)
    day_dates: np.ndarray   # calendar day per row
    normalization: str
    offsets: np.ndarray     # (4,) per-series offset
    scales: np.ndarray      # (4,) per-series scale

    @property
    def n_days(self) -> int:
        return self.normalized.shape[0]

    def denormalize(self, vec: np.ndarray) -> np.ndarray:
        """Invert normalization of a 96-vector (or matrix of them)."""
        out = np.asarray(vec, dtype=float).copy()
        cols = out.reshape(*out.shape[:-1], N_SERIES, HOURS_PER_DAY)
        cols *= self.scales[:, None]
        cols += self.offsets[:, None]
        return out


def build_day_matrix(ts: TimeSeriesSet, normalization: str = "zscore") -> DayMatrix:
    """Stack each complete day's 4 series into one 96-vector row."""
    if normalization not in NORMALIZATIONS:
        raise InputError(f"unknown normalization '{normalization}'")
    if ts.n_days == 0:
        raise InputError("time series contains no complete days")

    raw = np.empty((ts.n_days, DAY_VECTOR_LEN))
    for s, name in enumerate(SERIES_NAMES):
        raw[:, s * HOURS_PER_DAY:(s + 1) * HOURS_PER_DAY] = ts.day_view(name)

    offsets = np.zeros(N_SERIES)
    scales = np.ones(N_SERIES)
    for s, name in enumerate(SERIES_NAMES):
        v = ts.series(name)
        if normalization == "zscore":
            offsets[s] = v.mean()
            sd = v.std()
            scales[s] = sd if sd > 0 else 1.0  # zero variance: columns become 0
        elif normalization == "minmax":
            offsets[s] = v.min()
            rng = v.max() - v.min()
            scales[s] = rng if rng > 0 else 1.0

    normalized = raw.copy().reshape(ts.n_days, N_SERIES, HOURS_PER_DAY)
    normalized -= offsets[:, None]
    normalized /= scales[:, None]
    normalized = normalized.reshape(ts.n_days, DAY_VECTOR_LEN)

    return DayMatrix(
        normalized=normalized,
        raw=raw,
        day_dates=ts.day_dates,
        normalization=normalization,
        offsets=offsets,
        scales=scales,
    )


# ---------------------------------------------------------------------------
# k-means


@dataclass(frozen=True)
class Clustering:
    k: int
    assignment: np.ndarray    # (n_days,) cluster id per day
    centroids: np.ndarray     # (k, 96) in normalized space
    weights: np.ndarray       # (k,) cluster share of days, sums to 1
    medoid_rows: np.ndarray   # (k,) day-matrix row index of each medoid
    inertia_history: tuple[float, ...]  # within-cluster SSE per Lloyd iteration

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (x * x).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * x @ centroids.T
    )
    return np.maximum(d2, 0.0)


def _init_centroids(x: np.ndarray, k: int, rng: np.random.Generator, init: str) -> np.ndarray:
    n = len(x)
    if init == "forgy":
        return x[rng.choice(n, size=k, replace=False)].copy()
    if init != "kmeans++":
        raise InputError(f"unknown init '{init}'")
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


def _repair_empty(x, centroids, labels):
    """Reseed each empty cluster with the point farthest from its centroid."""
    k = len(centroids)
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
            dist_own[far] = -np.inf  # don't reuse for another empty cluster
        labels = np.argmin(_sq_distances(x, centroids), axis=1)
    return labels


def kmeans(dm: DayMatrix, k: int, seed=0, max_iter: int = 300, tol: float = 1e-6,
           init: str = "kmeans++") -> Clustering:
    """Lloyd's algorithm over day vectors, deterministic for a fixed seed.

    Stops when the largest centroid movement falls below `tol` or after
    `max_iter` iterations; empty clusters are reseeded with the point
    farthest from its own centroid.
    """
    if not 1 <= k <= dm.n_days:
        raise InputError(f"k={k} outside [1, {dm.n_days}]")
    x = dm.normalized
    rng = np.random.default_rng(seed)
    centroids = _init_centroids(x, k, rng, init)

    labels = np.argmin(_sq_distances(x, centroids), axis=1)
    labels = _repair_empty(x, centroids, labels)
    history = [float(_sq_distances(x, centroids)[np.arange(len(x)), labels].sum())]

    for _ in range(max_iter):
        new_centroids = np.empty_like(centroids)
        for cid in range(k):
            new_centroids[cid] = x[labels == cid].mean(axis=0)
        new_labels = np.argmin(_sq_distances(x, new_centroids), axis=1)
        new_labels = _repair_empty(x, new_centroids, new_labels)
        history.append(float(_sq_distances(x, new_centroids)[np.arange(len(x)), new_labels].sum()))
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids, labels = new_centroids, new_labels
        if shift < tol:
            break

    counts = np.bincount(labels, minlength=k)
    weights = counts / dm.n_days
    medoids = np.empty(k, dtype=int)
    d2 = _sq_distances(x, centroids)
    for cid in range(k):
        members = np.flatnonzero(labels == cid)
        medoids[cid] = members[np.argmin(d2[members, cid])]  # argmin: lowest index wins ties

    return Clustering(
        k=k,
        assignment=labels,
        centroids=centroids,
        weights=weights,
        medoid_rows=medoids,
        inertia_history=tuple(history),
    )


def select_representative(clustering: Clustering, dm: DayMatrix,
                          method: str = "medoid") -> np.ndarray:
    """Per-cluster 24-hour profiles per series, de-normalized.

    Returns an array of shape (k, 4, 24) in original units. Medoids are
    the raw values of the selected day; centroids are the de-normalized
    cluster means with capacity factors clipped back into [0, 1].
    """
    if method == "medoid":
        profiles = dm.raw[clustering.medoid_rows].reshape(clustering.k, N_SERIES, HOURS_PER_DAY)
        return profiles.copy()
    if method == "centroid":
        profiles = dm.denormalize(clustering.centroids).reshape(clustering.k, N_SERIES, HOURS_PER_DAY)
        profiles[:, 1:, :] = np.clip(profiles[:, 1:, :], 0.0, 1.0)
        profiles[:, 0, :] = np.maximum(profiles[:, 0, :], 0.0)
        return profiles
    raise InputError(f"unknown representative method '{method}'")


# ---------------------------------------------------------------------------
# Representative year


@dataclass(frozen=True)
class RepresentativeYear:
    """k weighted representative days concatenated into one 8760-hour year.

    `values[s, c*24+h]` is series s at hour h of cluster c's day;
    `hour_weights[c*24+h]` is the number of year-hours that sample
    stands for (cluster weight x 365). Weights sum to 8760.
    """

    values: np.ndarray        # (4, k*24)
    hour_weights: np.ndarray  # (k*24,)
    cluster_weights: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return len(self.cluster_weights)

    def series(self, name: str) -> np.ndarray:
        return self.values[SERIES_NAMES.index(name)]

    @property
    def total_hours(self) -> float:
        return float(self.hour_weights.sum())

    def day_profile(self, cluster: int) -> np.ndarray:
        """(4, 24) profile of one representative day."""
        return self.values[:, cluster * HOURS_PER_DAY:(cluster + 1) * HOURS_PER_DAY]


def assemble_year(profiles: np.ndarray, weights: np.ndarray) -> RepresentativeYear:
    """Scale and concatenate representative days into a weighted year.

    Each hour of cluster i stands for weights[i] x 365 hours; fractional
    durations are kept exact rather than rounded to whole days.
    """
    profiles = np.asarray(profiles, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if profiles.ndim != 3 or profiles.shape[1:] != (N_SERIES, HOURS_PER_DAY):
        raise InputError(f"profiles must have shape (k, {N_SERIES}, {HOURS_PER_DAY})")
    if len(weights) != profiles.shape[0]:
        raise InputError("one weight per cluster required")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise InputError(f"cluster weights must sum to 1 (got {weights.sum()!r})")

    k = profiles.shape[0]
    values = np.concatenate([profiles[c] for c in range(k)], axis=1)
    hour_weights = np.repeat(weights * DAYS_PER_YEAR, HOURS_PER_DAY)
    return RepresentativeYear(values=values, hour_weights=hour_weights,
                              cluster_weights=weights.copy())


def reduce_to_representative_year(ts: TimeSeriesSet, k: int, method: str = "medoid",
                                  seed=0, normalization: str = "zscore") -> RepresentativeYear:
    """Full pipeline: day matrix -> k-means -> profiles -> weighted year."""
    return _reduce(build_day_matrix(ts, normalization), k, method, seed)


def _reduce(dm: DayMatrix, k: int, method: str, seed) -> RepresentativeYear:
    """Cluster on the RNG stream of (seed, k, method), so the days saved
    for a k and the metrics scored for the same k describe one clustering,
    and k values may be computed in any order."""
    code = {"medoid": 0, "centroid": 1}.get(method)
    if code is None:
        raise InputError(f"unknown representative method '{method}'")
    clustering = kmeans(dm, int(k), seed=[_seed_int(seed), int(k), code])
    return assemble_year(select_representative(clustering, dm, method), clustering.weights)


# ---------------------------------------------------------------------------
# Duration curves and metrics


@dataclass(frozen=True)
class WeightedSeries:
    """Sample values with the number of hours each sample represents."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise InputError("values and weights must align")
        if len(self.values) == 0:
            raise InputError("empty series")


@dataclass(frozen=True)
class DurationCurve:
    """Values sorted descending with the duration each value persists."""

    values: np.ndarray
    weights: np.ndarray

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def duration_curve(values, weights=None) -> DurationCurve:
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise InputError("empty series")
    order = np.argsort(-values, kind="stable")
    return DurationCurve(values=values[order], weights=weights[order])


def resample_duration_curve(dc: DurationCurve, points: int = HOURS_PER_YEAR) -> np.ndarray:
    """Sample a duration curve at `points` evenly spaced duration fractions
    (midpoints) with step interpolation."""
    frac = dc.cumulative / dc.total
    grid = (np.arange(points) + 0.5) / points
    idx = np.searchsorted(frac, grid, side="left")
    return dc.values[np.minimum(idx, len(dc.values) - 1)]


def ts_series_set(ts: TimeSeriesSet) -> dict[str, WeightedSeries]:
    """Observed chronological hours, one hour of duration each."""
    return {
        name: WeightedSeries(ts.series(name), np.ones(ts.n_hours))
        for name in SERIES_NAMES
    }


def rep_series_set(rep: RepresentativeYear) -> dict[str, WeightedSeries]:
    """The weighted representative hours of an assembled year."""
    return {
        name: WeightedSeries(rep.series(name), rep.hour_weights)
        for name in SERIES_NAMES
    }


def _check_same_series(observed, approx):
    if set(observed) != set(approx):
        raise InputError("observed and approximated sets cover different series")


def ree_av(observed: dict[str, WeightedSeries], approx: dict[str, WeightedSeries]) -> float:
    """Average relative energy error over series.

    Sums of the duration curves are compared after normalizing each side
    to its mean value per hour, so multi-year observations and a single
    approximated year are on the same footing.
    """
    _check_same_series(observed, approx)
    terms = []
    for name, obs in observed.items():
        apx = approx[name]
        obs_sum = float(obs.values @ obs.weights)
        if obs_sum == 0.0:
            raise InputError(f"observed series '{name}' sums to zero")
        mean_obs = obs_sum / obs.weights.sum()
        mean_apx = float(apx.values @ apx.weights) / apx.weights.sum()
        terms.append(abs(mean_obs - mean_apx) / abs(mean_obs))
    return float(np.mean(terms))


def nrmse_av(observed: dict[str, WeightedSeries], approx: dict[str, WeightedSeries],
             points: int = HOURS_PER_YEAR) -> float:
    """Average normalized RMSE between duration curves.

    Both curves are resampled onto `points` evenly spaced duration
    fractions; the per-series RMSE is normalized by the observed curve's
    value range.
    """
    _check_same_series(observed, approx)
    terms = []
    for name, obs in observed.items():
        apx = approx[name]
        dc_obs = duration_curve(obs.values, obs.weights)
        dc_apx = duration_curve(apx.values, apx.weights)
        value_range = float(dc_obs.values[0] - dc_obs.values[-1])
        if value_range == 0.0:
            raise InputError(f"observed series '{name}' has zero value range")
        g_obs = resample_duration_curve(dc_obs, points)
        g_apx = resample_duration_curve(dc_apx, points)
        rmse = float(np.sqrt(np.mean((g_obs - g_apx) ** 2)))
        terms.append(rmse / value_range)
    return float(np.mean(terms))


def pearson(x, y, weights=None) -> float:
    """(Weighted) Pearson correlation of two equally long series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InputError("series lengths differ")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    wsum = w.sum()
    dx = x - (w @ x) / wsum
    dy = y - (w @ y) / wsum
    vx = w @ (dx * dx)
    vy = w @ (dy * dy)
    if vx <= 0.0 or vy <= 0.0:
        raise InputError("correlation undefined for zero-variance series")
    return float((w @ (dx * dy)) / np.sqrt(vx * vy))


def ce_av(observed: dict[str, WeightedSeries], approx: dict[str, WeightedSeries]) -> float:
    """Average absolute error of pairwise correlations.

    Observed correlations use the chronological hourly values;
    approximated correlations are weighted by the representative hours'
    durations.
    """
    _check_same_series(observed, approx)
    names = list(observed)
    if len(names) < 2:
        raise InputError("correlation error needs at least two series")
    total = 0.0
    pairs = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            obs_corr = pearson(observed[names[i]].values, observed[names[j]].values,
                               observed[names[i]].weights)
            apx_corr = pearson(approx[names[i]].values, approx[names[j]].values,
                               approx[names[i]].weights)
            total += abs(obs_corr - apx_corr)
            pairs += 1
    n = len(names)
    return float(2.0 / (n * (n - 1)) * total)


def evaluate_k_range(ts: TimeSeriesSet, k_list, method: str = "medoid", seed=0,
                     normalization: str = "zscore") -> list[dict]:
    """Score a range of cluster counts; one row per k, each clustered as
    `reduce_to_representative_year` clusters that k."""
    dm = build_day_matrix(ts, normalization)
    if max(k_list) > dm.n_days:
        raise InputError(f"max k {max(k_list)} exceeds day count {dm.n_days}")
    observed = ts_series_set(ts)
    rows = []
    for k in k_list:
        approx = rep_series_set(_reduce(dm, k, method, seed))
        rows.append({
            "k": int(k),
            "method": method,
            "ce_av": ce_av(observed, approx),
            "nrmse_av": nrmse_av(observed, approx),
            "ree_av": ree_av(observed, approx),
        })
        log.info("k=%d (%s): ce=%.5f nrmse=%.5f ree=%.5f", k, method,
                 rows[-1]["ce_av"], rows[-1]["nrmse_av"], rows[-1]["ree_av"])
    return rows


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise InputError("seed must be an integer")


# ---------------------------------------------------------------------------
# Persistence


REPDAYS_COLUMNS = ("cluster", "weight", "hour") + tuple(
    "demand_mw" if n == "demand" else n for n in SERIES_NAMES
)


def save_representative_days(rep: RepresentativeYear, path) -> None:
    """Write one row per (cluster, hour) with the cluster's weight."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPDAYS_COLUMNS)
        for c in range(rep.k):
            day = rep.day_profile(c)
            for h in range(HOURS_PER_DAY):
                writer.writerow(
                    [c, repr(float(rep.cluster_weights[c])), h + 1]
                    + [repr(float(day[s, h])) for s in range(N_SERIES)]
                )


def load_representative_days(path) -> RepresentativeYear:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REPDAYS_COLUMNS if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        by_cluster: dict[int, dict[int, list[float]]] = {}
        weights: dict[int, float] = {}
        for row_no, row in enumerate(reader, start=2):
            c = _parse_int(row["cluster"], path, row_no, "cluster")
            h = _parse_int(row["hour"], path, row_no, "hour")
            if not 1 <= h <= HOURS_PER_DAY:
                raise InputError(f"{path}: hour must be in 1..24 (row {row_no})")
            w = _parse_float(row["weight"], path, row_no, "weight")
            if c in weights and weights[c] != w:
                raise InputError(f"{path}: inconsistent weight for cluster {c} (row {row_no})")
            weights[c] = w
            vals = [_parse_float(row[col], path, row_no, col) for col in REPDAYS_COLUMNS[3:]]
            by_cluster.setdefault(c, {})[h] = vals
    if not by_cluster:
        raise InputError(f"{path}: no representative days found")
    clusters = sorted(by_cluster)
    if clusters != list(range(len(clusters))):
        raise InputError(f"{path}: cluster ids must be 0..k-1")
    profiles = np.empty((len(clusters), N_SERIES, HOURS_PER_DAY))
    for c in clusters:
        hours = by_cluster[c]
        if sorted(hours) != list(range(1, HOURS_PER_DAY + 1)):
            raise InputError(f"{path}: cluster {c} does not cover hours 1..24")
        for h, vals in hours.items():
            profiles[c, :, h - 1] = vals
    w = np.array([weights[c] for c in clusters])
    return assemble_year(profiles, w)
