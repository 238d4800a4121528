"""Representative-day reduction of multi-year hourly data.

Days are clustered with k-means on a (days x 96) feature matrix
(24 hours x 4 series, each series z-scored). Each cluster contributes
one 24-hour profile (its medoid or centroid) weighted by the cluster's
share of days; the weighted profiles assemble into an approximated
8760-hour year. Approximation quality is scored with three duration
curve based metrics: relative energy error, normalized RMSE and average
pairwise correlation error.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (HOURS_PER_DAY, InputError, SERIES_NAMES, TimeSeriesSet, WorkerPool,
                     _parse_float, _parse_int, available_cpus, csv_rows)

log = logging.getLogger(__name__)

DAYS_PER_YEAR = 365
HOURS_PER_YEAR = HOURS_PER_DAY * DAYS_PER_YEAR  # 24 x 365 = 8760

N_SERIES = len(SERIES_NAMES)
DAY_VECTOR_LEN = N_SERIES * HOURS_PER_DAY  # 96 columns, series-major

MAX_ITER = 300  # Lloyd iterations
TOL = 1e-6      # largest centroid move that still counts as movement


# ---------------------------------------------------------------------------
# Day matrix


@dataclass(frozen=True)
class DayMatrix:
    """One row per complete day; 96 columns = 4 series x 24 hours.

    `normalized` feeds the clustering; `raw` keeps the original units
    for de-normalized profile output. Each series is z-scored with its
    mean and standard deviation over all days, so each series
    contributes comparably regardless of units.
    """

    normalized: np.ndarray  # (n_days, 96)
    raw: np.ndarray         # (n_days, 96)
    offsets: np.ndarray     # (4,) per-series mean
    scales: np.ndarray      # (4,) per-series standard deviation (1 if zero)

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


def build_day_matrix(ts: TimeSeriesSet) -> DayMatrix:
    """Lay each complete day's 4 series side by side in one 96-vector row."""
    if ts.n_days == 0:
        raise InputError("time series contains no complete days")

    by_day = ts.values.reshape(N_SERIES, ts.n_days, HOURS_PER_DAY).transpose(1, 0, 2)
    raw = by_day.reshape(ts.n_days, DAY_VECTOR_LEN)  # a copy: rows are days
    offsets = ts.values.mean(axis=1)
    sd = ts.values.std(axis=1)
    scales = np.where(sd > 0, sd, 1.0)  # zero variance: columns become 0

    normalized = raw.reshape(ts.n_days, N_SERIES, HOURS_PER_DAY) - offsets[:, None]
    normalized /= scales[:, None]
    return DayMatrix(normalized=normalized.reshape(ts.n_days, DAY_VECTOR_LEN), raw=raw,
                     offsets=offsets, scales=scales)


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


def _sq_distances(x: np.ndarray, centroids: np.ndarray, x_norms=None) -> np.ndarray:
    """(points, centroids) squared distances, (|x|^2 + |c|^2) - 2 x.c built
    in place; `x_norms` is `(x * x).sum(axis=1)` when the caller holds it.
    Doubling the product, not x, scales by a power of two either way, so the
    bits are those of `(2.0 * x) @ centroids.T`."""
    if x_norms is None:
        x_norms = (x * x).sum(axis=1)
    d2 = np.add.outer(x_norms, (centroids * centroids).sum(axis=1))
    product = x @ centroids.T
    product *= 2.0
    d2 -= product
    return np.maximum(d2, 0.0, out=d2)


def _init_centroids(x: np.ndarray, k: int, rng: np.random.Generator,
                    x_norms=None) -> np.ndarray:
    """k-means++ seeding. Each point's squared distance to its nearest
    chosen point is kept as a running minimum, so each pick computes the
    distances to the newest point only."""
    n = len(x)
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, _sq_distances(x, x[chosen[-1:]], x_norms)[:, 0])
        total = d2.sum()
        if total <= 0.0:
            taken = set(chosen)
            remaining = [i for i in range(n) if i not in taken]
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return x[chosen].copy()


def _assign(x, centroids, x_norms=None):
    """Nearest-centroid labels and the distances they were read from.

    Each empty cluster is reseeded (in place) with the point farthest
    from its own centroid and every point is reassigned; the returned
    (points, k) distances belong to the final centroids.
    """
    k = len(centroids)
    d2 = _sq_distances(x, centroids, x_norms)
    labels = np.argmin(d2, axis=1)
    for _ in range(k):
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if not len(empties):
            break
        dist_own = d2[np.arange(len(x)), labels]
        for cid in empties:
            far = int(np.argmax(dist_own))
            centroids[cid] = x[far]
            dist_own[far] = -np.inf  # don't reuse for another empty cluster
        d2 = _sq_distances(x, centroids, x_norms)
        labels = np.argmin(d2, axis=1)
    return labels, d2


def kmeans(dm: DayMatrix, k: int, seed=0) -> Clustering:
    """Lloyd's algorithm over day vectors from a k-means++ start,
    deterministic for a fixed seed.

    Stops when the largest centroid movement falls below TOL or after
    MAX_ITER iterations; empty clusters are reseeded with the point
    farthest from its own centroid.
    """
    if not 1 <= k <= dm.n_days:
        raise InputError(f"k={k} outside [1, {dm.n_days}]")
    x = dm.normalized
    x_norms = (x * x).sum(axis=1)  # fixed rows: one norm per day for every distance matrix
    rows = np.arange(len(x))
    rng = np.random.default_rng(seed)
    centroids = _init_centroids(x, k, rng, x_norms)

    labels, d2 = _assign(x, centroids, x_norms)
    history = [float(d2[rows, labels].sum())]

    for _ in range(MAX_ITER):
        new_centroids = np.empty_like(centroids)
        for cid in range(k):  # the sums and the one division of each cluster's mean
            np.add.reduce(x[labels == cid], axis=0, out=new_centroids[cid])
        new_centroids /= np.bincount(labels, minlength=k)[:, None]
        labels, d2 = _assign(x, new_centroids, x_norms)
        history.append(float(d2[rows, labels].sum()))
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < TOL:
            break

    counts = np.bincount(labels, minlength=k)
    weights = counts / dm.n_days
    medoids = np.empty(k, dtype=int)
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


# ---------------------------------------------------------------------------
# Approximation metrics


@dataclass(frozen=True)
class SeriesSummary:
    """What the metrics read of a weighted set of series, so the observed
    side is summarised once however many approximations it scores."""

    means: np.ndarray         # (series,) weighted mean per hour
    curves: np.ndarray        # (series, 8760) duration curve on the year grid
    ranges: np.ndarray        # (series,) largest minus smallest value
    correlations: np.ndarray  # (pairs,) weighted Pearson of pairs (i, j), i < j


def summarize(values, weights) -> SeriesSummary:
    """Summarise a (series, n) value block whose column j stands for
    weights[j] hours.

    Each duration curve sorts the values descending (stable) and reads
    them at the midpoints of 8760 evenly spaced duration fractions with
    step interpolation.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2 or weights.shape != values.shape[1:]:
        raise InputError("values must be a (series, n) block with one weight per column")
    if values.shape[1] == 0:
        raise InputError("empty series")
    n_series = len(values)
    grid = (np.arange(HOURS_PER_YEAR) + 0.5) / HOURS_PER_YEAR
    means = np.empty(n_series)
    curves = np.empty((n_series, HOURS_PER_YEAR))
    ranges = np.empty(n_series)
    for s, v in enumerate(values):
        means[s] = float((v * weights).sum()) / weights.sum()  # no BLAS dot: see `pearson`
        order = np.argsort(-v, kind="stable")
        desc, w = v[order], weights[order]
        idx = np.searchsorted(np.cumsum(w) / w.sum(), grid, side="left")
        curves[s] = desc[np.minimum(idx, len(desc) - 1)]
        ranges[s] = desc[0] - desc[-1]
    correlations = np.array([pearson(values[i], values[j], weights)
                             for i in range(n_series) for j in range(i + 1, n_series)])
    return SeriesSummary(means=means, curves=curves, ranges=ranges, correlations=correlations)


def _check_same_series(observed: SeriesSummary, approx: SeriesSummary) -> None:
    if len(observed.means) != len(approx.means):
        raise InputError("observed and approximated sets cover different series")


def ree_av(observed: SeriesSummary, approx: SeriesSummary) -> float:
    """Average relative energy error over series.

    Sums of the duration curves are compared after normalizing each side
    to its mean value per hour, so multi-year observations and a single
    approximated year are on the same footing.
    """
    _check_same_series(observed, approx)
    zero = np.flatnonzero(observed.means == 0.0)
    if len(zero):
        raise InputError(f"observed series {zero[0]} sums to zero")
    return float(np.mean(np.abs(observed.means - approx.means) / np.abs(observed.means)))


def nrmse_av(observed: SeriesSummary, approx: SeriesSummary) -> float:
    """Average normalized RMSE between duration curves.

    Both curves are read on the 8760-point duration grid; the per-series
    RMSE is normalized by the observed curve's value range.
    """
    _check_same_series(observed, approx)
    terms = []
    for s, value_range in enumerate(observed.ranges):
        if value_range == 0.0:
            raise InputError(f"observed series {s} has zero value range")
        rmse = float(np.sqrt(np.mean((observed.curves[s] - approx.curves[s]) ** 2)))
        terms.append(rmse / value_range)
    return float(np.mean(terms))


def pearson(x, y, weights=None) -> float:
    """(Weighted) Pearson correlation of two equally long series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InputError("series lengths differ")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    # numpy reductions, not BLAS dot products: OpenBLAS splits a long dot
    # across its threads, which would make the bits depend on their count
    wsum = w.sum()
    dx = x - (w * x).sum() / wsum
    dy = y - (w * y).sum() / wsum
    vx = (w * (dx * dx)).sum()
    vy = (w * (dy * dy)).sum()
    if vx <= 0.0 or vy <= 0.0:
        raise InputError("correlation undefined for zero-variance series")
    return float((w * (dx * dy)).sum() / np.sqrt(vx * vy))


def ce_av(observed: SeriesSummary, approx: SeriesSummary) -> float:
    """Average absolute error of pairwise correlations.

    Observed correlations use the chronological hourly values;
    approximated correlations are weighted by the representative hours'
    durations.
    """
    _check_same_series(observed, approx)
    n = len(observed.means)
    if n < 2:
        raise InputError("correlation error needs at least two series")
    total = 0.0
    for obs_corr, apx_corr in zip(observed.correlations, approx.correlations):
        total += abs(obs_corr - apx_corr)
    return float(2.0 / (n * (n - 1)) * total)


_METHOD_CODES = {"medoid": 0, "centroid": 1}  # a method's word in each k's RNG stream


def evaluate_k_range(ts: TimeSeriesSet, k_list, method: str = "medoid", seed=0) -> list[dict]:
    """Cluster and score each distinct k of `k_list` once; rows in ascending k.

    Each row holds k, the method, the three metrics and, under "year", the
    representative year they score. A k is clustered on the RNG stream of
    (seed, k, method), so its days do not depend on the other k listed,
    and the k values may run on `_sweep_workers` processes without
    changing a bit. The error raised is that of the smallest failing k.
    """
    if method not in _METHOD_CODES:
        raise InputError(f"unknown representative method '{method}'")
    ks = sorted({int(k) for k in k_list})
    dm = build_day_matrix(ts)
    distinct = distinct_rows(dm.normalized)
    if ks[-1] > distinct:
        raise InputError(f"max k {ks[-1]} exceeds the {distinct} distinct days "
                         f"of {dm.n_days} (lower --k or --sweep)")
    _check_varies(ts.values, "the observed data")

    rows = []
    # the calling process clusters the smallest k, the workers start from the
    # largest while the calling process summarises the observed series
    with WorkerPool(_sweep_workers(len(ks)), _score_k, dm, method, _seed_int(seed)) as pool:
        clustered = pool.in_order(ks)
        observed = summarize(ts.values, np.ones(ts.n_hours))
        for k, (year, approx) in zip(ks, clustered):
            metrics = {"ce_av": ce_av(observed, approx), "nrmse_av": nrmse_av(observed, approx),
                       "ree_av": ree_av(observed, approx)}
            log.info("k=%d (%s): ce=%.5f nrmse=%.5f ree=%.5f", k, method, *metrics.values())
            rows.append({"k": k, "method": method, **metrics, "year": year})
    return rows


def distinct_rows(x: np.ndarray) -> int:
    """The number of distinct rows of a finite 2-D array, `len(np.unique(x,
    axis=0))`; adding 0.0 turns -0.0 into 0.0, which np.unique counts as one."""
    return len({row.tobytes() for row in x + 0.0})


def _score_k(k: int, dm: DayMatrix, method: str,
             root: int) -> tuple[RepresentativeYear, SeriesSummary]:
    """The per-k work of the sweep: cluster `dm` into k days, assemble their
    year and summarise it for scoring against the observed series."""
    clustering = kmeans(dm, k, seed=[root, k, _METHOD_CODES[method]])
    year = assemble_year(select_representative(clustering, dm, method), clustering.weights)
    _check_varies(year.values, f"the k={k} representative days")
    return year, summarize(year.values, year.hour_weights)


# the variables a BLAS library reads its thread count from
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _sweep_workers(n_k: int) -> int:
    """Processes for a sweep of `n_k` values, the calling one included:
    the CPUs BLAS leaves free.

    Each k's matrix products run on the BLAS library's own threads, which
    take every CPU unless one of `_BLAS_THREAD_VARS` caps them (the largest
    set value counts), so default BLAS threading gives one sweep process
    and a one-thread BLAS one sweep process per CPU, at most one per k.
    """
    caps = [int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS) if v and v.isdigit() and int(v) > 0]
    blas = max(caps) if caps else available_cpus()
    return max(1, min(n_k, available_cpus() // blas))


def _check_varies(values: np.ndarray, where: str) -> None:
    """Correlation errors need every series to vary; name the first that does not."""
    for name, v in zip(SERIES_NAMES, values):
        if v.min() == v.max():
            raise InputError(f"correlation undefined for zero-variance series "
                             f"'{name}' (constant in {where})")


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
    """The year a `save_representative_days` file describes; each row a
    distinct (cluster, hour), its weight and capacity factors in [0, 1]."""
    path = Path(path)
    cells: dict[tuple[int, int], list[float]] = {}
    weights: dict[int, float] = {}
    for row_no, row in csv_rows(path, REPDAYS_COLUMNS):
        c = _parse_int(row["cluster"], path, row_no, "cluster")
        h = _parse_int(row["hour"], path, row_no, "hour")
        if not 1 <= h <= HOURS_PER_DAY:
            raise InputError(f"{path}: hour must be in 1..24 (row {row_no})")
        if (c, h) in cells:
            raise InputError(f"{path}: repeated hour {h} of cluster {c} (row {row_no})")
        w = _parse_float(row["weight"], path, row_no, "weight")
        if c in weights and weights[c] != w:
            raise InputError(f"{path}: inconsistent weight for cluster {c} (row {row_no})")
        weights[c] = w
        cells[c, h] = [_parse_float(row[col], path, row_no, col) for col in REPDAYS_COLUMNS[3:]]
        for col, value in [("weight", w), *zip(REPDAYS_COLUMNS[3:], cells[c, h])]:
            high = np.inf if col == "demand_mw" else 1.0
            if not 0.0 <= value <= high:
                raise InputError(f"{path}: {col} {value!r} outside [0, {high:g}] (row {row_no})")
    if not weights:
        raise InputError(f"{path}: no representative days found")
    if sorted(weights) != list(range(len(weights))):
        raise InputError(f"{path}: cluster ids must be 0..k-1")
    profiles = np.full((len(weights), N_SERIES, HOURS_PER_DAY), np.nan)
    for (c, h), vals in cells.items():
        profiles[c, :, h - 1] = vals
    for c, day in enumerate(profiles):
        if np.isnan(day).any():
            raise InputError(f"{path}: cluster {c} does not cover hours 1..24")
    return assemble_year(profiles, np.array([weights[c] for c in range(len(weights))]))
