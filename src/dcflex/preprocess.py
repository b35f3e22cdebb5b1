"""Raw trace to discretized, horizon-partitioned, aggregated job tables.

Workload (sum of compute_steps * resources) is conserved exactly by
discretization of short jobs and by aggregation; horizon partition truncates
workload by design. Aggregation clusters each day with its own generator;
the days of a table draw their k-means++ seeds in lockstep and are grouped
in one pass, with the bits of clustering each day on its own.
"""

from __future__ import annotations

import numpy as np

from .ingest import RawJobTable, write_rows
from .model import BaselineProfile, DataCenterSpec, JobTable, TimeGrid

JOB_STEP_COLUMNS = ("id", "submit_step", "complete_step", "compute_steps", "resources")
#: Cap on the Lloyd iterations of one k-means run.
KMEANS_MAX_ITER = 50


def zero_queue(table: RawJobTable) -> RawJobTable:
    """Set every submission time equal to the start time (zero queue time)."""
    return RawJobTable(
        ids=table.ids,
        submit=table.start.copy(),
        start=table.start,
        end=table.end,
        resources=table.resources,
        dropped=table.dropped,
        span=table.span,
    )


def discretize(table: RawJobTable, grid: TimeGrid) -> JobTable:
    """Round job start/end times onto the grid.

    Jobs whose rounded computing time is zero get one step and their
    resources rescaled so the workload (steps x resources) is preserved
    exactly. Requires a zero-queue table; the grid origin must not exceed
    the earliest start.
    """
    if len(table) == 0:
        return JobTable.empty()
    if not np.array_equal(table.submit, table.start):
        raise ValueError("discretize expects a zero-queue table (submit == start)")
    rel_start = (table.start - grid.origin) / grid.step_seconds
    rel_end = (table.end - grid.origin) / grid.step_seconds
    if rel_start.min() < -1e-9:
        raise ValueError("grid origin is later than the earliest job start")
    k1 = np.floor(rel_start + 0.5).astype(np.int64)
    k2 = np.floor(rel_end + 0.5).astype(np.int64)
    steps = k2 - k1
    resources = table.resources.copy()

    true_dur = table.end - table.start
    keep = true_dur > 0
    short = (steps == 0) & keep
    # a sub-step job sits in the step containing its midpoint (rounding the
    # start alone can push it one past the step it actually runs in)
    mid_step = np.floor((rel_start + rel_end) / 2.0).astype(np.int64)
    k1 = np.where(short, mid_step, k1)
    steps = np.where(short, 1, steps)
    resources = np.where(short, table.resources * true_dur / grid.step_seconds, resources)

    idx = np.flatnonzero(keep)
    return JobTable(
        ids=[table.ids[i] for i in idx],
        submit_step=k1[idx] + 1,
        compute_steps=steps[idx],
        resources=resources[idx],
    )


def partition_to_horizon(table: JobTable, horizon: tuple) -> JobTable:
    """Clip a job table to one optimization horizon.

    horizon is an inclusive (start_step, end_step) interval in the table's
    step indexing. Jobs overlapping a boundary keep only their baseline
    running steps inside the horizon; jobs entirely outside are dropped.
    Returned steps are local to the horizon (start maps to step 1).
    """
    h_start, h_end = int(horizon[0]), int(horizon[1])
    if h_start < 1 or h_end < h_start:
        raise ValueError(f"bad horizon {horizon}")
    if len(table) == 0:
        return table
    first = np.maximum(table.submit_step, h_start)
    last = np.minimum(table.complete_step, h_end)
    inside = first <= last
    idx = np.flatnonzero(inside)
    return JobTable(
        ids=[table.ids[i] for i in idx],
        submit_step=first[idx] - h_start + 1,
        compute_steps=last[idx] - first[idx] + 1,
        resources=table.resources[idx],
    )


def _choose(w: np.ndarray, n_rows: np.ndarray, rngs) -> np.ndarray:
    """One draw per row i of w, as `rngs[i].choice(n, p=w[i, :n] / w[i, :n].sum())`.

    n is n_rows[i]; a row's entries past n must be 0, and w is overwritten.
    Each row takes numpy's steps with their bits: the pairwise sum of its
    own n entries, the divide, the prefix sums, the divide by the one at
    its last entry, and one `random()` u whose draw is the count of
    `cdf <= u`. The padding follows a row's entries, so their prefix sums
    keep their bits, and it divides to exactly 1.0, which no u in [0, 1)
    reaches.
    """
    w /= np.array([w[i, :n].sum() for i, n in enumerate(n_rows)])[:, None]
    cdf = np.cumsum(w, axis=1, out=w)
    cdf /= cdf[np.arange(len(w)), n_rows - 1][:, None]
    return np.array([cdf[i].searchsorted(rng.random(), "right") for i, rng in enumerate(rngs)])


def _seed_centroids(ux, uy, slot, row_point, n_rows, k, rngs) -> np.ndarray:
    """k-means++ seeds of several days, drawn in lockstep; returns (days, k, 2).

    ux and uy hold the distinct points of every day, slot the day of each.
    Row i of row_point maps day i's n_rows[i] rows, in ascending order, to
    their points and is padded with len(ux), a point at distance 0. rngs
    holds one generator per day, which makes the draws of seeding that
    day's rows one by one: `integers(n)` for the first seed, then each
    seed by `_choose` over the rows' squared distances to the nearest seed.
    Each day must have more than k distinct points: then some point is
    never a seed, so a day's weights never sum to zero.
    """
    days = np.arange(len(rngs))
    centroids = np.empty((len(rngs), k, 2))
    picks = row_point[days, [int(rng.integers(n)) for rng, n in zip(rngs, n_rows)]]
    d2 = np.zeros(len(ux) + 1)
    for c in range(k):
        if c:
            picks = row_point[days, _choose(d2.take(row_point, mode="clip"), n_rows, rngs)]
        cx, cy = ux[picks], uy[picks]
        centroids[:, c, 0], centroids[:, c, 1] = cx, cy
        dist = (ux - cx[slot]) ** 2 + (uy - cy[slot]) ** 2
        d2[:-1] = np.minimum(d2[:-1], dist) if c else dist
    return centroids


def _lloyd(ux, uy, counts, centroids) -> np.ndarray:
    """Labels of Lloyd's iterations on distinct points weighted by counts.

    Ties in assignment go to the lowest centroid index; an empty cluster
    keeps its centroid. Coordinates are integer steps held in float64, so
    the weighted centroid sums are exact and sum / count has the bits of
    the mean over the member rows.
    """
    k = len(centroids)
    labels = np.zeros(len(ux), dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dist = (ux[:, None] - centroids[:, 0]) ** 2 + (uy[:, None] - centroids[:, 1]) ** 2
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        size = np.bincount(labels, weights=counts, minlength=k)
        filled = size > 0
        for axis, coord in enumerate((ux, uy)):
            total = np.bincount(labels, weights=coord * counts, minlength=k)
            centroids[filled, axis] = total[filled] / size[filled]
    return labels


def _kmeans_labels(start, complete, day, n_days, k, rngs) -> np.ndarray:
    """Per-day k-means labels of every row, with k-means++ seeding.

    Points are (start, complete) step pairs, both in the same unit, so no
    feature scaling is applied; day numbers the rows' days 0..n_days-1 and
    rngs holds one generator per day. A day with at most k distinct points
    labels each by its index and draws nothing. The work runs on the
    distinct points of each day, weighted by how many rows sit on them,
    and the labels are bit-identical to clustering a day's rows one by
    one: its k-means++ draws are still taken over all its rows (see
    `_seed_centroids`).
    """
    # distinct points in (start, complete) order; the day follows from the
    # start, so each day's points form one block
    _, first, point_of, counts = np.unique(start * (complete.max() + 1) + complete,
                                           return_index=True, return_inverse=True,
                                           return_counts=True)
    ux, uy = start[first].astype(np.float64), complete[first].astype(np.float64)
    point_day = day[first]
    point_lo = np.searchsorted(point_day, np.arange(n_days + 1))
    point_label = np.arange(len(first)) - point_lo[point_day]

    drawing = np.flatnonzero(np.diff(point_lo) > k)
    if len(drawing):
        # the points of a day that draws nothing are measured against the
        # first drawing day's seeds, and no row of row_point reads them
        slot_of = np.zeros(n_days, dtype=np.int64)
        slot_of[drawing] = np.arange(len(drawing))
        n_rows = np.bincount(day)[drawing]
        row_point = np.full((len(drawing), n_rows.max()), len(first))
        for i, d in enumerate(drawing):
            row_point[i, :n_rows[i]] = point_of[day == d]
        centroids = _seed_centroids(ux, uy, slot_of[point_day], row_point, n_rows, k,
                                    [rngs[d] for d in drawing])
        for i, d in enumerate(drawing):
            block = slice(point_lo[d], point_lo[d + 1])
            point_label[block] = _lloyd(ux[block], uy[block], counts[block], centroids[i])
    return point_label[point_of]


def aggregate_daily(
    table: JobTable,
    grid: TimeGrid,
    clusters_per_day: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> JobTable:
    """Aggregate each day's jobs into at most clusters_per_day jobs.

    Jobs are grouped by the calendar day of their submit step and clustered
    on (start, complete) step pairs, each day with its own generator
    spawned from seed. Each cluster becomes one job spanning the earliest
    start to the latest completion, with resources chosen so the cluster
    workload is preserved exactly. Empty clusters are dropped. Output is
    ordered by (day, start, completion, first row) for determinism.

    Each cluster's workload is numpy's pairwise `np.sum` of its rows'
    workloads in ascending row order, so together with the bit-identical
    labels of `_kmeans_labels` the result has the same bits as clustering
    and aggregating each day job by job.
    """
    if clusters_per_day < 1:
        raise ValueError("clusters_per_day must be >= 1")
    if len(table) == 0:
        return table
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    start, complete = table.submit_step, table.complete_step
    days, day = np.unique((start - 1) // grid.steps_per_day, return_inverse=True)
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(len(days))]
    labels = _kmeans_labels(start, complete, day, len(days), clusters_per_day, rngs)

    # rows grouped by (day, cluster), ascending within each cluster
    key = day * clusters_per_day + labels
    order = np.argsort(key, kind="stable")
    key = key[order]
    lo = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    hi = np.r_[lo[1:], len(order)]
    earliest = np.minimum.reduceat(start[order], lo)
    latest = np.maximum.reduceat(complete[order], lo)
    cluster_day = day[order[lo]]
    ranked = np.lexsort((order[lo], latest, earliest, cluster_day))
    row_work = table.compute_steps[order] * table.resources[order]
    work = np.array([row_work[lo[c]:hi[c]].sum() for c in ranked])
    agg_steps = latest[ranked] - earliest[ranked] + 1
    ranked_day = cluster_day[ranked]
    rank = np.arange(len(ranked)) - np.searchsorted(ranked_day, ranked_day)
    ids = [f"d{d}c{c}" for d, c in zip(days[ranked_day].tolist(), rank.tolist())]
    return JobTable(ids, earliest[ranked], agg_steps, work / agg_steps)


def baseline_profile(table: JobTable, spec: DataCenterSpec, grid: TimeGrid) -> BaselineProfile:
    """Utilization and power of the baseline full-rate schedule.

    Every job runs at full rate from its submit step for compute_steps.
    Raises if utilization exceeds 1 anywhere, which signals an inconsistent
    total_resources.
    """
    usage = np.zeros(grid.steps + 1)
    if len(table):
        if table.complete_step.max() > grid.steps:
            raise ValueError("job table extends beyond the grid horizon")
        np.add.at(usage, table.submit_step - 1, table.resources)
        np.add.at(usage, table.complete_step, -table.resources)
    util = np.cumsum(usage[:-1]) / spec.total_resources
    peak = float(util.max()) if util.size else 0.0
    if peak > 1.0 + 1e-9:
        raise ValueError(
            f"baseline utilization reaches {peak:.4f} > 1; total_resources inconsistent"
        )
    return BaselineProfile.from_utilization(np.clip(util, 0.0, 1.0), spec)


def utilization_stats(profiles, results) -> dict:
    """Pearson correlations between utilization statistics and outcomes.

    profiles is a list of BaselineProfile, results a matching list of
    (normalized flexibility, average flexibility cost) pairs; at least
    three data centers are required. Returns a nested mapping
    ``{"mean_util"|"std_util": {"norm_flex"|"acof": r}}``.
    """
    if len(profiles) != len(results):
        raise ValueError("profiles and results must have equal length")
    if len(profiles) < 3:
        raise ValueError("need at least 3 data centers for a correlation table")
    cols = {
        "mean_util": np.array([p.mean_util for p in profiles]),
        "std_util": np.array([p.std_util for p in profiles]),
        "norm_flex": np.array([r[0] for r in results], dtype=np.float64),
        "acof": np.array([r[1] for r in results], dtype=np.float64),
    }
    for name, col in cols.items():
        if np.std(col) == 0:
            raise ValueError(f"column {name!r} has zero variance")
    out = {}
    for a in ("mean_util", "std_util"):
        out[a] = {}
        for b in ("norm_flex", "acof"):
            r = np.corrcoef(cols[a], cols[b])[0, 1]
            out[a][b] = float(r)
    return out


def write_job_table(table: JobTable, path) -> None:
    """Serialize a step-indexed JobTable to the canonical CSV layout."""
    write_rows(path, JOB_STEP_COLUMNS,
               ((table.ids[i], int(table.submit_step[i]), int(table.complete_step[i]),
                 int(table.compute_steps[i]), repr(float(table.resources[i])))
                for i in range(len(table))))
