"""Raw trace to discretized, horizon-partitioned, aggregated job tables.

Workload (sum of compute_steps * resources) is conserved exactly by
discretization of short jobs and by aggregation; horizon partition truncates
workload by design. Per-day aggregation is independent across days and may
run in parallel; results are merged in day order for determinism.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .ingest import RawJobTable
from .model import BaselineProfile, DataCenterSpec, JobTable, TimeGrid

JOB_STEP_COLUMNS = ("id", "submit_step", "complete_step", "compute_steps", "resources")


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


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            max_iter: int = 50) -> np.ndarray:
    """Plain k-means on raw features with k-means++ seeding.

    Returns integer labels. Points are (start, complete) step pairs, both
    in the same unit, so no feature scaling is applied. Ties in assignment
    go to the lowest centroid index; empty clusters keep their centroid and
    are dropped by the caller. Deterministic for a given rng state.

    The work runs on the distinct points, each weighted by how many rows
    sit on it, and the labels are bit-identical to clustering every row:
    each k-means++ draw is still taken over all n rows, with the distances
    of the distinct points expanded to the rows, so the generator makes the
    same draws; coordinates are integer steps held in float64, so the
    weighted centroid sums are exact and sum / count has the bits of the
    mean over the member rows.
    """
    n = len(points)
    uniq, inverse, counts = np.unique(points, axis=0, return_inverse=True,
                                      return_counts=True)
    if len(uniq) <= k:
        return inverse.astype(np.int64)
    ux, uy = uniq[:, 0], uniq[:, 1]

    # k-means++ initialization; with more than k distinct points some point
    # is never a centroid, so the drawing weights never sum to zero
    centroids = np.empty((k, 2), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = (ux - centroids[0, 0]) ** 2 + (uy - centroids[0, 1]) ** 2
    for c in range(1, k):
        row_d2 = d2[inverse]
        centroids[c] = points[int(rng.choice(n, p=row_d2 / row_d2.sum()))]
        d2 = np.minimum(d2, (ux - centroids[c, 0]) ** 2 + (uy - centroids[c, 1]) ** 2)

    labels = np.zeros(len(uniq), dtype=np.int64)
    for _ in range(max_iter):
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
    return labels[inverse]


def aggregate_daily(
    table: JobTable,
    grid: TimeGrid,
    clusters_per_day: int = 100,
    seed: int | np.random.SeedSequence = 0,
) -> JobTable:
    """Aggregate each day's jobs into at most clusters_per_day jobs.

    Jobs are grouped by the calendar day of their submit step and clustered
    on (start, complete) step pairs. Each cluster becomes one job spanning
    the earliest start to the latest completion, with resources chosen so
    the cluster workload is preserved exactly. Empty clusters are dropped.
    Output is ordered by (day, start, completion, first row) for
    determinism.

    Each cluster's workload is summed over its rows in ascending row
    order, so together with the bit-identical labels of `_kmeans` the
    result has the same bits as aggregating job by job.
    """
    if clusters_per_day < 1:
        raise ValueError("clusters_per_day must be >= 1")
    if len(table) == 0:
        return table
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    per_day = grid.steps_per_day
    day_of = (table.submit_step - 1) // per_day
    complete = table.complete_step
    out_ids, out_submit, out_steps, out_res = [], [], [], []
    days = np.unique(day_of)
    day_rngs = {int(d): np.random.default_rng(s)
                for d, s in zip(days, seed_seq.spawn(len(days)))}
    for day in days:
        members = np.flatnonzero(day_of == day)
        starts = table.submit_step[members]
        completes = complete[members]
        points = np.column_stack([starts, completes]).astype(np.float64)
        labels = _kmeans(points, clusters_per_day, day_rngs[int(day)])
        # rows grouped by cluster, ascending within each cluster
        order = np.argsort(labels, kind="stable")
        rows = members[order]
        _, lo = np.unique(labels[order], return_index=True)
        hi = np.r_[lo[1:], len(rows)]
        earliest = np.minimum.reduceat(starts[order], lo)
        latest = np.maximum.reduceat(completes[order], lo)
        ranked = np.lexsort((rows[lo], latest, earliest))
        row_work = table.compute_steps[rows] * table.resources[rows]
        work = np.array([np.sum(row_work[lo[c]:hi[c]]) for c in ranked])
        agg_steps = latest[ranked] - earliest[ranked] + 1
        out_ids.extend(f"d{int(day)}c{ci}" for ci in range(len(ranked)))
        out_submit.append(earliest[ranked])
        out_steps.append(agg_steps)
        out_res.append(work / agg_steps)
    return JobTable(out_ids, np.concatenate(out_submit), np.concatenate(out_steps),
                    np.concatenate(out_res))


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
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(JOB_STEP_COLUMNS)
        for i in range(len(table)):
            writer.writerow([
                table.ids[i],
                int(table.submit_step[i]),
                int(table.complete_step[i]),
                int(table.compute_steps[i]),
                repr(float(table.resources[i])),
            ])


def read_job_table(path) -> JobTable:
    """Read a step-indexed JobTable written by write_job_table."""
    ids, submit, steps, res = [], [], [], []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != JOB_STEP_COLUMNS:
            raise ValueError(f"unexpected job table header {header!r}")
        for row in reader:
            if not row:
                continue
            ids.append(row[0])
            submit.append(int(row[1]))
            steps.append(int(row[3]))
            res.append(float(row[4]))
    return JobTable(ids, submit, steps, res)
