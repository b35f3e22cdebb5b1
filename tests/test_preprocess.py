import numpy as np
import pytest

from dcflex.ingest import RawJobTable
from dcflex.model import DataCenterSpec, JobTable, TimeGrid
from dcflex.preprocess import (
    aggregate_daily,
    baseline_profile,
    discretize,
    partition_to_horizon,
    read_job_table,
    utilization_stats,
    write_job_table,
    zero_queue,
)
from dcflex.synth import generate_synthetic_trace

from conftest import TINY_GRID, tiny_a_jobs, tiny_a_spec

GRID = TimeGrid(15, 960)


def raw(rows):
    return RawJobTable(
        ids=[r[0] for r in rows],
        submit=[r[1] for r in rows],
        start=[r[2] for r in rows],
        end=[r[3] for r in rows],
        resources=[r[4] for r in rows],
    )


def test_zero_queue():
    table = raw([("a", 600, 1200, 1800, 1.0), ("b", 0, 0, 900, 2.0), ("c", 5, 10, 20, 1.0)])
    out = zero_queue(table)
    assert np.array_equal(out.submit, out.start)
    assert len(out) == 3
    assert np.array_equal(out.end, table.end)
    again = zero_queue(out)
    assert np.array_equal(again.submit, out.submit)


def test_discretize_short_job_rescales():
    # 3 minutes on 2 resources becomes one step at 0.4 resources
    table = raw([("a", 0, 0, 180, 2.0)])
    out = discretize(table, GRID)
    assert out.compute_steps.tolist() == [1]
    assert out.resources.tolist() == [pytest.approx(0.4)]
    assert out.submit_step.tolist() == [1]


def test_discretize_exact_alignment():
    table = raw([("a", 0, 0, 1800, 1.0)])
    out = discretize(table, GRID)
    assert out.compute_steps.tolist() == [2]
    assert out.resources.tolist() == [1.0]


def test_discretize_conserves_workload():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(200):
        start = float(rng.integers(0, 96)) * 900.0  # aligned starts
        if i % 3 == 0:
            dur = float(rng.uniform(30, 440))       # rounds to zero steps, rescaled exactly
        else:
            dur = float(rng.integers(1, 12)) * 900.0  # aligned durations
        rows.append((f"j{i}", start, start, start + dur, float(rng.uniform(0.5, 4))))
    table = raw(rows)
    out = discretize(table, GRID)
    before = table.workload_resource_seconds() / GRID.step_seconds
    after = out.workload()
    assert abs(after - before) / before < 1e-12


def test_discretize_requires_zero_queue():
    table = raw([("a", 0, 600, 1800, 1.0)])
    with pytest.raises(ValueError, match="zero-queue"):
        discretize(table, GRID)


def test_partition_spanning_job():
    # one-day horizon starting at step 97 (day boundaries on a 15-minute grid)
    # job running 18:00 day 0 to 02:00 day 2 covers the full middle day
    table = JobTable(["a"], [73], [128], [1.0])
    out = partition_to_horizon(table, (97, 192))
    assert out.compute_steps.tolist() == [96]  # 24 h at 15 min
    assert out.submit_step.tolist() == [1]


def test_partition_tail_job():
    # job running 18:00 day 1 to 02:00 day 2 keeps only its 6 in-horizon hours
    table = JobTable(["a"], [169], [32], [1.0])
    out = partition_to_horizon(table, (97, 192))
    assert out.compute_steps.tolist() == [24]
    assert out.submit_step.tolist() == [73]


def test_partition_inside_and_outside():
    table = JobTable(["in", "out"], [100, 300], [10, 5], [1.0, 1.0])
    out = partition_to_horizon(table, (97, 192))
    assert out.ids == ("in",)
    assert out.compute_steps.tolist() == [10]


def test_partition_never_lengthens():
    rng = np.random.default_rng(11)
    table = JobTable(
        [f"j{i}" for i in range(50)],
        rng.integers(1, 400, 50),
        rng.integers(1, 300, 50),
        np.ones(50),
    )
    out = partition_to_horizon(table, (101, 300))
    by_id = {jid: d for jid, d in zip(table.ids, table.compute_steps)}
    for jid, d in zip(out.ids, out.compute_steps):
        assert d <= by_id[jid]


def test_aggregate_identical_jobs_collapse():
    table = JobTable([f"j{i}" for i in range(250)], [10] * 250, [4] * 250, [0.5] * 250)
    out = aggregate_daily(table, GRID, clusters_per_day=100, seed=0)
    assert len(out) == 1
    assert out.submit_step.tolist() == [10]
    assert out.compute_steps.tolist() == [4]
    assert abs(out.workload() - table.workload()) / table.workload() < 1e-12


def test_aggregate_few_jobs_identity():
    table = JobTable(["a", "b", "c"], [1, 30, 60], [5, 10, 2], [1.0, 2.0, 0.5])
    out = aggregate_daily(table, GRID, clusters_per_day=100, seed=0)
    got = sorted(zip(out.submit_step, out.compute_steps, out.resources))
    want = sorted(zip(table.submit_step, table.compute_steps, table.resources))
    assert [(a, b, pytest.approx(c)) for a, b, c in want] == got


def test_aggregate_two_cluster_day():
    # early block: steps 1..4, late block: steps 81..84, clearly separable
    early = [(f"e{i}", 1, 4, 1.0) for i in range(6)]
    late = [(f"l{i}", 81, 4, 2.0) for i in range(6)]
    rows = early + late
    table = JobTable([r[0] for r in rows], [r[1] for r in rows],
                     [r[2] for r in rows], [r[3] for r in rows])
    out = aggregate_daily(table, GRID, clusters_per_day=2, seed=5)
    assert len(out) == 2
    assert out.submit_step.tolist() == [1, 81]
    assert out.compute_steps.tolist() == [4, 4]
    # workload of each block spread over its own span
    assert out.resources.tolist() == [pytest.approx(6.0), pytest.approx(12.0)]


def _reference_kmeans(points, k, rng, max_iter=50):
    """The original job-by-job k-means, kept as the bit-exact oracle."""
    n = len(points)
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    if len(uniq) <= k:
        return inverse.astype(np.int64)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c:] = points[first]
            break
        pick = int(rng.choice(n, p=d2 / total))
        centroids[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dist = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
    return labels


def _reference_aggregate_daily(table, grid, clusters_per_day, seed):
    """The original per-cluster aggregation loop, kept as the bit-exact oracle."""
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    day_of = (table.submit_step - 1) // grid.steps_per_day
    out_ids, out_submit, out_steps, out_res = [], [], [], []
    days = np.unique(day_of)
    day_rngs = {int(d): np.random.default_rng(s)
                for d, s in zip(days, seed_seq.spawn(len(days)))}
    for day in days:
        members = np.flatnonzero(day_of == day)
        points = np.column_stack([table.submit_step[members],
                                  table.complete_step[members]]).astype(np.float64)
        labels = _reference_kmeans(points, clusters_per_day, day_rngs[int(day)])
        clusters = {}
        for local, lab in enumerate(labels):
            clusters.setdefault(int(lab), []).append(members[local])
        ordered = sorted(
            clusters.values(),
            key=lambda rows: (int(table.submit_step[rows].min()),
                              int(table.complete_step[rows].max()),
                              min(rows)),
        )
        for ci, rows in enumerate(ordered):
            rows = np.asarray(rows)
            a = int(table.submit_step[rows].min())
            b = int(table.complete_step[rows].max())
            work = float(np.sum(table.compute_steps[rows] * table.resources[rows]))
            out_ids.append(f"d{int(day)}c{ci}")
            out_submit.append(a)
            out_steps.append(b - a + 1)
            out_res.append(work / (b - a + 1))
    return JobTable(out_ids, out_submit, out_steps, out_res)


def assert_same_bits(got, want):
    assert got.ids == want.ids
    assert np.array_equal(got.submit_step, want.submit_step)
    assert np.array_equal(got.compute_steps, want.compute_steps)
    assert got.resources.tobytes() == want.resources.tobytes()


def dense_day_table(rng, days, jobs_per_day, points_per_day):
    """Thousands of jobs a day on a few distinct (start, steps) pairs."""
    submit, steps = [], []
    for day in range(days):
        starts = day * 96 + rng.integers(1, 97, points_per_day)
        lengths = rng.integers(1, 60, points_per_day)
        pick = rng.integers(0, points_per_day, jobs_per_day)
        submit.append(starts[pick])
        steps.append(lengths[pick])
    n = days * jobs_per_day
    return JobTable([f"j{i}" for i in range(n)], np.concatenate(submit),
                    np.concatenate(steps), rng.uniform(0.01, 3.0, n))


def test_aggregate_deterministic():
    rng = np.random.default_rng(0)
    table = JobTable(
        [f"j{i}" for i in range(300)],
        rng.integers(1, 96, 300),
        rng.integers(1, 40, 300),
        rng.uniform(0.5, 2.0, 300),
    )
    a = aggregate_daily(table, GRID, clusters_per_day=20, seed=42)
    b = aggregate_daily(table, GRID, clusters_per_day=20, seed=42)
    assert a.ids == b.ids
    assert np.array_equal(a.submit_step, b.submit_step)
    assert np.array_equal(a.resources, b.resources)
    assert abs(a.workload() - table.workload()) / table.workload() < 1e-12
    assert_same_bits(a, _reference_aggregate_daily(table, GRID, 20, 42))


@pytest.mark.parametrize("clusters", [100, 20, 3, 1])
def test_aggregate_matches_reference_on_dense_days(clusters):
    # about 150 distinct points a day under 2500 jobs, as on merged traces
    table = dense_day_table(np.random.default_rng(17), 3, 2500, 150)
    assert len(np.unique(np.column_stack([table.submit_step, table.complete_step]),
                         axis=0)) > 3 * 140
    got = aggregate_daily(table, GRID, clusters, seed=9)
    assert_same_bits(got, _reference_aggregate_daily(table, GRID, clusters, 9))


def test_aggregate_matches_reference_at_most_k_points():
    # 12 distinct points and 20 clusters: every distinct point is a cluster
    table = dense_day_table(np.random.default_rng(4), 2, 800, 12)
    got = aggregate_daily(table, GRID, 20, seed=3)
    assert len(got) <= 2 * 12
    assert_same_bits(got, _reference_aggregate_daily(table, GRID, 20, 3))


@pytest.mark.parametrize("profile", ["ai_like", "general_like"])
def test_aggregate_matches_reference_on_synthetic_traces(profile):
    spec = DataCenterSpec(total_resources=100.0)
    trace = generate_synthetic_trace(profile, 10, 2, GRID, spec)
    table = partition_to_horizon(discretize(zero_queue(trace), GRID), (1, 960))
    for clusters in (100, 20, 3):
        got = aggregate_daily(table, GRID, clusters, seed=5)
        assert_same_bits(got, _reference_aggregate_daily(table, GRID, clusters, 5))


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate_daily(JobTable.empty(), GRID, clusters_per_day=0, seed=0)


def test_aggregated_baseline_tracks_raw():
    # bundled synthetic fixture: aggregated utilization stays within 0.1
    spec = DataCenterSpec(total_resources=100.0)
    grid = TimeGrid(15, 960)
    for profile in ("ai_like", "general_like"):
        trace = generate_synthetic_trace(profile, 20, 1, grid, spec)
        table = discretize(zero_queue(trace), grid)
        part = partition_to_horizon(table, (1, 960))
        agg = aggregate_daily(part, grid, 100, seed=1)
        raw_base = baseline_profile(part, spec, grid)
        agg_base = baseline_profile(agg, spec, grid)
        dev = np.abs(raw_base.utilization - agg_base.utilization).max()
        assert dev < 0.1


def test_baseline_tiny_a():
    base = baseline_profile(tiny_a_jobs(), tiny_a_spec(), TINY_GRID)
    assert base.power_kw.tolist() == [2.0, 2.0, 0.0, 0.0]
    assert base.mean_util == pytest.approx(0.5)


def test_baseline_empty_and_constant():
    spec = DataCenterSpec(total_resources=4.0, unit_power_kw=1.0, fixed_power_kw=7.0)
    base = baseline_profile(JobTable.empty(), spec, TINY_GRID)
    assert base.power_kw.tolist() == [7.0] * 4
    assert base.std_util == 0.0
    const = baseline_profile(JobTable(["a"], [1], [4], [4.0]), spec, TINY_GRID)
    assert const.std_util == 0.0
    assert const.mean_util == 1.0


def test_baseline_overcommit_errors():
    spec = DataCenterSpec(total_resources=1.0)
    table = JobTable(["a", "b"], [1, 1], [2, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="total_resources"):
        baseline_profile(table, spec, TINY_GRID)


def test_utilization_stats():
    from dcflex.model import BaselineProfile

    profiles = [
        BaselineProfile(np.zeros(1), np.zeros(1), mean_util=m, std_util=s)
        for m, s in [(0.2, 0.30), (0.5, 0.20), (0.8, 0.10)]
    ]
    # norm_flex perfectly linear in mean_util, acof anti-linear
    results = [(0.2, 0.9), (0.5, 0.6), (0.8, 0.3)]
    table = utilization_stats(profiles, results)
    assert table["mean_util"]["norm_flex"] == pytest.approx(1.0)
    assert table["mean_util"]["acof"] == pytest.approx(-1.0)
    assert table["std_util"]["norm_flex"] == pytest.approx(-1.0)

    with pytest.raises(ValueError, match="at least 3"):
        utilization_stats(profiles[:2], results[:2])
    flat = [
        BaselineProfile(np.zeros(1), np.zeros(1), mean_util=0.5, std_util=s)
        for s in (0.1, 0.2, 0.3)
    ]
    with pytest.raises(ValueError, match="zero variance"):
        utilization_stats(flat, results)


def test_job_table_csv_round_trip(tmp_path):
    table = JobTable(["a", "b"], [1, 7], [3, 2], [1.25, 0.5])
    path = tmp_path / "jobs.csv"
    write_job_table(table, path)
    again = read_job_table(path)
    assert again.ids == table.ids
    assert np.array_equal(again.submit_step, table.submit_step)
    assert np.array_equal(again.compute_steps, table.compute_steps)
    assert np.array_equal(again.resources, table.resources)
