"""Acceptance suite: one test per criterion, reported in the run summary.

Criteria mix exact desk-scale fixtures, independent brute-force oracles,
algebraic identities, qualitative shape checks on the bundled synthetic
traces, and one optional data-dependent check that is skipped unless the
full cloud pricing table is supplied.
"""

import itertools
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dcflex.campaign import (
    derive_seed,
    run_costmin_campaign,
    run_flexmax_campaign,
    sample_activations,
    service_grid,
)
from dcflex.ingest import parse_cloud_pricing
from dcflex.model import (
    ActivationPlan,
    DataCenterSpec,
    EconParams,
    ServiceSpec,
    TimeGrid,
)
from dcflex.preprocess import baseline_profile, discretize, zero_queue
from dcflex.problem import DqParams, build_costmin, build_flexmax, tightening_bound
from dcflex.scaling import estimate_csf_samples, percentile, scale_acof, scale_flex_kw
from dcflex.solve import SolverBackend, solve
from dcflex.synth import generate_synthetic_trace

from conftest import (
    ECON,
    TINY_GRID,
    random_instance,
    random_plan,
)
from test_problem import costmin_without, reference_optimum

DATA = Path(__file__).parent / "data"
TIGHT = SolverBackend(mip_rel_gap=1e-9)


def _tiny_a_schedules_005():
    """All single-job schedules on the 0.05 grid with their feasibility.

    Four steps, workload 2.0, x in {0, 0.05, ..., 1}; feasibility is the
    preemption budget (0.5 min per preemption, 1% of a 2-step workload at
    15-minute steps allows at most 0.6 preemptions).
    """
    ticks = np.arange(21)
    a, b, c = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    d = 40 - (a + b + c)
    ok = (d >= 0) & (d <= 20)
    x = np.stack([a[ok], b[ok], c[ok], d[ok]], axis=1) / 20.0
    nxt = np.concatenate([x[:, 1:], np.zeros((len(x), 1))], axis=1)
    z = np.maximum(0.0, x - nxt)
    npreempt = np.maximum(0.0, z.sum(axis=1) - 1.0)
    feasible = (0.5 / 15.0) * npreempt <= 0.01 * 2.0 + 1e-12
    return x[feasible]


def test_criterion_01_tiny_a_flexmax_oracle(tiny_a):
    started = time.monotonic()
    schedules = _tiny_a_schedules_005()
    # the window is step 1, so the objective is 2 - (x_a1 + x_b1); with two
    # unit-resource jobs against capacity 2 the per-step coupling can never
    # bind (each x <= 1), so the joint brute force decomposes per job
    best = schedules[np.argmin(schedules[:, 0])]
    assert np.all(2.0 * best <= 2.0 + 1e-12)  # combined argmin pair fits capacity
    oracle = 2.0 - 2.0 * float(schedules[:, 0].min())
    assert oracle == pytest.approx(2.0, abs=1e-12)

    jobs, spec, base, plan = tiny_a
    sol = solve(build_flexmax(jobs, spec, base, plan))
    assert sol.ok
    assert abs(sol.mean_flex_kw - oracle) <= 1e-6
    assert time.monotonic() - started < 1.0


def test_criterion_02_tiny_a_costmin_oracle(tiny_a):
    # exhaustive enumeration over integer run patterns (2 of 4 steps per job)
    patterns = list(itertools.combinations(range(1, 5), 2))
    best = np.inf
    for p1, p2 in itertools.product(patterns, repeat=2):
        occupancy = np.zeros(5)
        feasible = True
        cost = 0.0
        for pat in (p1, p2):
            x = np.zeros(5)
            x[list(pat)] = 1.0
            occupancy += x
            decreases = np.maximum(0.0, x - np.append(x[1:], 0.0)).sum()
            if max(0.0, decreases - 1.0) > 0.6:  # preemption budget
                feasible = False
            last = max(pat)
            if last >= 3:  # submit 1 + workload 2: any later step means delay
                end_marker = last + 1
                delay = (end_marker - 1 - 2) / 2.0
                cost += 0.5 * delay * 2 * 0.25 * 1.0 * 1.0
        if not feasible or occupancy[1:].max() > 2.0:
            continue
        flex_step1 = 2.0 - occupancy[1]
        if flex_step1 < 2.0:  # sustained amount must reach the 2 kW target
            continue
        best = min(best, cost)
    assert best == pytest.approx(0.25, abs=1e-12)

    jobs, spec, base, plan = tiny_a
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0), TIGHT)
    assert sol.ok
    assert abs(sol.total_cost - best) <= 1e-6
    shifted_kwh = 0.25 * 1 * 1 * 2.0
    assert sol.total_cost / shifted_kwh == pytest.approx(0.5, abs=1e-6)
    assert tightening_bound(ECON, spec, plan, 2.0) == 0.25  # tight on this fixture


def test_criterion_03_no_delay_theorem():
    rng = np.random.default_rng(303)
    for _ in range(100):
        grid, jobs, spec, base = random_instance(rng, max_jobs=5, max_steps=8,
                                                 max_delay_frac=0.0)
        plan = random_plan(rng, grid)
        sol = solve(build_flexmax(jobs, spec, base, plan))
        assert sol.ok
        assert abs(sol.mean_flex_kw) <= 1e-9


def test_criterion_04_tightening_validity():
    rng = np.random.default_rng(404)
    for _ in range(100):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        flex = solve(build_flexmax(jobs, spec, base, plan))
        assert flex.ok
        target = float(rng.uniform(0.0, 1.0)) * flex.mean_flex_kw
        status, plain, _ = reference_optimum(costmin_without(jobs, spec, base, plan, target))
        tightened = solve(build_costmin(jobs, spec, ECON, base, plan, target), TIGHT)
        assert status == "optimal" and tightened.ok
        bound = tightening_bound(ECON, spec, plan, target)
        assert plain >= bound - 1e-9
        assert abs(tightened.total_cost - plain) < 1e-9


def test_criterion_05_scaling_identities(tiny_a):
    jobs, spec, base, plan = tiny_a
    nominal_flex = solve(build_flexmax(jobs, spec, base, plan))
    norm_nominal = nominal_flex.mean_flex_kw / spec.max_power_kw

    doubled = replace(spec, unit_power_kw=2.0)
    base2 = baseline_profile(jobs, doubled, TINY_GRID)
    sol2 = solve(build_flexmax(jobs, doubled, base2, plan))
    assert sol2.mean_flex_kw == pytest.approx(2.0 * nominal_flex.mean_flex_kw, rel=1e-9)
    predicted = scale_flex_kw(norm_nominal, 2.0, spec.total_resources)
    assert sol2.mean_flex_kw == pytest.approx(predicted, rel=1e-9)

    nominal_cost = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0), TIGHT)
    pricier = EconParams(price_reduction_coeff=1.0, hourly_unit_price=2.0,
                         energy_price=ECON.energy_price)
    cost2 = solve(build_costmin(jobs, spec, pricier, base, plan, 2.0), TIGHT)
    assert cost2.total_cost == pytest.approx(4.0 * nominal_cost.total_cost, rel=1e-9)
    shifted_kwh = 0.25 * 2.0
    nominal_acof = nominal_cost.total_cost / shifted_kwh
    predicted_acof = scale_acof(nominal_acof, 1.0, 2.0, spec.unit_power_kw, ECON,
                                spec.unit_power_kw)
    assert cost2.total_cost / shifted_kwh == pytest.approx(predicted_acof, rel=1e-9)


def test_criterion_06_dynamic_quota(tiny_b):
    # speed-up of zero reproduces the quota-free optimum
    rng = np.random.default_rng(606)
    for _ in range(50):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        plain = solve(build_flexmax(jobs, spec, base, plan))
        with_quota = solve(build_flexmax(jobs, spec, base, plan, DqParams(True, 0.0)))
        assert plain.ok and with_quota.ok
        assert abs(with_quota.mean_flex_kw - plain.mean_flex_kw) <= 1e-9

    # exact ACoF decomposition and the optimum of the quota fixture at two
    # speed-ups, in closed form under the quota model of problem.py (a unit
    # of quota completes K units of workload at full power). The one job
    # (D = 2, N = 1, G = 1 kW, no delay) draws 1 kW in steps 1 and 2, and the
    # window is step 1. Shaving step 1 to 1 - S leaves S of workload for
    # step 2, where x2 = 1 is full, so it runs on quota: xdq2 = S/K. The
    # quota cap xdq2 <= x2 = 1 and the capacity x2 + xdq2 <= 2 both give
    # S* = K. No delay means no price reduction, so APCoF = 0. The extra
    # energy (1 - S) + (1 + S/K) - 2 = S (1 - K)/K per step, over the S
    # shifted, gives AECoF = pi (1 - K)/K. K = 0.25 separates this model
    # from one where quota completes K/(1 + K) (S = 0.2, AECoF = 0.2).
    jobs, spec, base, _ = tiny_b
    assert spec.max_delay_frac == 0.0 and spec.total_resources == 2.0
    assert list(base.power_kw) == [1.0, 1.0, 0.0, 0.0]
    services = service_grid([0.25], [2920.0], TINY_GRID)
    seed = next(s for s in range(200) if sample_activations(
        TINY_GRID, 1, 1,
        derive_seed(s, "act", 1, 0.25, 2920.0, 0.0)).windows == ((1, 1),))
    for speedup in (0.5, 0.25):
        grid_result = run_costmin_campaign(jobs, spec, ECON, TINY_GRID,
                                           services, [0.0], [1.0],
                                           dq=DqParams(True, speedup), master_seed=seed,
                                           backend=TIGHT)
        cell = grid_result.cell(0.25, 2920.0, 0.0, 1.0)
        assert cell.acof == cell.apcof + cell.aecof  # decomposition exact

        assert cell.mean_flex_kw == pytest.approx(speedup, abs=1e-6)
        assert cell.apcof == pytest.approx(0.0, abs=1e-6)
        assert cell.aecof == pytest.approx(
            ECON.energy_price * (1.0 - speedup) / speedup, abs=1e-6)


def test_criterion_07_monotonicity_suites():
    rng = np.random.default_rng(707)

    # flexibility never decreases when more delay is allowed
    for _ in range(50):
        grid, jobs, spec, base = random_instance(rng, max_delay_frac=0.2)
        plan = random_plan(rng, grid)
        lo = solve(build_flexmax(jobs, spec, base, plan))
        hi = solve(build_flexmax(jobs, replace(spec, max_delay_frac=0.7), base, plan))
        assert lo.ok and hi.ok
        assert hi.mean_flex_kw >= lo.mean_flex_kw - 1e-7

    # flexibility never increases when every window grows by one step
    for _ in range(50):
        grid, jobs, spec, base = random_instance(rng)
        count = int(rng.integers(1, grid.steps // 2 + 1))
        wide = sample_activations(grid, count, 2, int(rng.integers(0, 2 ** 31)))
        narrow = ActivationPlan(
            windows=tuple((a, b - 1) for a, b in wide.windows), grid=grid)
        small = solve(build_flexmax(jobs, spec, base, narrow))
        large = solve(build_flexmax(jobs, spec, base, wide))
        assert small.ok and large.ok
        assert large.mean_flex_kw <= small.mean_flex_kw + 1e-7

    # cost never decreases as the target grows
    for _ in range(50):
        grid, jobs, spec, base = random_instance(rng, max_jobs=4, max_steps=6)
        plan = random_plan(rng, grid)
        flex = solve(build_flexmax(jobs, spec, base, plan))
        assert flex.ok
        u1, u2 = sorted(rng.uniform(0.0, 1.0, size=2))
        lo = solve(build_costmin(jobs, spec, ECON, base, plan,
                                 u1 * flex.mean_flex_kw), TIGHT)
        hi = solve(build_costmin(jobs, spec, ECON, base, plan,
                                 u2 * flex.mean_flex_kw), TIGHT)
        assert lo.ok and hi.ok
        assert hi.total_cost >= lo.total_cost - 1e-7


def test_criterion_08_csf_estimator():
    options = parse_cloud_pricing(DATA / "pricing_six_options.csv")
    samples = estimate_csf_samples(options, EconParams(0.5, 1.0, 0.05), 1.0)
    got = {(s.provider, s.fast_option.model, s.slow_option.model):
           (s.price_reduction_coeff, s.csf) for s in samples}
    # the two surviving pairs, with hand-computed values
    assert set(got) == {("alpha", "FastCard", "SlowCard"),
                        ("beta", "BigCard", "HalfSpeed")}
    a_worked, csf_worked = got[("alpha", "FastCard", "SlowCard")]
    assert a_worked == pytest.approx(1.2, rel=1e-12)      # delay 1/3, price cut 0.4
    assert csf_worked == pytest.approx(9.6, rel=1e-12)
    a_boundary, csf_boundary = got[("beta", "BigCard", "HalfSpeed")]
    assert a_boundary == pytest.approx(0.5, rel=1e-12)    # kept at exactly 2x slower
    assert csf_boundary == pytest.approx(4.0, rel=1e-12)
    # dropped pairs: BigCard->LaggyCard (2.02x slower), HalfSpeed->LaggyCard
    # (slower and more expensive), FastCard 4-pack (same-machine duplicate)
    assert all(s.slow_option.model != "LaggyCard" for s in samples)
    assert all(s.fast_option.unit_count == 1 for s in samples)


@pytest.mark.slow
def test_criterion_09_profile_shape():
    spec = DataCenterSpec(
        total_resources=100.0, unit_power_kw=1.0, fixed_power_kw=0.0,
        preempt_overhead_min=1.5, preempt_budget_frac=0.01,
        max_delay_frac=0.2, device_class="gpu_ai",
    )
    grid = TimeGrid(15, 960)
    services = [ServiceSpec.from_requirements(2.0, 365.0, grid)]
    outcome = {}
    for profile in ("ai_like", "general_like"):
        trace = generate_synthetic_trace(profile, 20, 1, grid, spec)
        table = discretize(zero_queue(trace), grid)
        flex = run_flexmax_campaign(table, spec, grid, services, [0.2],
                                    master_seed=7)
        cost = run_costmin_campaign(table, spec, ECON, grid, services, [0.2], [1.0],
                                    master_seed=7)
        fcell = flex.cell(2.0, 365.0, 0.2)
        ccell = cost.cell(2.0, 365.0, 0.2, 1.0)
        assert all(s == "optimal" for s in fcell.statuses)
        assert all(s == "optimal" for s in ccell.statuses)
        outcome[profile] = (fcell.norm_flex, ccell.acof)
    ai_flex, ai_acof = outcome["ai_like"]
    general_flex, general_acof = outcome["general_like"]
    assert ai_flex >= general_flex
    assert ai_acof <= general_acof


def test_criterion_10_determinism_across_workers(tmp_path):
    spec = DataCenterSpec(
        total_resources=100.0, unit_power_kw=1.0, fixed_power_kw=0.0,
        preempt_overhead_min=0.5, preempt_budget_frac=0.01,
        max_delay_frac=0.2, device_class="cpu_general",
    )
    grid = TimeGrid(15, 960)
    trace = generate_synthetic_trace("general_like", 20, 0, grid, spec)
    table = discretize(zero_queue(trace), grid)
    services = service_grid([0.25, 1.0], [365.0], grid)
    runs = []
    for workers in (1, 2):
        result = run_flexmax_campaign(table, spec, grid, services, [0.2, 0.5],
                                      master_seed=11, n_workers=workers)
        path = tmp_path / f"grid_w{workers}.json"
        result.write_json(path)
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]


def test_cost_campaign_determinism_across_workers(tmp_path):
    # criterion 10 for a dynamic-quota cost campaign: two horizons of cost
    # MILPs at fractions 0.9 and 1.0, each after its flexibility LP
    spec = DataCenterSpec(
        total_resources=100.0, unit_power_kw=1.0, fixed_power_kw=0.0,
        preempt_overhead_min=0.5, preempt_budget_frac=0.01,
        max_delay_frac=0.2, device_class="cpu_general",
    )
    grid = TimeGrid(15, 960)
    trace = generate_synthetic_trace("general_like", 20, 0, grid, spec)
    table = discretize(zero_queue(trace), grid)
    services = service_grid([0.25], [365.0], grid)
    runs = []
    for workers in (1, 2):
        result = run_costmin_campaign(table, spec, EconParams(), grid, services, [0.2],
                                      [0.9, 1.0], dq=DqParams(True, 0.5), master_seed=11,
                                      n_workers=workers)
        assert [c.statuses for c in result.cells.values()] == [("optimal", "optimal")] * 2
        path = tmp_path / f"cost_w{workers}.json"
        result.write_json(path)
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]


SUPP_ENV = "DCFLEX_SUPP_PRICING_CSV"


@pytest.mark.skipif(SUPP_ENV not in os.environ,
                    reason="full cloud pricing table not bundled; set "
                           f"{SUPP_ENV} to its CSV export to enable")
def test_criterion_11_published_percentiles():
    options = parse_cloud_pricing(os.environ[SUPP_ENV])
    nominal = EconParams(0.5, 1.0, 0.05)
    expected = {
        "cpu": (10.60, 24.49, 51.42),
        "gpu": (2.03, 11.37, 40.48),
    }
    for device, (p25, p50, p75) in expected.items():
        samples = [s.csf for s in estimate_csf_samples(options.of_type(device),
                                                       nominal, 1.0)]
        assert percentile(samples, 25) == pytest.approx(p25, abs=0.5)
        assert percentile(samples, 50) == pytest.approx(p50, abs=0.5)
        assert percentile(samples, 75) == pytest.approx(p75, abs=0.5)
