import contextlib
import importlib
import logging
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dcflex import campaign
from dcflex.campaign import (
    CampaignResult,
    derive_seed,
    horizon_count,
    run_campaign,
    run_costmin_campaign,
    run_flexmax_campaign,
    sample_activations,
    service_grid,
)
from dcflex.model import DataCenterSpec, EconParams, JobTable, ServiceSpec, TimeGrid
from dcflex.preprocess import baseline_profile, discretize, zero_queue
from dcflex.problem import NO_DQ, DqParams, build_costmin, build_flexmax, retarget
from dcflex.report import write_grid_csv
from dcflex.solve import DEFAULT_BACKEND, CellSolver, solve
from dcflex.synth import generate_synthetic_trace

from conftest import ECON, TINY_GRID, tiny_a_jobs, tiny_a_spec, tiny_b_jobs, tiny_b_spec


def test_sample_activations_disjoint():
    grid = TimeGrid(15, 960)
    plan = sample_activations(grid, 80, 1, rng_seed=7)
    assert plan.count == 80
    starts = sorted(a for a, _ in plan.windows)
    assert len(set(starts)) == 80
    covered = np.zeros(961, dtype=int)
    for a, b in plan.windows:
        covered[a:b + 1] += 1
    assert covered.max() == 1


def test_sample_activations_edge_cases():
    grid = TimeGrid(15, 12)
    assert sample_activations(grid, 0, 3, 1).windows == ()
    tiling = sample_activations(grid, 4, 3, rng_seed=123)
    assert tiling.windows == ((1, 3), (4, 6), (7, 9), (10, 12))
    with pytest.raises(ValueError, match="do not fit"):
        sample_activations(grid, 5, 3, 1)


def test_sample_activations_deterministic():
    grid = TimeGrid(15, 100)
    a = sample_activations(grid, 5, 3, rng_seed=derive_seed(9, "act", 1))
    b = sample_activations(grid, 5, 3, rng_seed=derive_seed(9, "act", 1))
    c = sample_activations(grid, 5, 3, rng_seed=derive_seed(10, "act", 1))
    assert a.windows == b.windows
    assert a.windows != c.windows


def test_service_grid():
    grid = TimeGrid(15, 960)
    services = service_grid([0.25, 2.0], [365, 2920], grid)
    assert len(services) == 4
    assert {(s.duration_steps, s.window_count) for s in services} == \
        {(1, 10), (1, 80), (8, 10), (8, 80)}


def _find_seed_with_window_at_step_one(duration_hours, frequency):
    svc = ServiceSpec.from_requirements(duration_hours, frequency, TINY_GRID)
    for seed in range(200):
        if campaign._cell_plan(TINY_GRID, svc, 1, seed).windows == ((1, 1),):
            return seed
    raise AssertionError("no seed with a window at step 1 in range")


def test_flexmax_campaign_tiny_a_single_horizon():
    jobs = tiny_a_jobs()
    spec = tiny_a_spec()
    seed = _find_seed_with_window_at_step_one(0.25, 2920.0)
    services = service_grid([0.25], [2920.0], TINY_GRID)
    result = run_flexmax_campaign(jobs, spec, TINY_GRID, services, [1.0],
                                  master_seed=seed)
    cell = result.cell(0.25, 2920.0, 1.0)
    assert cell.windows_evaluated == 1
    assert cell.mean_flex_kw == pytest.approx(2.0, abs=1e-6)
    assert cell.norm_flex == pytest.approx(1.0, abs=1e-6)

    # a single-horizon campaign equals one direct solve on the same plan
    base = baseline_profile(jobs, spec, TINY_GRID)
    plan = campaign._cell_plan(TINY_GRID, services[0], 1, seed)
    direct = solve(build_flexmax(jobs, spec.with_max_delay(1.0), base, plan))
    assert cell.mean_flex_kw == direct.mean_flex_kw


def test_flexmax_campaign_no_delay_full_utilization():
    # constantly full data center with no allowed delay has nothing to shift
    grid = TimeGrid(15, 8)
    jobs = JobTable(["a"], [1], [16], [2.0])
    spec = DataCenterSpec(total_resources=2.0, max_delay_frac=0.0,
                          preempt_overhead_min=0.5, device_class="cpu_general")
    services = service_grid([0.25, 0.5], [2920.0], grid)
    result = run_flexmax_campaign(jobs, spec, grid, services, [0.0], master_seed=3)
    assert horizon_count(jobs, grid) == 2
    for cell in result.cells.values():
        assert cell.windows_evaluated == 2
        assert cell.mean_flex_kw == pytest.approx(0.0, abs=1e-9)


def test_two_horizon_average():
    grid = TimeGrid(15, 8)
    # first horizon busy (flexible), second empty
    jobs = JobTable(["a", "b"], [1, 1], [2, 2], [1.0, 1.0])
    spec = tiny_a_spec()
    # pad the table to cover two horizons with a tiny background job
    jobs = JobTable(["a", "b", "pad"], [1, 1, 9], [2, 2, 8], [1.0, 1.0, 0.01])
    services = service_grid([0.25], [2920.0], grid)
    result = run_flexmax_campaign(jobs, spec, grid, services, [1.0], master_seed=0)
    cell = result.cell(0.25, 2920.0, 1.0)
    assert cell.windows_evaluated == 2
    assert len(cell.statuses) == 2


@pytest.mark.parametrize("n_workers", [1, 2])
def test_failing_horizon_is_recorded_as_error(monkeypatch, n_workers):
    grid = TimeGrid(15, 8)
    jobs = JobTable(["a", "b", "pad"], [1, 1, 9], [2, 2, 8], [1.0, 1.0, 0.01])
    real = campaign.build_flexmax

    def build(part, *args, **kwargs):
        if "pad" in part.ids:  # the only job of horizon 2
            raise RuntimeError("horizon 2 cannot be built")
        return real(part, *args, **kwargs)

    monkeypatch.setattr(campaign, "build_flexmax", build)
    services = service_grid([0.25], [2920.0], grid)
    result = run_costmin_campaign(jobs, tiny_a_spec(), ECON, grid, services, [1.0],
                                  [0.5, 1.0], master_seed=0, clusters_per_day=0,
                                  n_workers=n_workers)
    for frac in (0.5, 1.0):
        cell = result.cell(0.25, 2920.0, 1.0, frac)
        assert cell.statuses == ("optimal", "error")
        assert cell.windows_evaluated == 1 and cell.acof is not None
        assert cell.gaps[1] is None
    flex = run_flexmax_campaign(jobs, tiny_a_spec(), grid, services, [1.0], master_seed=0,
                                clusters_per_day=0, n_workers=n_workers)
    cell = flex.cell(0.25, 2920.0, 1.0)
    assert cell.statuses == ("optimal", "error") and cell.windows_evaluated == 1


def test_costmin_campaign_tiny_a():
    jobs = tiny_a_jobs()
    spec = tiny_a_spec()
    seed = _find_seed_with_window_at_step_one(0.25, 2920.0)
    services = service_grid([0.25], [2920.0], TINY_GRID)
    result = run_costmin_campaign(jobs, spec, ECON, TINY_GRID, services, [1.0],
                                  [0.0, 1.0], master_seed=seed)
    full = result.cell(0.25, 2920.0, 1.0, 1.0)
    assert full.mean_flex_kw == pytest.approx(2.0, abs=1e-6)
    assert full.acof == pytest.approx(0.5, abs=1e-6)  # 0.25 USD over 0.5 kWh
    assert full.aecof == 0.0
    assert full.acof == full.apcof + full.aecof
    assert full.gaps == (0.0,)
    zero = result.cell(0.25, 2920.0, 1.0, 0.0)
    assert zero.degenerate
    assert zero.acof == 0.0
    assert zero.gaps == (None,)  # no MILP was solved for a zero target


def test_campaign_config_and_gaps_by_kind():
    jobs, spec = tiny_a_jobs(), tiny_a_spec()
    services = service_grid([0.25], [2920.0], TINY_GRID)
    flex = run_flexmax_campaign(jobs, spec, TINY_GRID, services, [1.0]).to_json_dict()
    cost = run_costmin_campaign(jobs, spec, ECON, TINY_GRID, services, [1.0],
                                [0.5]).to_json_dict()
    extra = {"flex_fractions", "econ"}
    assert flex["kind"] == flex["config"]["kind"] == "flexmax"
    assert not extra & set(flex["config"])
    assert cost["kind"] == cost["config"]["kind"] == "costmin"
    assert cost["config"]["flex_fractions"] == [0.5]
    assert cost["config"]["econ"] == asdict(ECON)
    for config in (flex["config"], cost["config"]):
        # each cell is solved at its own delay, so the spec's is not echoed
        assert "max_delay_frac" not in config["datacenter"]
        assert set(config["backend"]) == {"mip_rel_gap", "time_limit_s"}
    assert all(cell["gaps"] == [] for cell in flex["cells"].values())
    assert all(len(cell["gaps"]) == 1 for cell in cost["cells"].values())


def test_costmin_campaign_tiny_b_dynamic_quota():
    """Dynamic-quota fixture at its oracle-verified values.

    The delivered maximum is 0.5 kW; recovery runs entirely on quota in the
    second step, so the only cost is the extra energy at the energy price
    (0.05 USD/kWh). See test_problem.test_tiny_b_true_optimum_oracle.
    """
    jobs = tiny_b_jobs()
    spec = tiny_b_spec()
    seed = _find_seed_with_window_at_step_one(0.25, 2920.0)
    services = service_grid([0.25], [2920.0], TINY_GRID)
    result = run_costmin_campaign(jobs, spec, ECON, TINY_GRID, services, [0.0],
                                  [1.0], dq=DqParams(True, 0.5), master_seed=seed)
    cell = result.cell(0.25, 2920.0, 0.0, 1.0)
    assert cell.mean_flex_kw == pytest.approx(0.5, abs=1e-6)
    assert cell.apcof == pytest.approx(0.0, abs=1e-7)
    assert cell.aecof == pytest.approx(0.05, abs=1e-7)
    assert cell.acof == cell.apcof + cell.aecof


def test_quota_cost_cell_at_zero_delay_solves_one_lp(monkeypatch):
    """A quota cost cell solves its flexibility LP and its cost model, no more."""
    jobs, spec = tiny_b_jobs(), tiny_b_spec()
    seed = _find_seed_with_window_at_step_one(0.25, 2920.0)
    services = service_grid([0.25], [2920.0], TINY_GRID)
    dq = DqParams(True, 0.5)
    counts = _count_layer_calls(monkeypatch)
    result = run_costmin_campaign(jobs, spec, ECON, TINY_GRID, services, [0.0], [1.0],
                                  dq=dq, master_seed=seed)
    assert counts["build_flexmax"] == 1 and counts["build_costmin"] == 1
    assert counts["solve"] == 2
    monkeypatch.undo()

    # the cell as it reads with each model solved on its own
    part, base = campaign._prepare_horizon(jobs, spec, TINY_GRID, 1, seed, 100)
    plan = campaign._cell_plan(TINY_GRID, services[0], 1, seed)
    spec_0 = spec.with_max_delay(0.0)
    s_max = solve(build_flexmax(part, spec_0, base, plan, dq)).mean_flex_kw
    sol = solve(build_costmin(part, spec_0, ECON, base, plan, s_max, dq=dq))
    shifted_kwh = TINY_GRID.step_hours * plan.count * plan.duration_steps * s_max
    cell = result.cell(0.25, 2920.0, 0.0, 1.0)
    assert cell.mean_flex_kw == s_max
    assert cell.apcof == (sol.total_cost - sol.extra_energy_cost) / shifted_kwh
    assert cell.aecof == sol.extra_energy_cost / shifted_kwh
    assert cell.statuses == ("optimal",) and cell.gaps == (sol.stats.gap,)


def test_campaign_json_and_csv_round_trip(tmp_path):
    jobs = tiny_a_jobs()
    spec = tiny_a_spec()
    services = service_grid([0.25], [2920.0], TINY_GRID)
    result = run_flexmax_campaign(jobs, spec, TINY_GRID, services, [1.0], master_seed=1)
    path = tmp_path / "grid.json"
    result.write_json(path)
    again = CampaignResult.read_json(path)
    assert again.kind == result.kind
    assert again.to_json() == result.to_json()

    csv_path = tmp_path / "grid.csv"
    write_grid_csv(result, csv_path)
    text = csv_path.read_text()
    assert text.splitlines()[0] == \
        "duration_hours,annual_frequency,max_delay,flex_fraction,metric,value"
    assert "mean_flex_kw" in text


@pytest.mark.parametrize("delays, fractions", [
    ([-0.1], [None]), ([float("nan")], [None]), ([float("inf")], [None]),
    ([0.5], [None, -0.5]), ([0.5], [1.5]), ([0.5], [float("nan")]),
], ids=["negative_delay", "nan_delay", "inf_delay", "negative_fraction",
        "fraction_above_one", "nan_fraction"])
def test_campaign_rejects_delays_and_fractions_out_of_range(monkeypatch, delays, fractions):
    # a negative fraction used to write a degenerate "optimal" cell of negative
    # flexibility, and a negative delay an `error` on every cell
    jobs, spec, grid, services = _two_horizons()
    counts = _count_layer_calls(monkeypatch)
    with pytest.raises(ValueError, match="delays must be finite|fractions must be none"):
        run_campaign(jobs, spec, ECON, grid, services, delays, fractions)
    assert counts == Counter()


def test_campaign_rejects_a_negative_cluster_count(monkeypatch):
    # it used to fail inside aggregate_daily and record `error` on every cell
    jobs, spec, grid, services = _two_horizons()
    counts = _count_layer_calls(monkeypatch)
    with pytest.raises(ValueError, match="clusters_per_day must be >= 0, got -1"):
        run_campaign(jobs, spec, ECON, grid, services, [0.5], [None, 1.0],
                     clusters_per_day=-1)
    assert counts == Counter()


def test_zero_clusters_per_day_leaves_the_jobs_unaggregated(monkeypatch):
    jobs, spec, grid, services = _two_horizons()
    counts = _count_layer_calls(monkeypatch)
    result = run_flexmax_campaign(jobs, spec, grid, services, [0.5], master_seed=5,
                                  clusters_per_day=0)
    assert counts["aggregate_daily"] == 0
    assert counts["partition_to_horizon"] == counts["baseline_profile"] == 2
    assert result.cell(0.25, 2920.0, 0.5).statuses == ("optimal", "optimal")
    config = result.to_json_dict()["config"]
    assert config["clusters_per_day"] == 0
    assert "aggregate" not in config


def test_campaign_accepts_the_ends_of_the_ranges():
    jobs, spec, grid, services = _two_horizons()
    result = run_campaign(jobs, spec, ECON, grid, services, [0.0, 1.0], [None, 0.0, 1.0],
                          master_seed=5)
    assert len(result.cells) == 6
    assert all(cell.windows_evaluated == 2 for cell in result.cells.values())


@pytest.mark.parametrize("payload", [
    {"a": 1}, [], {"kind": "flexmax"}, {"cells": {}}, {"kind": "flexmax", "cells": []},
    {"kind": "flexmax", "cells": {"x": 1}}, {"kind": "flexmax", "cells": {"x": {"a": 1}}},
], ids=["foreign", "list", "no_cells", "no_kind", "cells_list", "cell_number",
        "cell_fields"])
def test_json_that_is_not_a_campaign_grid_is_rejected(payload):
    with pytest.raises(ValueError, match="not a campaign"):
        CampaignResult.from_json_dict(payload)


def test_flexmax_campaign_is_run_campaign_at_fraction_none():
    jobs, spec, grid, services = _two_horizons()
    options = dict(dq=DqParams(True, 0.5), master_seed=5, backend=DEFAULT_BACKEND,
                   clusters_per_day=0, n_workers=1)
    flex = run_flexmax_campaign(jobs, spec, grid, services, delays=[0.5, 1.0], **options)
    both = run_campaign(jobs, spec, None, grid, services, [0.5, 1.0], [None], **options)
    assert flex.to_json() == both.to_json()
    with pytest.raises(TypeError):
        run_flexmax_campaign(jobs, spec, grid, services, [0.5], flex_fractions=[1.0])


def _two_horizons():
    """Jobs, spec, grid and services of a two-horizon campaign."""
    grid = TimeGrid(15, 8)
    jobs = JobTable(["a", "b", "pad"], [1, 1, 9], [2, 2, 8], [1.0, 1.0, 0.01])
    return jobs, tiny_a_spec(), grid, service_grid([0.25], [2920.0], grid)


def test_campaign_worker_count_invariance():
    jobs, spec, grid, services = _two_horizons()
    one = run_flexmax_campaign(jobs, spec, grid, services, [1.0, 0.5],
                               master_seed=5, n_workers=1)
    two = run_flexmax_campaign(jobs, spec, grid, services, [1.0, 0.5],
                               master_seed=5, n_workers=2)
    assert one.to_json() == two.to_json()


def test_worker_pool_is_capped_at_the_horizon_count(monkeypatch):
    recorded = []

    def in_process_pool(max_workers):
        """Records max_workers; the pool maps its tasks in this process."""
        recorded.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", in_process_pool)
    jobs, spec, grid, services = _two_horizons()
    result = run_flexmax_campaign(jobs, spec, grid, services, [1.0], master_seed=5,
                                  n_workers=8)
    assert recorded == [2]
    assert len(result.cell(0.25, 2920.0, 1.0).statuses) == 2


def test_costmin_campaign_worker_count_invariance():
    jobs, spec, grid, services = _two_horizons()
    one, two = (run_costmin_campaign(jobs, spec, ECON, grid, services, [1.0, 0.5],
                                     [0.5, 1.0], master_seed=5, n_workers=n)
                for n in (1, 2))
    assert one.to_json() == two.to_json()
    flex = run_flexmax_campaign(jobs, spec, grid, services, [1.0, 0.5], master_seed=5)
    assert len(one.cells) == 2 * len(flex.cells)
    for key, cell in one.cells.items():
        optimum = flex.cell(key.duration_hours, key.annual_frequency, key.max_delay_frac)
        assert cell.mean_flex_kw == pytest.approx(key.flex_fraction * optimum.mean_flex_kw,
                                                  rel=1e-12)


LAYER_NAMES = ("build_flexmax", "at_delay", "build_costmin", "retarget", "sample_activations",
               "partition_to_horizon", "aggregate_daily", "baseline_profile")


def _count_layer_calls(monkeypatch) -> Counter:
    """Count the calls made through the names the campaign imports, the
    models its CellSolvers solve (as `solve`) and the HiGHS runs."""
    counts = Counter()

    def count(owner, name, as_name=None):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[as_name or name] += 1
            if kwargs.get("relax"):  # the LP relaxation solve() runs before a MILP
                counts["relaxation"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in LAYER_NAMES:
        count(campaign, name)
    count(CellSolver, "solve", "solve")
    count(importlib.import_module("dcflex.solve"), "_run_highs")
    return counts


def test_campaign_calls_each_layer_through_its_module_name(monkeypatch):
    jobs, spec, grid, services = _two_horizons()
    delays = [1.0, 0.5]
    pairs = 2 * len(services)  # (horizon, service) pairs
    cells = pairs * len(delays)  # (horizon, service, delay) triples

    # one activation plan and one flexibility LP per pair, solved at each
    # delay
    counts = _count_layer_calls(monkeypatch)
    run_flexmax_campaign(jobs, spec, grid, services, delays, master_seed=5)
    assert counts == Counter(build_flexmax=pairs, at_delay=cells, solve=cells,
                             _run_highs=cells, sample_activations=pairs,
                             partition_to_horizon=2, aggregate_daily=2, baseline_profile=2)

    # under dynamic quota each fraction but the degenerate 0.0 one adds a
    # cost solve: the cost model is built once, at fraction 1.0, and
    # retargeted to 0.5.
    # Horizon 1's four cost models have binaries: each is solved as its LP
    # relaxation first, and as each relaxation is fractional, each goes on
    # to branch-and-bound
    counts.clear()
    result = run_costmin_campaign(jobs, spec, ECON, grid, services, delays,
                                  [0.0, 0.5, 1.0], dq=DqParams(True, 0.5), master_seed=5)
    assert [c.degenerate for c in result.cells.values()] == [True, False, False] * 2
    assert counts == Counter(build_flexmax=pairs, at_delay=cells, build_costmin=cells,
                             retarget=cells, solve=3 * cells, _run_highs=3 * cells + 4,
                             relaxation=4,
                             sample_activations=pairs, partition_to_horizon=2,
                             aggregate_daily=2, baseline_profile=2)
    # horizon 2 holds only the pad job, whose cost model has no binaries: its
    # optimal solve reports gap 0.0, not a missing gap
    assert result.cell(0.25, 2920.0, 1.0, 0.5).gaps == (0.0, 0.0)


def test_zero_delay_cells_without_quota_skip_the_lp(monkeypatch):
    jobs, spec, grid, services = _two_horizons()
    horizons = 2 * len(services)  # (horizon, service) pairs, one 0.5 LP each

    counts = _count_layer_calls(monkeypatch)
    result = run_flexmax_campaign(jobs, spec, grid, services, [0.0, 0.5], master_seed=5)
    assert counts == Counter(build_flexmax=horizons, at_delay=horizons, solve=horizons,
                             _run_highs=horizons, sample_activations=horizons,
                             partition_to_horizon=2, aggregate_daily=2, baseline_profile=2)
    zero = result.cell(0.25, 2920.0, 0.0)
    assert zero.mean_flex_kw == 0.0 and zero.statuses == ("optimal", "optimal")
    assert result.cell(0.25, 2920.0, 0.5).mean_flex_kw > 0.0

    # under dynamic quota the zero-delay LP is still solved, first in the
    # chain: quota can shift power without any delay
    counts.clear()
    run_flexmax_campaign(jobs, spec, grid, services, [0.0, 0.5], dq=DqParams(True, 0.5),
                         master_seed=5)
    assert counts["build_flexmax"] == horizons
    assert counts["at_delay"] == counts["_run_highs"] == 2 * horizons


def test_mixed_fractions_give_the_pair_of_campaigns_with_fewer_lps(monkeypatch):
    jobs, spec, grid, services = _two_horizons()
    dq = DqParams(True, 0.5)
    pairs = 2 * len(services)  # (horizon, service) pairs, one 0.5 LP each

    counts = _count_layer_calls(monkeypatch)
    both = run_campaign(jobs, spec, ECON, grid, services, [0.5], [None, 1.0], dq=dq,
                        master_seed=5)
    # one flexibility LP per pair, shared by both cells
    assert counts["build_flexmax"] == pairs
    assert counts["solve"] == 2 * pairs
    counts.clear()
    flex = run_flexmax_campaign(jobs, spec, grid, services, [0.5], dq=dq, master_seed=5)
    cost = run_costmin_campaign(jobs, spec, ECON, grid, services, [0.5], [1.0], dq=dq,
                                master_seed=5)
    assert counts["build_flexmax"] == 2 * pairs
    assert counts["solve"] == 3 * pairs
    assert both.kind == cost.kind == "costmin"
    assert both.to_json_dict()["cells"] == {**flex.to_json_dict()["cells"],
                                            **cost.to_json_dict()["cells"]}

    # a run without cost cells is a flexibility run whatever econ it is
    # given: no cost model, no econ echo
    counts.clear()
    econ_given = run_campaign(jobs, spec, ECON, grid, services, [0.5], [None], dq=dq,
                              master_seed=5)
    assert counts["build_flexmax"] == counts["solve"] == pairs
    assert counts["build_costmin"] == 0
    assert econ_given.to_json() == flex.to_json()
    with pytest.raises(ValueError, match="EconParams"):
        run_campaign(jobs, spec, None, grid, services, [0.5], [None, 1.0])


def _general_like(days):
    """Criterion 10's spec, grid, seed-0 general_like trace and service."""
    spec = DataCenterSpec(total_resources=100.0, unit_power_kw=1.0, fixed_power_kw=0.0,
                          preempt_overhead_min=0.5, preempt_budget_frac=0.01,
                          max_delay_frac=0.2, device_class="cpu_general")
    grid = TimeGrid(15, 960)
    table = discretize(zero_queue(generate_synthetic_trace("general_like", days, 0, grid,
                                                           spec)), grid)
    return table, spec, grid, service_grid([0.25], [365.0], grid)


@contextlib.contextmanager
def _solve_log():
    """The messages of the `dcflex.solve` DEBUG records while active."""
    messages = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("dcflex.solve")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _run_and_start(message) -> tuple:
    return re.search(r" by (\S+),.* (\w+) start$", message).groups()


@pytest.fixture(scope="module")
def warm_and_cold():
    """Criterion 10's cost campaign with and without quota, replayed cold.

    Per quota setting: the cells at fractions (0.9, 1.0) and at (1.0, 0.9),
    and per model solved in the second run, each on a CellSolver, in order,
    (warm solution, run, start, cold solution, run), the cold ones from
    solve() on that model.
    """
    table, spec, grid, services = _general_like(20)
    out = {}
    for dq in (DqParams(True, 0.5), NO_DQ):
        solved = []

        class Recording(CellSolver):
            def solve(self, model):
                solution = super().solve(model)
                solved.append((model, solution))
                return solution

        cells = []
        for fractions in ([0.9, 1.0], [1.0, 0.9]):
            solved.clear()
            with pytest.MonkeyPatch.context() as patch, _solve_log() as messages:
                patch.setattr(campaign, "CellSolver", Recording)
                result = run_costmin_campaign(table, spec, EconParams(), grid, services,
                                              [0.2], fractions, dq=dq, master_seed=11)
            cells.append(result.to_json_dict()["cells"])
        warm = [_run_and_start(m) for m in messages]
        with _solve_log() as messages:
            cold = [solve(model) for model, _ in solved]
        replay = [(w, run, start, c, _run_and_start(m)[0])
                  for (_, w), (run, start), c, m in zip(solved, warm, cold, messages)]
        out[dq.enabled] = cells, replay
    return out


@pytest.mark.parametrize("quota", [True, False])
def test_warm_cell_solves_agree_with_cold_solves(warm_and_cold, quota):
    _, replay = warm_and_cold[quota]
    # per horizon: the LP, the one delay of its chain, then the cost models
    # at 1.0 and 0.9 on one CellSolver
    per_cell = 3
    assert len(replay) == 2 * per_cell
    assert [start for _, _, start, _, _ in replay] == ["cold", "cold", "warm"] * 2
    for i, (warm, run, _, cold, cold_run) in enumerate(replay):
        assert (warm.status, run) == (cold.status, cold_run), i
        assert warm.ok, i
        for name in ("mean_flex_kw", "total_cost", "extra_energy_cost"):
            value = getattr(warm, name)
            assert value == pytest.approx(getattr(cold, name), rel=1e-9, abs=1e-12), (i, name)
    # at fraction 1.0 the cost cells without quota branch; under quota
    # horizon 1's is proved by its relaxation and horizon 2's branches
    runs = [run for _, run, *_ in replay[per_cell - 2::per_cell]]
    assert runs == (["relaxation", "branch-and-bound"] if quota else ["branch-and-bound"] * 2)


@pytest.mark.parametrize("quota", [True, False])
def test_fraction_order_does_not_change_the_cells(warm_and_cold, quota):
    (descending, ascending), _ = warm_and_cold[quota]
    assert descending == ascending
    assert all(cell["statuses"] == ["optimal", "optimal"] for cell in descending.values())


@pytest.mark.parametrize("quota", [True, False])
def test_first_cost_solve_of_a_cell_is_a_cold_solve(warm_and_cold, quota):
    _, replay = warm_and_cold[quota]
    per_cell = 3
    for i in range(per_cell - 2, len(replay), per_cell):  # the cost model at 1.0
        warm, run, start, cold, cold_run = replay[i]
        assert (start, warm.status, run) == ("cold", cold.status, cold_run), i
        assert warm.stats.iterations == cold.stats.iterations, i
        for name in ("total_cost", "extra_energy_cost"):
            assert getattr(warm, name).hex() == getattr(cold, name).hex(), (i, name)


def test_fraction_after_branch_and_bound_starts_warm_on_a_new_instance(monkeypatch):
    # criterion 10's first horizon without quota, whose cost model at 1.0
    # goes to branch-and-bound: that gives up the held instance, so the
    # model at 0.9 is passed whole to a new one that starts from the basis
    table, spec, grid, services = _general_like(20)
    part, base = campaign._prepare_horizon(table, spec, grid, 1, 11, 100)
    plan = campaign._cell_plan(grid, services[0], 1, 11)
    spec_d = spec.with_max_delay(0.2)
    s_max = solve(build_flexmax(part, spec_d, base, plan)).mean_flex_kw
    cost = build_costmin(part, spec_d, EconParams(), base, plan, s_max)
    moved = retarget(cost, 0.9 * s_max)
    cell = CellSolver()
    with _solve_log() as messages:
        cell.solve(cost)
    assert _run_and_start(messages[0]) == ("branch-and-bound", "cold")

    solve_module = importlib.import_module("dcflex.solve")
    made, new_highs = [], solve_module._new_highs

    def recording(model, backend, relax):
        made.append((model is moved, relax))
        return new_highs(model, backend, relax)
    monkeypatch.setattr(solve_module, "_new_highs", recording)
    with _solve_log() as messages:
        warm = cell.solve(moved)
    assert made[0] == (True, True)  # the relaxation instance holds the new model
    assert _run_and_start(messages[0])[1] == "warm"
    monkeypatch.undo()
    cold = solve(moved)
    assert warm.status == cold.status == "optimal"
    for name in ("mean_flex_kw", "total_cost", "extra_energy_cost"):
        assert getattr(warm, name) == pytest.approx(getattr(cold, name), rel=1e-9,
                                                    abs=1e-12), name


def _ai_like_horizon_run(delays, dq) -> dict:
    """The other arguments of _horizon_records on criterion 09's spec and
    seed-1 20-day ai_like trace, at 0.25 h x 365/yr and master seed 7."""
    spec = DataCenterSpec(total_resources=100.0, unit_power_kw=1.0, fixed_power_kw=0.0,
                          preempt_overhead_min=1.5, preempt_budget_frac=0.01,
                          max_delay_frac=0.2, device_class="gpu_ai")
    grid = TimeGrid(15, 960)
    table = discretize(zero_queue(generate_synthetic_trace("ai_like", 20, 1, grid, spec)),
                       grid)
    return dict(table=table, spec=spec, econ=None, grid=grid,
                services=service_grid([0.25], [365.0], grid), delays=delays,
                fractions=(None,), dq=dq, master_seed=7, backend=DEFAULT_BACKEND,
                clusters_per_day=100)


def test_flexibility_never_falls_as_the_delay_grows():
    # every delay of a service is solved on the same activation windows, and
    # a longer delay only widens each job's available period. With windows
    # drawn per delay, horizon 1 read 67.09, 80.60 and 67.20 kW at delays
    # 0.1, 0.2 and 0.5
    run = _ai_like_horizon_run((0.0, 0.1, 0.2, 0.5), NO_DQ)
    for h in (1, 2):
        flex = [r["flex_kw"] for r in campaign._horizon_records(h, **run)]
        assert flex[0] == 0.0 and flex[1] > 0.0, h
        for smaller, larger in zip(flex, flex[1:]):
            assert larger >= smaller * (1.0 - 1e-12), (h, flex)


@pytest.mark.parametrize("quota", [False, True])
def test_delay_chain_equals_cold_solves_on_the_same_windows(monkeypatch, quota):
    # one flexibility LP per (horizon, service), solved warm from delay to
    # delay, against a cold LP built at each delay; under quota delay 0.0 is
    # solved too, first in the chain
    dq = DqParams(True, 0.5) if quota else NO_DQ
    run = _ai_like_horizon_run((0.5, 0.0, 0.2, 0.1), dq)
    counts = _count_layer_calls(monkeypatch)
    records = campaign._horizon_records(1, **run)
    monkeypatch.undo()
    assert counts["build_flexmax"] == 1
    assert counts["solve"] == counts["at_delay"] == (4 if quota else 3)
    part, base = campaign._prepare_horizon(run["table"], run["spec"], run["grid"], 1, 7, 100)
    plan = campaign._cell_plan(run["grid"], run["services"][0], 1, 7)
    for record in records:
        delay = record["cell"].max_delay_frac
        if delay == 0.0 and not quota:
            assert record["flex_kw"] == 0.0
            continue
        cold = solve(build_flexmax(part, run["spec"].with_max_delay(delay), base, plan, dq))
        assert record["status"] == cold.status == "optimal"
        assert record["flex_kw"] == pytest.approx(cold.mean_flex_kw, rel=1e-12), delay


def test_warm_solves_take_fewer_iterations_than_cold(warm_and_cold):
    # single-threaded HiGHS repeats its iteration counts exactly: 13338
    # against 17985 when this was written
    _, replay = warm_and_cold[True]
    warm = sum(w.stats.iterations for w, *_ in replay)
    cold = sum(c.stats.iterations for *_, c, _ in replay)
    assert warm < cold


def test_bench_output_checks_accept_campaign_results():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "bench" / "check_selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
