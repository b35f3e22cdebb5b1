import numpy as np
import pytest

from dcflex.model import ActivationPlan, JobTable
from dcflex.preprocess import baseline_profile
from dcflex.problem import build_costmin, build_flexmax
from dcflex.solve import (
    SolverBackend,
    TargetUnreachableError,
    _decode,
    require_optimal,
    solve,
)

from conftest import ECON, TINY_GRID, random_instance, random_plan


def test_tiny_a_flexmax(tiny_a):
    jobs, spec, base, plan = tiny_a
    sol = solve(build_flexmax(jobs, spec, base, plan))
    assert sol.ok
    assert sol.mean_flex_kw == pytest.approx(2.0, abs=1e-6)
    assert sol.sustained_kw.tolist() == [pytest.approx(2.0, abs=1e-6)]
    assert np.allclose(sol.flex_kw, base.power_kw - sol.power_kw, atol=1e-9)


def test_tiny_a_costmin(tiny_a):
    jobs, spec, base, plan = tiny_a
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0))
    assert sol.ok
    assert sol.total_cost == pytest.approx(0.25, abs=1e-6)
    assert sol.delay_frac["a"] == pytest.approx(0.5, abs=1e-6)
    assert sol.end_marker["a"] == pytest.approx(4.0, abs=1e-6)
    assert sol.extra_energy_cost == 0.0
    assert sol.job_cost["a"] + sol.job_cost["b"] == pytest.approx(0.25, abs=1e-6)


def test_costmin_zero_target_is_free(tiny_a):
    jobs, spec, base, plan = tiny_a
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 0.0))
    assert sol.ok
    assert sol.total_cost == pytest.approx(0.0, abs=1e-9)


def test_empty_job_set(tiny_a):
    _, spec, _, plan = tiny_a
    empty = JobTable.empty()
    base = baseline_profile(empty, spec, TINY_GRID)
    sol = solve(build_flexmax(empty, spec, base, plan))
    assert sol.ok
    assert sol.mean_flex_kw == pytest.approx(0.0, abs=1e-12)


def test_unreachable_target(tiny_a):
    jobs, spec, base, plan = tiny_a
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 3.0))
    assert sol.status == "infeasible"
    assert sol.target_unreachable
    with pytest.raises(TargetUnreachableError):
        require_optimal(sol)


def test_solution_respects_model_invariants():
    rng = np.random.default_rng(5)
    for _ in range(25):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        sol = solve(build_flexmax(jobs, spec, base, plan))
        assert sol.ok
        tol = 1e-6
        by_id = {jid: i for i, jid in enumerate(jobs.ids)}
        # completion and allocation limits
        for jid in jobs.ids:
            total = sum(v for (j, t), v in sol.x.items() if j == jid)
            assert total == pytest.approx(float(jobs.compute_steps[by_id[jid]]), abs=tol)
        usage = np.zeros(grid.steps + 1)
        for (jid, t), v in sol.x.items():
            usage[t] += v * jobs.resources[by_id[jid]]
        assert usage.max() <= spec.total_resources + tol
        # flexibility identity and objective wiring
        assert np.allclose(sol.flex_kw, base.power_kw - sol.power_kw, atol=tol)
        assert sol.mean_flex_kw == pytest.approx(float(sol.sustained_kw.mean()), abs=1e-12)


def test_decode_clamps_sustained_to_lower_bound(tiny_a):
    # HiGHS can return a sustained value a hair below its lower bound 0
    jobs, spec, base, _ = tiny_a
    plan = ActivationPlan(windows=((1, 1), (3, 3)), grid=TINY_GRID)
    model = build_flexmax(jobs, spec, base, plan)
    values = np.zeros(len(model.obj))
    s0 = model.meta["s0"]
    values[s0:s0 + 2] = [-1e-16, 0.5]
    sol = _decode(model, values, "optimal", 0.0, None)
    assert sol.sustained_kw.tolist() == [0.0, 0.5]
    assert sol.mean_flex_kw == 0.25
    assert sol.mean_flex_kw == float(sol.sustained_kw.mean())
    values[s0:s0 + 2] = -1e-16
    assert _decode(model, values, "optimal", 0.0, None).mean_flex_kw == 0.0


def test_backend_capability_check(tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_costmin(jobs, spec, ECON, base, plan, 1.0)
    lp_only = SolverBackend(name="lp-only", capabilities=frozenset({"lp"}))
    with pytest.raises(ValueError, match="cannot solve MILPs"):
        solve(model, lp_only)


def test_solve_deterministic(tiny_a):
    jobs, spec, base, plan = tiny_a
    a = solve(build_flexmax(jobs, spec, base, plan))
    b = solve(build_flexmax(jobs, spec, base, plan))
    assert a.mean_flex_kw == b.mean_flex_kw
    assert np.array_equal(a.power_kw, b.power_kw)
