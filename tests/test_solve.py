import importlib
import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

from dcflex.model import ActivationPlan, JobTable
from dcflex.preprocess import baseline_profile
from dcflex.problem import DqParams, build_costmin, build_flexmax, retarget
from dcflex.solve import (
    _INTEGER_TOL,
    DEFAULT_BACKEND,
    CellSolver,
    _decode,
    _new_highs,
    _run_highs,
    solve,
)

from conftest import (
    ECON,
    TINY_GRID,
    random_instance,
    random_plan,
    tiny_a_jobs,
    tiny_a_spec,
)

# the package re-exports the function solve under the module's name
solve_module = importlib.import_module("dcflex.solve")


def _flex_and_power(model):
    """The flexibility and power columns of the model's solution."""
    _, _, values, _ = _run_highs(model, DEFAULT_BACKEND)
    meta = model.meta
    return (values[meta["f0"]:meta["f0"] + meta["T"]],
            values[meta["p0"]:meta["p0"] + meta["T"]])


def _decoded(model, values):
    """(mean_flex_kw, total_cost) as solve() decodes them from the values."""
    sol = _decode(model, values, "optimal", None)
    return sol.mean_flex_kw, sol.total_cost


def test_tiny_a_flexmax(tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_flexmax(jobs, spec, base, plan)
    sol = solve(model)
    assert sol.ok
    assert sol.mean_flex_kw == pytest.approx(2.0, abs=1e-6)
    assert (sol.mean_flex_kw, sol.total_cost) == _decoded(
        model, _run_highs(model, DEFAULT_BACKEND)[2])
    flex, power = _flex_and_power(model)
    assert np.allclose(flex, base.power_kw - power, atol=1e-9)


def test_tiny_a_costmin(tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_costmin(jobs, spec, ECON, base, plan, 2.0)
    sol = solve(model)
    assert sol.ok
    assert sol.total_cost == pytest.approx(0.25, abs=1e-6)
    assert sol.extra_energy_cost == 0.0
    # job a runs steps 2..3 and ends one step past its undelayed completion 3;
    # both jobs can be late, so d_col holds a delay per job in job order
    _, _, values, _ = _run_highs(model, DEFAULT_BACKEND)
    meta = model.meta
    a = meta["job_ids"].index("a")
    assert values[meta["d_col"][a]] == pytest.approx(1.0, abs=1e-6)


def test_costmin_total_counts_every_job_of_a_repeated_id(tiny_a):
    # a trace may repeat a job id; each job's price cost still counts, so
    # both jobs shifting out of the window cost 0.25 each either way
    _, spec, base, _ = tiny_a
    plan = ActivationPlan(windows=((2, 2),), grid=TINY_GRID)
    for ids in (["a", "b"], ["a", "a"]):
        jobs = JobTable(ids, [1, 1], [2, 2], [1.0, 1.0])
        target = solve(build_flexmax(jobs, spec, base, plan)).mean_flex_kw
        sol = solve(build_costmin(jobs, spec, ECON, base, plan, target))
        assert sol.ok
        assert sol.total_cost == sol.stats.primal_bound
        assert sol.total_cost == pytest.approx(0.5, abs=1e-6)


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


def test_solution_respects_model_invariants():
    rng = np.random.default_rng(5)
    for _ in range(25):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        model = build_flexmax(jobs, spec, base, plan)
        sol = solve(model)
        assert sol.ok
        tol = 1e-6
        _, _, values, _ = _run_highs(model, DEFAULT_BACKEND)
        meta = model.meta
        # completion and allocation limits, on each job's x columns over
        # its available period
        usage = np.zeros(grid.steps + 1)
        for j, (a, b, col) in enumerate(zip(meta["win_a"], meta["win_b"], meta["x0"])):
            x = values[col:col + b - a + 1]
            assert x.sum() == pytest.approx(float(jobs.compute_steps[j]), abs=tol)
            usage[a:b + 1] += x * jobs.resources[j]
        assert usage.max() <= spec.total_resources + tol
        # flexibility identity and objective wiring
        flex, power = _flex_and_power(model)
        assert np.allclose(flex, base.power_kw - power, atol=tol)
        s0 = meta["s0"]
        assert sol.mean_flex_kw == pytest.approx(
            float(values[s0:s0 + plan.count].mean()), abs=1e-12)
        assert (sol.mean_flex_kw, sol.total_cost) == _decoded(model, values)


def test_decode_clamps_sustained_to_lower_bound(tiny_a):
    # HiGHS can return a sustained value a hair below its lower bound 0
    jobs, spec, base, _ = tiny_a
    plan = ActivationPlan(windows=((1, 1), (3, 3)), grid=TINY_GRID)
    model = build_flexmax(jobs, spec, base, plan)
    values = np.zeros(len(model.obj))
    s0 = model.meta["s0"]
    values[s0:s0 + 2] = [-1e-16, 0.5]
    # unclamped, the mean would be 0.24999999999999994
    assert _decode(model, values, "optimal", None).mean_flex_kw == 0.25
    values[s0:s0 + 2] = -1e-16
    assert _decode(model, values, "optimal", None).mean_flex_kw == 0.0


def test_solve_deterministic(tiny_a):
    jobs, spec, base, plan = tiny_a
    a = solve(build_flexmax(jobs, spec, base, plan))
    b = solve(build_flexmax(jobs, spec, base, plan))
    assert a.mean_flex_kw == b.mean_flex_kw
    model = build_flexmax(jobs, spec, base, plan)
    assert (_run_highs(model, DEFAULT_BACKEND)[2].tobytes()
            == _run_highs(model, DEFAULT_BACKEND)[2].tobytes())


def test_budgeted_flexmax_is_deterministic():
    # a max delay of 1.0 leaves most jobs more idle steps than their
    # preemption budget, so they get a counter (z, np) and simplex iterates
    rng = np.random.default_rng(0)
    grid, jobs, spec, base = random_instance(rng, max_jobs=60, max_steps=48,
                                             max_delay_frac=1.0)
    model = build_flexmax(jobs, spec, base, random_plan(rng, grid, max_windows=4,
                                                        max_duration=3))
    assert sum(name.startswith("np_") for name in model.var_names) > 20
    first, second = (_run_highs(model, DEFAULT_BACKEND) for _ in range(2))
    assert first[0] == second[0] == HighsModelStatus.kOptimal
    assert first[1].simplex_iteration_count == second[1].simplex_iteration_count > 100
    assert first[2].tobytes() == second[2].tobytes()


def test_every_highs_run_gets_max_value_scaling(tiny_a):
    jobs, spec, base, plan = tiny_a
    flex = build_flexmax(jobs, spec, base, plan)
    cost = build_costmin(jobs, spec, ECON, base, plan, 2.0)
    assert flex.n_binary == 0 and cost.n_binary > 0
    # the LP, the cost model's relaxation and its branch-and-bound instance
    for model, relax in ((flex, False), (cost, True), (cost, False)):
        h = _new_highs(model, DEFAULT_BACKEND, relax)
        assert h.getOptionValue("simplex_scale_strategy") == (HighsStatus.kOk, 4)
        assert h.getOptionValue("solver") == (HighsStatus.kOk, "choose")


# --- the direct HiGHS call against scipy.optimize.milp ----------------------

# scipy's milp status codes as solve() read them when it called milp
_MILP_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "limit"}


def _reference_solve(model, backend=DEFAULT_BACKEND):
    """(status, x, gap) of the model through scipy.optimize.milp, kept frozen."""
    is_mip = model.n_binary > 0
    options = {"presolve": True}
    if is_mip:
        options.update(mip_rel_gap=backend.mip_rel_gap, time_limit=backend.time_limit_s)
    res = milp(
        c=model.obj if model.sense == "min" else -model.obj,
        constraints=LinearConstraint(model.a_matrix, model.row_lb, model.row_ub),
        integrality=model.integrality,
        bounds=Bounds(model.var_lb, model.var_ub),
        options=options,
    )
    status = _MILP_STATUS.get(res.status, "limit")
    if res.x is None:
        return status, None, None
    gap = float(res.mip_gap) if is_mip else (0.0 if status == "optimal" else None)
    return status, res.x, gap


def _oracle_models():
    """Flexibility LPs and half-target cost models, quota off and on, then one
    cost model whose target exceeds the maximum."""
    rng = np.random.default_rng(20)
    for _ in range(10):
        grid, jobs, spec, base = random_instance(rng, max_jobs=8, max_steps=12)
        plan = random_plan(rng, grid)
        for dq in (DqParams(False, 0.5), DqParams(True, 0.5)):
            flex = build_flexmax(jobs, spec, base, plan, dq)
            yield flex
            yield build_costmin(jobs, spec, ECON, base, plan, 0.5 * solve(flex).mean_flex_kw,
                                dq=dq)
    jobs, spec = tiny_a_jobs(), tiny_a_spec()
    plan = ActivationPlan(windows=((1, 1),), grid=TINY_GRID)
    yield build_costmin(jobs, spec, ECON, baseline_profile(jobs, spec, TINY_GRID), plan, 3.0)


def _relaxation_proves(model) -> bool:
    """Whether the model has binaries and an optimal, integral LP relaxation."""
    status, _, values, _ = _run_highs(model, DEFAULT_BACKEND, relax=True)
    if model.n_binary == 0 or status != HighsModelStatus.kOptimal:
        return False
    x = values[model.integrality > 0]
    return bool(np.all(np.abs(x - np.round(x)) <= _INTEGER_TOL))


def test_direct_highs_matches_milp_bit_for_bit():
    seen = []
    for i, model in enumerate(_oracle_models()):
        status, x, gap = _reference_solve(model)
        sol = solve(model)
        by_relaxation = _relaxation_proves(model)
        assert (sol.status, sol.stats.gap) == (status, 0.0 if by_relaxation else gap), i
        if x is None:
            assert sol.mean_flex_kw is None and _run_highs(model, DEFAULT_BACKEND)[2] is None, i
        else:
            assert _run_highs(model, DEFAULT_BACKEND)[2].tobytes() == x.tobytes(), i
            # solve() decodes the values of the run that proved its result
            values = _run_highs(model, DEFAULT_BACKEND, relax=by_relaxation)[2]
            assert (sol.mean_flex_kw, sol.total_cost) == _decoded(model, values), i
        seen.append((model.kind, model.n_binary > 0, status, by_relaxation))
    assert len(seen) == 41
    outcomes = [s[:3] for s in seen]
    assert outcomes.count(("flexmax", False, "optimal")) == 20
    assert outcomes.count(("costmin", True, "optimal")) >= 15
    # both runs are exercised: MILPs proved by their relaxation and MILPs
    # that go on to branch-and-bound
    assert ("costmin", True, "optimal", True) in seen
    assert ("costmin", True, "optimal", False) in seen
    assert seen[-1] == ("costmin", True, "infeasible", False)


def test_solve_agrees_with_milp_on_status_and_objective():
    for i, model in enumerate(_oracle_models()):
        status, x, _ = _reference_solve(model)
        sol = solve(model)
        assert sol.status == status, i
        if x is not None:
            objective = float(model.obj @ x) + model.obj_const
            assert sol.stats.primal_bound == pytest.approx(
                objective, rel=DEFAULT_BACKEND.mip_rel_gap, abs=1e-9), i


def test_highs_holds_the_objective_constant(tiny_a):
    """HiGHS takes its bounds and MIP gap on the model's own objective: its
    instance carries the objective constant, negated with a max model's
    objective, and the stats read the bounds back without adding it."""
    jobs, spec, base, plan = tiny_a
    quota = build_costmin(jobs, spec, ECON, base, plan, 1.0, DqParams(True, 0.5))
    assert quota.obj_const != 0.0
    for relax in (False, True):
        offset = _new_highs(quota, DEFAULT_BACKEND, relax).getObjectiveOffset()[1]
        assert offset == quota.obj_const
    flex = replace(build_flexmax(jobs, spec, base, plan), obj_const=1.5)
    assert _new_highs(flex, DEFAULT_BACKEND, False).getObjectiveOffset()[1] == -1.5
    stats = solve(flex).stats
    assert stats.primal_bound == stats.dual_bound == pytest.approx(2.0 + 1.5, abs=1e-6)


def test_lp_stats(tiny_a):
    jobs, spec, base, plan = tiny_a
    stats = solve(build_flexmax(jobs, spec, base, plan)).stats
    assert stats.iterations > 0 and stats.nodes == 0
    assert stats.primal_bound == stats.dual_bound == pytest.approx(2.0, abs=1e-6)
    assert stats.gap == 0.0 and stats.highs_s > 0.0


def test_mip_stats(tiny_a, caplog):
    jobs, spec, base, plan = tiny_a
    with caplog.at_level(logging.DEBUG, logger="dcflex.solve"):
        sol = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0))
    stats = sol.stats
    # the LP relaxation of this model is integral and proves the optimum
    assert stats.nodes == 0 and stats.iterations > 0
    assert stats.primal_bound == pytest.approx(sol.total_cost, abs=1e-9)
    assert stats.dual_bound == stats.primal_bound
    assert stats.gap == 0.0
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["costmin solve"]
    assert "optimal by relaxation" in caplog.records[0].getMessage()


def _count_runs(monkeypatch) -> list:
    """Record (relax, time limit, result) of every _run_highs call."""
    runs = []

    def counted(model, backend, relax=False, held=None):
        result = _run_highs(model, backend, relax, held)
        runs.append((relax, backend.time_limit_s, result))
        return result
    monkeypatch.setattr(solve_module, "_run_highs", counted)
    return runs


def test_integral_relaxation_skips_branch_and_bound(monkeypatch, tiny_a):
    jobs, spec, base, plan = tiny_a
    runs = _count_runs(monkeypatch)
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0))
    assert [relax for relax, _, _ in runs] == [True]
    assert sol.status == "optimal" and sol.total_cost == pytest.approx(0.25, abs=1e-6)
    assert (sol.stats.nodes, sol.stats.gap) == (0, 0.0)
    assert sol.stats.highs_s == runs[0][2][3]
    # the tolerance solve() rounds by is the one HiGHS's MIP solver uses
    assert _INTEGER_TOL == _Highs().getOptionValue("mip_feasibility_tolerance")[1]


def _fractional_costmin():
    """A no-quota fraction-1.0 cost model whose LP relaxation is fractional."""
    rng = np.random.default_rng(0)
    grid, jobs, spec, base = random_instance(rng, max_jobs=8, max_steps=12)
    plan = random_plan(rng, grid)
    target = solve(build_flexmax(jobs, spec, base, plan)).mean_flex_kw
    return build_costmin(jobs, spec, ECON, base, plan, target)


def test_fractional_relaxation_falls_through_to_branch_and_bound(monkeypatch, caplog):
    model = _fractional_costmin()
    runs = _count_runs(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="dcflex.solve"):
        sol = solve(model)
    assert [relax for relax, _, _ in runs] == [True, False]
    (_, relax_limit, relaxed), (_, milp_limit, milp_run) = runs
    values = relaxed[2][model.integrality > 0]
    assert np.abs(values - np.round(values)).max() > 0.1
    assert sol.status == "optimal" and sol.stats.nodes >= 1
    assert sol.stats.gap == pytest.approx(0.0, abs=DEFAULT_BACKEND.mip_rel_gap)
    # the MILP gets what the relaxation left of the time limit, and the
    # stats count both runs
    assert relax_limit == DEFAULT_BACKEND.time_limit_s
    assert milp_limit == DEFAULT_BACKEND.time_limit_s - relaxed[3]
    assert sol.stats.highs_s == relaxed[3] + milp_run[3]
    assert sol.stats.iterations == (relaxed[1].simplex_iteration_count
                                    + milp_run[1].simplex_iteration_count)
    assert (sol.mean_flex_kw, sol.total_cost) == _decoded(model, milp_run[2])
    assert _decoded(model, relaxed[2])[1] < sol.total_cost
    # one record per solve() call, naming the run that gave the result
    assert len(caplog.records) == 1
    assert "optimal by branch-and-bound" in caplog.records[0].getMessage()


def test_unreachable_target_is_decided_by_the_relaxation(monkeypatch, tiny_a):
    jobs, spec, base, plan = tiny_a
    runs = _count_runs(monkeypatch)
    sol = solve(build_costmin(jobs, spec, ECON, base, plan, 3.0))
    assert [relax for relax, _, _ in runs] == [True]
    assert sol.status == "infeasible"
    assert sol.stats.nodes == 0


def test_model_size_in_stats(tiny_a, caplog):
    jobs, spec, base, plan = tiny_a
    # spans round(1.1 * 2) = 2 steps, no idle step: the jobs carry no preemption counter
    model = build_flexmax(jobs, spec.with_max_delay(0.1), base, plan)
    with caplog.at_level(logging.DEBUG, logger="dcflex.solve"):
        stats = solve(model).stats
    # x 4, p 4, f 4, s 1; completion 2, capacity 2, power 4, flex 4, sustain 1
    assert (stats.columns, stats.rows, stats.nonzeros, stats.binaries) == (13, 13, 26, 0)
    assert (model.n_vars, model.n_rows, model.a_matrix.nnz) == (13, 13, 26)
    assert "13 columns, 13 rows, 26 nonzeros, 0 binaries" in caplog.records[0].getMessage()


def test_unreachable_target_stats(tiny_a):
    jobs, spec, base, plan = tiny_a
    stats = solve(build_costmin(jobs, spec, ECON, base, plan, 3.0)).stats
    assert stats.primal_bound is None and stats.gap is None


_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit", "kInterrupt")
_BY_NAME = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded",
            **{name: "limit" for name in _LIMITS}}


@pytest.mark.parametrize("name", list(HighsModelStatus.__members__))
def test_highs_status_by_name(monkeypatch, tiny_a, name):
    jobs, spec, base, plan = tiny_a
    models = {"flexmax": build_flexmax(jobs, spec, base, plan),
              "costmin": build_costmin(jobs, spec, ECON, base, plan, 2.0)}
    solved = {(kind, relax): _run_highs(model, DEFAULT_BACKEND, relax)
              for kind, model in models.items() for relax in (False, True)}
    # the cost model's relaxation and its MILP both end in the status
    monkeypatch.setattr(solve_module, "_run_highs", lambda model, backend, relax=False,
                        held=None: (HighsModelStatus.__members__[name],)
                        + solved[model.kind, relax][1:])
    expected = _BY_NAME.get(name, "error")
    for kind, model in models.items():
        sol = solve(model)
        assert sol.status == expected
        # values survive an optimal solve, and a limit only with binaries
        kept = expected == "optimal" or (expected == "limit" and kind == "costmin")
        assert (sol.mean_flex_kw is not None) == kept
        assert (sol.total_cost is not None) == (kept and kind == "costmin")


def test_limit_without_incumbent_has_no_values(monkeypatch, tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_costmin(jobs, spec, ECON, base, plan, 2.0)
    _, info, _, seconds = _run_highs(model, DEFAULT_BACKEND)
    # the relaxation proves nothing and the MILP stops without an incumbent
    monkeypatch.setattr(solve_module, "_run_highs", lambda model, backend, relax=False,
                        held=None: (HighsModelStatus.kTimeLimit, info, None, seconds))
    sol = solve(model)
    assert sol.status == "limit" and sol.total_cost is None and sol.mean_flex_kw is None


def _agree(got, expected):
    assert got.status == expected.status
    for name in ("mean_flex_kw", "total_cost", "extra_energy_cost"):
        value, other = getattr(got, name), getattr(expected, name)
        assert (value is None) == (other is None), name
        if value is not None:
            assert value == pytest.approx(other, rel=1e-9, abs=1e-12), name


def test_cell_solver_takes_only_models_that_differ_in_bounds(tiny_a):
    jobs, spec, base, plan = tiny_a
    cell = CellSolver()
    flex = build_flexmax(jobs, spec, base, plan, DqParams(True, 0.5))
    assert cell.solve(flex).ok
    var_ub = flex.var_ub.copy()
    var_ub[0] = 0.0
    # fewer columns, the same shape with other completion coefficients,
    # another objective, another sense and another column bound
    for other in (build_flexmax(jobs, spec.with_max_delay(0.0), base, plan),
                  build_flexmax(jobs, spec, base, plan, DqParams(True, 0.25)),
                  replace(flex, obj=2.0 * flex.obj), replace(flex, sense="min"),
                  replace(flex, var_ub=var_ub)):
        with pytest.raises(ValueError, match="in more than its row bounds"):
            cell.solve(other)
    # a refused model leaves the instance as it was
    _agree(cell.solve(flex), solve(flex))

    cost = build_costmin(jobs, spec, ECON, base, plan, 2.0)
    cell = CellSolver()
    _agree(cell.solve(cost), solve(cost))
    for target in (1.0, 0.5):
        moved = retarget(cost, target)
        _agree(cell.solve(moved), solve(moved))
