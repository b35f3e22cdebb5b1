import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse
from scipy.optimize._highspy._core import HighsStatus, _Highs

from dcflex.model import ActivationPlan, JobTable, TimeGrid, round_half_away
from dcflex.preprocess import baseline_profile
from dcflex.problem import (
    NO_DQ,
    DqParams,
    ModelBuildError,
    ModelInstance,
    at_delay,
    available_window,
    build_costmin,
    build_flexmax,
    retarget,
    tightening_bound,
)
from dcflex.solve import _STATUS, DEFAULT_BACKEND, SolverBackend, _run_highs, solve, write_model

from conftest import ECON, random_instance, random_plan, tiny_a_spec

TIGHT = SolverBackend(mip_rel_gap=1e-9)


def test_available_window():
    # round((1 + delay) * D) steps from submission, clipped to the horizon
    assert available_window(1, 2, 1.0, 4) == (1, 4)
    assert available_window(1, 2, 0.0, 4) == (1, 2)
    assert available_window(3, 2, 0.2, 4) == (3, 4)
    assert available_window(1, 3, 0.5, 100) == (1, 5)  # round(4.5) -> 5


def test_tiny_a_structure(tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_flexmax(jobs, spec, base, plan)
    names = model.var_names
    assert sum(1 for n in names if n.startswith("x_")) == 8
    assert sum(1 for n in names if n.startswith("z_")) == 8
    assert sum(1 for n in model.row_names if n.startswith("capacity_")) == 4
    assert sum(1 for n in model.row_names if n.startswith("sustain_")) == 1
    assert model.n_binary == 0  # pure LP


def test_zero_delay_forces_baseline(tiny_a):
    jobs, spec, base, plan = tiny_a
    model = build_flexmax(jobs, spec.with_max_delay(0.0), base, plan)
    sol = solve(model)
    assert sol.ok
    assert sol.mean_flex_kw == pytest.approx(0.0, abs=1e-9)
    meta = model.meta
    # each available period is exactly the baseline span, steps 1..2
    assert meta["win_a"].tolist() == [1, 1] and meta["win_b"].tolist() == [2, 2]
    values = _run_highs(model, DEFAULT_BACKEND)[2]
    for col in meta["x0"]:
        assert values[col:col + 2].tolist() == pytest.approx([1.0, 1.0])


def test_dq_zero_speedup_coefficients(tiny_b):
    jobs, spec, base, plan = tiny_b
    model = build_flexmax(jobs, spec, base, plan, DqParams(True, 0.0))
    a = model.a_matrix.toarray()
    xdq_cols = [i for i, n in enumerate(model.var_names) if n.startswith("xdq_")]
    assert xdq_cols
    completion = model.row_names.index("completion_0")
    power = model.row_names.index("power_1")
    capacity = model.row_names.index("capacity_1")
    for col in xdq_cols:
        assert a[completion, col] == 0.0  # no workload contribution at K=0
    assert a[power, xdq_cols[0]] == -1.0  # still consumes power
    assert a[capacity, xdq_cols[0]] == 1.0  # still consumes capacity


def test_infeasible_index_sets():
    grid = TimeGrid(15, 4)
    spec = tiny_a_spec(max_delay_frac=0.0)
    base = baseline_profile(JobTable.empty(), spec, grid)
    plan = ActivationPlan(windows=((1, 1),), grid=grid)
    jobs = JobTable(["late", "long"], [5, 3], [1, 3], [1.0, 1.0])
    with pytest.raises(ModelBuildError) as err:
        build_flexmax(jobs, spec, base, plan)
    assert set(err.value.job_errors) == {"late", "long"}


def test_tightening_bound_values(tiny_a):
    jobs, spec, base, plan = tiny_a
    assert tightening_bound(ECON, spec, plan, 2.0) == pytest.approx(0.25)
    assert tightening_bound(ECON, spec, plan, 0.0) == 0.0


def test_costmin_binaries_only_run_flags(tiny_a):
    jobs, spec, base, plan = tiny_a
    for dq, delays in ((DqParams(), ["d_0", "d_1"]), (DqParams(True, 0.5), [])):
        model = build_costmin(jobs, spec, ECON, base, plan, 1.0, dq)
        integers = [model.var_names[i] for i in range(model.n_vars) if model.integrality[i]]
        # run flags start at the first step a delayed job could still occupy;
        # the delays are integer only without quota
        assert [n for n in integers if n.startswith("xp_")] == \
            ["xp_0_3", "xp_0_4", "xp_1_3", "xp_1_4"]
        assert [n for n in integers if not n.startswith("xp_")] == delays
        # one delay column per late job, and no other cost column
        families = {re.sub(r"(_\d+)+$", "", n) for n in model.var_names}
        assert families - {"x", "z", "xdq", "np", "p", "f", "s"} == {"xp", "d"}
        assert [n for n in model.var_names if n.startswith("d_")] == ["d_0", "d_1"]


def _read_and_solve(path):
    """HiGHS reading a written model back: its status, objective, constant,
    each column's (lb, ub, integer) by name, and its row names."""
    h = _Highs()
    h.setOptionValue("log_to_console", False)
    assert h.readModel(str(path)) == HighsStatus.kOk
    lp = h.getLp()
    kinds = lp.integrality_ or [0] * lp.num_col_  # empty for an LP
    cols = {h.getColName(i)[1]: (lb, ub, int(kind))
            for i, (lb, ub, kind) in enumerate(zip(lp.col_lower_, lp.col_upper_, kinds))}
    rows = [h.getRowName(r)[1] for r in range(h.getNumRow())]
    h.run()
    return (h.getModelStatus().name, h.getInfo().objective_function_value,
            h.getObjectiveOffset()[1], cols, rows)


def test_lp_text_export(tiny_a, tmp_path):
    """A written model read back by HiGHS has solve()'s optimum, constant,
    names, column bounds and integrality."""
    jobs, spec, base, plan = tiny_a
    flex = build_flexmax(jobs, spec, base, plan)
    # without quota: binaries and unbounded general integers, the delays
    plain = build_costmin(jobs, spec, ECON, base, plan, 1.0)
    assert math.inf in plain.var_ub[plain.integrality > 0]
    # dynamic quota: binaries and a nonzero objective constant
    quota = build_costmin(jobs, spec, ECON, base, plan, 1.0, DqParams(True, 0.5))
    assert quota.n_binary > 0 and quota.obj_const == pytest.approx(-0.05)
    models = flex, plain, quota
    optima = (solve(flex, TIGHT).mean_flex_kw, solve(plain, TIGHT).total_cost,
              solve(quota, TIGHT).total_cost)
    assert optima == pytest.approx((2.0, 0.125, 0.125))
    for i, (model, optimum) in enumerate(zip(models, optima)):
        for suffix in (".lp", ".mps"):
            path = tmp_path / f"{i}{suffix}"
            write_model(model, path)
            status, objective, offset, cols, rows = _read_and_solve(path)
            assert status == "kOptimal"
            assert objective == pytest.approx(optimum, abs=1e-9)
            assert offset == model.obj_const
            # an LP file lists the columns in their order of first use
            assert cols == dict(zip(model.var_names, zip(
                model.var_lb.tolist(), model.var_ub.tolist(), model.integrality.tolist())))
            assert rows == model.row_names
    with pytest.raises(ValueError, match="HiGHS rejected writing"):
        write_model(flex, tmp_path / "flexmax.txt")


def test_tiny_b_true_optimum_oracle(tiny_b):
    """Brute-force oracle for the dynamic-quota fixture.

    Enumerates (x1, x2, xdq1, xdq2) on a 1/60 grid under the stated
    constraints: completion x1+x2+K(xdq1+xdq2)=D, quota bounded by the base
    allocation, capacity, preemption budget. The optimum is S = K = 0.5 kW,
    and the whole cost is extra energy at pi (1 - K)/K per shifted kWh: the
    cheapest completion uses quota only in the second step.
    """
    jobs, spec, base, plan = tiny_b
    k = 0.5
    grid = np.linspace(0.0, 1.0, 61)
    x1, x2, d1, d2 = np.meshgrid(grid, grid, grid, grid, indexing="ij", sparse=True)
    complete = np.abs(x1 + x2 + k * (d1 + d2) - 2.0) < 1e-9
    quota_ok = (d1 <= x1 + 1e-12) & (d2 <= x2 + 1e-12)
    cap_ok = (x1 + d1 <= 2.0) & (x2 + d2 <= 2.0)
    # minimal preemption counter: decreases of x only, boundary x3 = 0
    npreempt = np.maximum(0.0, np.maximum(0.0, x1 - x2) + x2 - 1.0)
    preempt_ok = npreempt * (0.5 / 15.0) <= 0.01 * 2.0 + 1e-12
    feasible = complete & quota_ok & cap_ok & preempt_ok
    flex = np.where(feasible, 1.0 - (x1 + d1), -np.inf)
    oracle = float(flex.max())
    assert oracle == pytest.approx(0.5, abs=1e-9)

    sol = solve(build_flexmax(jobs, spec, base, plan, DqParams(True, 0.5)), TIGHT)
    assert sol.mean_flex_kw == pytest.approx(oracle, abs=1e-7)

    cost = solve(build_costmin(jobs, spec, ECON, base, plan, sol.mean_flex_kw,
                               dq=DqParams(True, 0.5)), TIGHT)
    shifted_kwh = 0.25 * sol.mean_flex_kw
    assert cost.total_cost - cost.extra_energy_cost == pytest.approx(0.0, abs=1e-9)
    assert cost.extra_energy_cost / shifted_kwh == pytest.approx(0.05, abs=1e-7)


def costmin_without(jobs, spec, base, plan, target, dq=DqParams(), cost_bound=False,
                    end_floors=True) -> ModelInstance:
    """The reference builder's e/delta/c cost model, with or without a
    cost_bound row (build_costmin has none, and the row needs dq off) and
    with or without its endfloor rows (build_costmin has them)."""
    return _as_instance("costmin", "min", _reference_costmin(
        jobs, spec, ECON, base, plan, target, dq, cost_bound, end_floors, lattice=False))


def reference_optimum(model, backend=TIGHT):
    """(status, objective, primal - dual bound) of a model as HiGHS solves it.

    solve() would decode the delay columns that build_costmin writes into
    meta, and the e/delta/c form has none, so its optimum is compared by
    objective value.
    """
    highs_status, info, _, _ = _run_highs(model, backend)
    gap = info.objective_function_value - info.mip_dual_bound if model.n_binary else 0.0
    return _STATUS.get(highs_status.name, "error"), info.objective_function_value, gap


def test_tighten_constraint_preserves_optimum_on_fixtures(tiny_a):
    jobs, spec, base, plan = tiny_a
    status, with_bound, _ = reference_optimum(
        costmin_without(jobs, spec, base, plan, 2.0, cost_bound=True))
    without = solve(build_costmin(jobs, spec, ECON, base, plan, 2.0), TIGHT)
    assert status == "optimal"
    assert abs(with_bound - without.total_cost) < 1e-9


def _relaxation_objective(model) -> float:
    status, info, _, _ = _run_highs(model, DEFAULT_BACKEND, relax=True)
    assert status.name == "kOptimal"
    return info.objective_function_value


def test_costmin_relaxation_implies_the_tightening_bound(tiny_a):
    """The LP relaxation of build_costmin is never below tightening_bound, so
    a cost_bound row would cut nothing (see the problem module docstring);
    on criterion 04's instances and on tiny_a."""
    jobs, spec, base, plan = tiny_a
    for target in (2.0, 1.0):
        assert _relaxation_objective(build_costmin(jobs, spec, ECON, base, plan, target)) \
            >= tightening_bound(ECON, spec, plan, target) - 1e-9
    rng = np.random.default_rng(404)
    for _ in range(100):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        flex = solve(build_flexmax(jobs, spec, base, plan))
        assert flex.ok
        target = float(rng.uniform(0.0, 1.0)) * flex.mean_flex_kw
        relaxed = _relaxation_objective(build_costmin(jobs, spec, ECON, base, plan, target))
        assert relaxed >= tightening_bound(ECON, spec, plan, target) - 1e-9


def test_strengthening_rows_do_not_change_optimum():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(30):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        flex = solve(build_flexmax(jobs, spec, base, plan), TIGHT)
        if not flex.ok or flex.mean_flex_kw < 1e-6:
            continue
        target = float(rng.uniform(0.2, 1.0)) * flex.mean_flex_kw
        plain = costmin_without(jobs, spec, base, plan, target, end_floors=False)
        status, plain_cost, _ = reference_optimum(plain)
        strong = solve(build_costmin(jobs, spec, ECON, base, plan, target), TIGHT)
        assert status == "optimal" and strong.ok
        assert strong.total_cost == pytest.approx(plain_cost, abs=1e-7)
        checked += 1
    assert checked >= 10


# --- frozen reference: the row-by-row builder the array assembly replaced ---

class _ReferenceBuilder:
    """One Python call per variable block and per row, names built eagerly."""

    def __init__(self):
        self.names, self.lb, self.ub, self.integer = [], [], [], []
        self.ri, self.ci, self.cv = [], [], []
        self.row_lb, self.row_ub, self.row_names = [], [], []

    def vars(self, names, lb, ub, integer=False) -> int:
        first = len(self.names)
        self.names.extend(names)
        n = len(self.names) - first
        self.lb.extend([lb] * n)
        self.ub.extend([ub] * n)
        self.integer.extend([1 if integer else 0] * n)
        return first

    def row(self, name, cols, vals, lb, ub):
        r = len(self.row_names)
        self.row_names.append(name)
        self.ri.extend([r] * len(cols))
        self.ci.extend(cols)
        self.cv.extend(vals)
        self.row_lb.append(lb)
        self.row_ub.append(ub)

    def build(self, obj_cols, obj_vals, obj_const, meta) -> dict:
        n = len(self.names)
        obj = np.zeros(n)
        if obj_cols:
            np.add.at(obj, np.asarray(obj_cols), np.asarray(obj_vals, dtype=np.float64))
        a = sparse.coo_matrix(
            (np.asarray(self.cv, dtype=np.float64),
             (np.asarray(self.ri, dtype=np.int64), np.asarray(self.ci, dtype=np.int64))),
            shape=(len(self.row_names), n),
        ).tocsr()
        return {"obj": obj, "obj_const": obj_const, "var_names": self.names,
                "var_lb": np.asarray(self.lb, dtype=np.float64),
                "var_ub": np.asarray(self.ub, dtype=np.float64),
                "integrality": np.asarray(self.integer, dtype=np.int64), "a_matrix": a,
                "row_lb": np.asarray(self.row_lb, dtype=np.float64),
                "row_ub": np.asarray(self.row_ub, dtype=np.float64),
                "row_names": self.row_names, "meta": meta}


def _reference_core(b, jobs, spec, baseline, plan, dq) -> dict:
    grid = plan.grid
    T = grid.steps
    p_base = np.asarray(baseline.power_kw, dtype=np.float64)
    n_jobs = len(jobs)
    win_a = np.zeros(n_jobs, dtype=np.int64)
    win_b = np.zeros(n_jobs, dtype=np.int64)
    job_errors = {}
    for j in range(n_jobs):
        a = int(jobs.submit_step[j])
        span = round_half_away((1.0 + spec.max_delay_frac) * int(jobs.compute_steps[j]))
        bb = min(T, a + span - 1)
        if a > T:
            job_errors[jobs.ids[j]] = f"submit step {a} beyond horizon {T}"
        elif bb - a + 1 < jobs.compute_steps[j]:
            job_errors[jobs.ids[j]] = (
                f"available period [{a}, {bb}] shorter than compute time "
                f"{jobs.compute_steps[j]}")
        win_a[j], win_b[j] = a, bb
    if job_errors:
        raise ModelBuildError(
            f"{len(job_errors)} job(s) have infeasible available periods", job_errors)

    x0 = np.zeros(n_jobs, dtype=np.int64)
    z0 = np.zeros(n_jobs, dtype=np.int64)
    xdq0 = np.zeros(n_jobs, dtype=np.int64)
    np_col = np.zeros(n_jobs, dtype=np.int64)
    for j in range(n_jobs):
        steps = range(win_a[j], win_b[j] + 1)
        x0[j] = b.vars([f"x_{j}_{t}" for t in steps], 0.0, 1.0)
        z0[j] = b.vars([f"z_{j}_{t}" for t in steps], 0.0, 1.0)
        if dq.enabled:
            xdq0[j] = b.vars([f"xdq_{j}_{t}" for t in steps], 0.0, 1.0)
        if spec.preempt_overhead_min > 0:
            np_cap = spec.preempt_budget_frac * jobs.compute_steps[j] \
                * grid.step_minutes / spec.preempt_overhead_min
        else:
            np_cap = math.inf
        np_col[j] = b.vars([f"np_{j}"], 0.0, np_cap)
    p0 = b.vars([f"p_{t}" for t in range(1, T + 1)], -math.inf, math.inf)
    f0 = b.vars([f"f_{t}" for t in range(1, T + 1)], -math.inf, math.inf)
    s0 = b.vars([f"s_{i}" for i in range(plan.count)], 0.0, math.inf)

    K = dq.speedup if dq.enabled else 0.0
    for j in range(n_jobs):
        a, bb = win_a[j], win_b[j]
        span = bb - a + 1
        for off, t in enumerate(range(a, bb + 1)):
            xc = x0[j] + off
            cols, vals = [z0[j] + off, xc], [1.0, -1.0]
            if t + 1 <= bb:
                cols.append(xc + 1)
                vals.append(1.0)
            b.row(f"preempt_{j}_{t}", cols, vals, 0.0, math.inf)
        b.row(f"preempt_total_{j}", [np_col[j]] + [z0[j] + off for off in range(span)],
              [1.0] + [-1.0] * span, -1.0, -1.0)
        cols, vals = [x0[j] + off for off in range(span)], [1.0] * span
        if dq.enabled and K > 0:
            cols += [xdq0[j] + off for off in range(span)]
            vals += [K] * span
        b.row(f"completion_{j}", cols, vals,
              float(jobs.compute_steps[j]), float(jobs.compute_steps[j]))

    cap_cols = [[] for _ in range(T + 1)]
    cap_vals = [[] for _ in range(T + 1)]
    for j in range(n_jobs):
        res = float(jobs.resources[j])
        for off, t in enumerate(range(win_a[j], win_b[j] + 1)):
            cap_cols[t].append(x0[j] + off)
            cap_vals[t].append(res)
            if dq.enabled:
                cap_cols[t].append(xdq0[j] + off)
                cap_vals[t].append(res)
    G = spec.unit_power_kw
    for t in range(1, T + 1):
        if cap_cols[t]:
            b.row(f"capacity_{t}", cap_cols[t], cap_vals[t], -math.inf, spec.total_resources)
        b.row(f"power_{t}", [p0 + t - 1] + cap_cols[t], [1.0] + [-G * v for v in cap_vals[t]],
              spec.fixed_power_kw, spec.fixed_power_kw)
        b.row(f"flex_{t}", [f0 + t - 1, p0 + t - 1], [1.0, 1.0],
              float(p_base[t - 1]), float(p_base[t - 1]))
    for i, (wa, wb) in enumerate(plan.windows):
        for t in range(wa, wb + 1):
            b.row(f"sustain_{i}_{t}", [f0 + t - 1, s0 + i], [1.0, -1.0], 0.0, math.inf)
    if dq.enabled:
        for j in range(n_jobs):
            for off, t in enumerate(range(win_a[j], win_b[j] + 1)):
                b.row(f"quota_cap_{j}_{t}", [xdq0[j] + off, x0[j] + off],
                      [1.0, -1.0], -math.inf, 0.0)
    return {"job_ids": jobs.ids, "win_a": win_a, "win_b": win_b, "x0": x0, "p0": p0,
            "f0": f0, "s0": s0, "T": T, "dt_hours": grid.step_hours,
            "windows": plan.windows, "baseline_power": p_base, "dq": dq}


def _reference_flexmax(jobs, spec, baseline, plan, dq) -> dict:
    b = _ReferenceBuilder()
    meta = _reference_core(b, jobs, spec, baseline, plan, dq)
    return b.build([meta["s0"] + i for i in range(plan.count)],
                   [1.0 / plan.count] * plan.count, 0.0, meta)


def _reference_costmin(jobs, spec, econ, baseline, plan, target_kw, dq, tighten=False,
                       strengthen=True, lattice=True) -> dict:
    """The cost model row by row. With lattice it is build_costmin's: a delay
    column d_j per late job, integer without quota. Without it, every job has
    an end marker e_j, a delay fraction delta_j and a price c_j with delay and
    jobcost rows: a second statement of the same cost, the oracle for
    build_costmin's optimum (tighten adds the cost_bound row, which needs dq
    off). strengthen adds the endfloor rows."""
    assert not (tighten and (lattice or dq.enabled))
    b = _ReferenceBuilder()
    meta = _reference_core(b, jobs, spec, baseline, plan, dq)
    n_jobs = len(jobs)
    win_a, win_b, x0, s0 = meta["win_a"], meta["win_b"], meta["x0"], meta["s0"]
    xp_t0 = np.zeros(n_jobs, dtype=np.int64)
    xp0 = np.full(n_jobs, -1, dtype=np.int64)
    xp_n = np.zeros(n_jobs, dtype=np.int64)
    end_col = np.zeros(n_jobs, dtype=np.int64)  # d_j, or e_j without lattice
    delta_col = np.zeros(n_jobs, dtype=np.int64)
    c_col = np.zeros(n_jobs, dtype=np.int64)
    for j in range(n_jobs):
        t_first = int(jobs.submit_step[j] + jobs.compute_steps[j])
        if t_first <= win_b[j]:
            steps = range(t_first, win_b[j] + 1)
            xp0[j] = b.vars([f"xp_{j}_{t}" for t in steps], 0.0, 1.0, integer=True)
            xp_t0[j] = t_first
            xp_n[j] = win_b[j] - t_first + 1
            if lattice:
                end_col[j] = b.vars([f"d_{j}"], 0.0, math.inf, integer=not dq.enabled)
        if not lattice:
            end_col[j] = b.vars([f"e_{j}"], 0.0, math.inf)
            delta_col[j] = b.vars([f"delta_{j}"], 0.0, math.inf)
            c_col[j] = b.vars([f"c_{j}"], 0.0, math.inf)
    late = np.flatnonzero(xp_n > 0)
    step_cost = np.array([econ.price_reduction_coeff * meta["dt_hours"]
                          * econ.hourly_unit_price * float(jobs.resources[j]) for j in late])
    for j in range(n_jobs):
        D = float(jobs.compute_steps[j])
        tS = float(jobs.submit_step[j])
        # d_j counts from tS + D, e_j from 0
        shift = tS + D if lattice else 0.0
        for k in range(xp_n[j]):
            t = xp_t0[j] + k
            off = t - win_a[j]
            b.row(f"runflag_{j}_{t}", [xp0[j] + k, x0[j] + off], [1.0, -1.0], 0.0, math.inf)
            b.row(f"endmark_{j}_{t}", [end_col[j], xp0[j] + k], [1.0, -float(t)],
                  1.0 - shift, math.inf)
        if strengthen and xp_n[j] > 0:
            ext_cols = [x0[j] + (xp_t0[j] - win_a[j]) + k for k in range(xp_n[j])]
            b.row(f"endfloor_{j}", [end_col[j]] + ext_cols, [1.0] + [-1.0] * xp_n[j],
                  tS + D - shift, math.inf)
        if not lattice:
            b.row(f"delay_{j}", [delta_col[j], end_col[j]], [D, -1.0], -(tS + D), math.inf)
            kappa = econ.price_reduction_coeff * D * meta["dt_hours"] \
                * econ.hourly_unit_price * float(jobs.resources[j])
            b.row(f"jobcost_{j}", [c_col[j], delta_col[j]], [1.0, -kappa], 0.0, math.inf)
    b.row("service_target", [s0 + i for i in range(plan.count)], [1.0] * plan.count,
          plan.count * target_kw, math.inf)
    if tighten:
        # the analytic bound, valid only without dynamic quota
        bound = tightening_bound(econ, spec, plan, target_kw)
        b.row("cost_bound", [int(c) for c in c_col], [1.0] * n_jobs, bound, math.inf)
    if lattice:
        obj_cols, obj_vals = [end_col[j] for j in late], step_cost.tolist()
        meta.update(econ=econ, d_col=end_col[late], step_cost=step_cost)
    else:
        obj_cols, obj_vals = [c_col[j] for j in range(n_jobs)], [1.0] * n_jobs
    obj_const = 0.0
    if dq.enabled:
        pi_dt = econ.energy_price * meta["dt_hours"]
        obj_cols += [meta["p0"] + t for t in range(meta["T"])]
        obj_vals += [pi_dt] * meta["T"]
        obj_const = -pi_dt * float(np.sum(meta["baseline_power"]))
    return b.build(obj_cols, obj_vals, obj_const, meta)


_COLUMN_KEYS = ("x0", "p0", "f0", "s0", "d_col")


def _budget_free(ref, jobs, dq) -> set:
    """Jobs whose idle steps, span - D / (1 + K), cannot exceed the np bound."""
    k = dq.speedup if dq.enabled else 0.0
    meta, ub = ref["meta"], dict(zip(ref["var_names"], ref["var_ub"].tolist()))
    return {j for j in range(len(jobs))
            if not int(meta["win_b"][j] - meta["win_a"][j] + 1)
            - int(jobs.compute_steps[j]) / (1.0 + k) > ub[f"np_{j}"]}


def _without_counters(ref, free) -> dict:
    """The reference model with the z/np columns and preempt rows of `free` deleted."""
    def owner(pattern, name):
        match = re.fullmatch(pattern, name)
        return match is not None and int(match.group(1)) in free

    keep_col = np.array([not owner(r"(?:z|np)_(\d+)(?:_\d+)?", n) for n in ref["var_names"]],
                        dtype=bool)
    keep_row = np.array([not owner(r"preempt(?:_total)?_(\d+)(?:_\d+)?", n)
                         for n in ref["row_names"]], dtype=bool)
    new_col = np.cumsum(keep_col) - 1
    meta = dict(ref["meta"])
    for key in _COLUMN_KEYS:
        if key in meta:
            value = new_col[meta[key]]
            meta[key] = value if isinstance(meta[key], np.ndarray) else int(value)
    out = dict(ref, meta=meta,
               a_matrix=ref["a_matrix"][np.flatnonzero(keep_row)][:, np.flatnonzero(keep_col)],
               var_names=[n for n, k in zip(ref["var_names"], keep_col) if k],
               row_names=[n for n, k in zip(ref["row_names"], keep_row) if k])
    for name in ("obj", "var_lb", "var_ub", "integrality"):
        out[name] = ref[name][keep_col]
    for name in ("row_lb", "row_ub"):
        out[name] = ref[name][keep_row]
    return out


def _assert_same_model(model, ref):
    """Byte-identical matrix, bounds, objective, names and decode map."""
    def same(a, b, what):
        assert a.dtype == b.dtype and a.shape == b.shape, what
        assert a.tobytes() == b.tobytes(), what

    for part in ("data", "indices", "indptr"):
        same(getattr(model.a_matrix, part), getattr(ref["a_matrix"], part), part)
    for name in ("var_lb", "var_ub", "row_lb", "row_ub", "obj", "integrality"):
        same(getattr(model, name), ref[name], name)
    assert model.a_matrix.shape == ref["a_matrix"].shape
    assert model.obj_const == ref["obj_const"]
    assert model.var_names == ref["var_names"]
    assert model.row_names == ref["row_names"]
    assert model.meta.keys() == ref["meta"].keys()
    for key, value in ref["meta"].items():
        if isinstance(value, np.ndarray):
            same(model.meta[key], value, key)
        else:
            assert model.meta[key] == value and type(model.meta[key]) is type(value), key


def _as_instance(kind, sense, ref) -> ModelInstance:
    return ModelInstance(
        kind=kind, sense=sense, obj=ref["obj"], obj_const=ref["obj_const"],
        var_lb=ref["var_lb"], var_ub=ref["var_ub"], integrality=ref["integrality"],
        a_matrix=ref["a_matrix"], row_lb=ref["row_lb"], row_ub=ref["row_ub"],
        meta=ref["meta"], families=((), ()))


def _reference_cases():
    """Seeded instances over every build switch, plus the edge cases by name."""
    rng = np.random.default_rng(20)
    for _ in range(40):
        delay = float(rng.choice([0.0, 0.3, 1.0, 3.0]))  # 3.0 clips most windows
        grid, jobs, spec, base = random_instance(rng, max_jobs=6, max_delay_frac=delay)
        if rng.random() < 0.25:
            spec = replace(spec, preempt_overhead_min=0.0)
        dq = DqParams(bool(rng.random() < 0.5), float(rng.choice([0.0, 0.5, 1.0])))
        yield (jobs, spec, base, random_plan(rng, grid), dq, float(rng.uniform(0.0, 2.0)),
               bool(rng.random() < 0.5), bool(rng.random() < 0.5))
    grid = TimeGrid(15, 6)
    spec = tiny_a_spec()
    empty = JobTable.empty()
    plan = ActivationPlan(windows=((2, 3), (5, 6)), grid=grid)
    for dq in (DqParams(), DqParams(True, 0.5)):
        yield empty, spec, baseline_profile(empty, spec, grid), plan, dq, 0.0, True, True
    yield *_quota_budget_case(), 1.0, True, True


def _quota_budget_case():
    """Delay 0 under full quota (K = 1): a 4-step job may run on every other step
    at double rate, x = xdq = (1, 0, 1, 0), but only if its budget allows one
    preemption; at 1.5 min per preemption it allows 0.4."""
    grid = TimeGrid(15, 4)
    jobs = JobTable(["q"], [1], [4], [1.0])
    spec = replace(tiny_a_spec(max_delay_frac=0.0), preempt_overhead_min=1.5)
    plan = ActivationPlan(windows=((2, 2), (4, 4)), grid=grid)
    return jobs, spec, baseline_profile(jobs, spec, grid), plan, DqParams(True, 1.0)


def test_budget_binds_under_quota_at_zero_delay():
    jobs, spec, base, plan, dq = _quota_budget_case()
    unlimited = replace(spec, preempt_overhead_min=0.0)
    assert solve(build_flexmax(jobs, unlimited, base, plan, dq)).mean_flex_kw == \
        pytest.approx(1.0, abs=1e-9)
    assert solve(build_flexmax(jobs, spec, base, plan, dq)).mean_flex_kw == \
        pytest.approx(0.8, abs=1e-9)


def test_array_assembly_matches_reference_builder():
    """build_flexmax/build_costmin equal the row-by-row builder byte for byte,
    once the preemption counters of the budget-free jobs are deleted from it."""
    clipped = checked = budgeted = free = 0
    for jobs, spec, base, plan, dq, target, *_ in _reference_cases():
        try:
            ref = _reference_flexmax(jobs, spec, base, plan, dq)
        except ModelBuildError as err:
            with pytest.raises(ModelBuildError) as got:
                build_flexmax(jobs, spec, base, plan, dq)
            assert str(got.value) == str(err) and got.value.job_errors == err.job_errors
            continue
        unbudgeted = _budget_free(ref, jobs, dq)
        _assert_same_model(build_flexmax(jobs, spec, base, plan, dq),
                           _without_counters(ref, unbudgeted))
        ref = _reference_costmin(jobs, spec, ECON, base, plan, target, dq)
        _assert_same_model(build_costmin(jobs, spec, ECON, base, plan, target, dq),
                           _without_counters(ref, unbudgeted))
        steps = plan.grid.steps
        clipped += any(int(a) + round_half_away((1.0 + spec.max_delay_frac) * int(d)) - 1
                       > steps for a, d in zip(jobs.submit_step, jobs.compute_steps))
        free += len(unbudgeted)
        budgeted += len(jobs) - len(unbudgeted)
        checked += 1
    assert checked >= 30 and clipped >= 5
    assert budgeted >= 20 and free >= 20


def test_budget_free_deletion_keeps_the_optima():
    """Reduced and reference models share the LP optimum and the cost-MILP optimum,
    also where the reference prices delays on e/delta/c columns, adds the
    cost_bound row (without quota) or leaves out the endfloor rows."""
    compared = 0
    for jobs, spec, base, plan, dq, target, tighten, strengthen in _reference_cases():
        try:
            ref = _reference_flexmax(jobs, spec, base, plan, dq)
        except ModelBuildError:
            continue
        lp = solve(build_flexmax(jobs, spec, base, plan, dq))
        lp_ref = solve(_as_instance("flexmax", "max", ref))
        assert lp.ok and lp_ref.ok
        assert lp.mean_flex_kw == pytest.approx(lp_ref.mean_flex_kw, abs=1e-9)
        # the case's target in [0, 2] read as a share of the optimum in [0, 1]
        target = target / 2.0 * lp.mean_flex_kw
        cost = solve(build_costmin(jobs, spec, ECON, base, plan, target, dq))
        status, cost_ref, gap_ref = reference_optimum(costmin_without(
            jobs, spec, base, plan, target, dq, tighten and not dq.enabled, strengthen),
            DEFAULT_BACKEND)
        assert cost.status == status
        if cost.ok:
            within = max(cost.stats.primal_bound - cost.stats.dual_bound, gap_ref)
            assert abs(cost.total_cost - cost_ref) <= within + 1e-9
            compared += 1
    assert compared >= 30


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_smallest_preemption_count_within_idle_steps(x):
    """sum_t max(0, x_t - x_{t+1}) <= S - sum x + 1, with x_{S+1} = 0."""
    x = np.array(x)
    descents = np.maximum(0.0, x - np.append(x[1:], 0.0)).sum()
    assert descents <= len(x) - x.sum() + 1.0 + 1e-9


def test_array_assembly_matches_reference_on_build_errors():
    grid = TimeGrid(15, 4)
    spec = tiny_a_spec(max_delay_frac=0.0)
    base = baseline_profile(JobTable.empty(), spec, grid)
    plan = ActivationPlan(windows=((1, 1),), grid=grid)
    jobs = JobTable(["ok", "late", "long"], [1, 5, 3], [1, 1, 3], [1.0, 1.0, 1.0])
    with pytest.raises(ModelBuildError) as ref:
        _reference_flexmax(jobs, spec, base, plan, DqParams())
    with pytest.raises(ModelBuildError) as got:
        build_flexmax(jobs, spec, base, plan)
    assert str(got.value) == str(ref.value)
    assert list(got.value.job_errors.items()) == list(ref.value.job_errors.items())


def _same_arrays(model, other):
    for name in ("var_lb", "var_ub", "row_lb", "row_ub", "obj", "integrality"):
        assert getattr(model, name).tobytes() == getattr(other, name).tobytes(), name
    assert (model.a_matrix != other.a_matrix).nnz == 0
    assert (model.kind, model.sense, model.obj_const) == (other.kind, other.sense,
                                                         other.obj_const)


def test_retarget_gives_the_cost_model_built_at_the_target(tiny_a):
    jobs, spec, base, plan = tiny_a
    for dq in (DqParams(False, 0.5), DqParams(True, 0.5)):
        first = build_costmin(jobs, spec, ECON, base, plan, 2.0, dq=dq)
        for target in (1.5, 0.5, 0.0):
            built = build_costmin(jobs, spec, ECON, base, plan, target, dq=dq)
            _same_arrays(retarget(first, target), built)


def _columns(model, *names) -> int:
    """The number of columns in the variable families of those names."""
    return sum(len(cols) for name, cols, *_ in model.families[0] if name in names)


def test_at_delay_keeps_the_optimum_of_the_model_built_at_that_delay():
    # the LP at the largest delay with the columns past each job's window
    # at a smaller delay held at 0 has the optimum of the LP built there,
    # also where a job has a counter only at the larger delay
    rng = np.random.default_rng(1414)
    counted_only_wide = 0
    for _ in range(40):
        grid, jobs, spec, base = random_instance(rng, max_steps=10, max_delay_frac=1.0)
        plan = random_plan(rng, grid)
        for dq in (NO_DQ, DqParams(True, 0.5)):
            wide = build_flexmax(jobs, spec, base, plan, dq)
            for delay in (0.0, 0.2, 0.5, 1.0):
                moved = at_delay(wide, jobs, delay)
                built = build_flexmax(jobs, spec.with_max_delay(delay), base, plan, dq)
                assert moved.a_matrix is wide.a_matrix
                assert np.array_equal(moved.meta["win_b"], built.meta["win_b"])
                # exactly the x and xdq columns the model built there lacks
                assert np.sum(moved.var_ub < wide.var_ub) == \
                    _columns(wide, "x", "xdq") - _columns(built, "x", "xdq")
                counted_only_wide += _columns(wide, "np") > _columns(built, "np")
                got, cold = solve(moved), solve(built)
                assert got.status == cold.status == "optimal"
                assert got.mean_flex_kw == pytest.approx(cold.mean_flex_kw, rel=1e-12,
                                                         abs=1e-12), delay
    assert counted_only_wide > 0


def test_at_delay_refuses_what_build_flexmax_refuses(tiny_a):
    jobs, spec, base, plan = tiny_a
    wide = build_flexmax(jobs, spec.with_max_delay(0.5), base, plan)
    with pytest.raises(ValueError, match="cannot be taken to delay 1.0"):
        at_delay(wide, jobs, 1.0)
    with pytest.raises(ValueError, match="cannot be taken to delay 0.5"):
        at_delay(build_costmin(jobs, spec, ECON, base, plan, 1.0), jobs, 0.5)
    # job b, submitted at step 3, cannot run 3 steps in a 4-step horizon
    late = JobTable(["a", "b"], [1, 3], [2, 3], [1.0, 1.0])
    with pytest.raises(ModelBuildError) as built:
        build_flexmax(late, spec.with_max_delay(0.0), base, plan)
    with pytest.raises(ModelBuildError) as moved:
        at_delay(wide, late, 0.0)
    assert moved.value.job_errors == built.value.job_errors
    assert list(moved.value.job_errors) == ["b"]
