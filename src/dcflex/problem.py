"""Construction of the flexibility-maximization LP and cost-minimization MILP.

Model building is pure and may run in parallel across horizon/service
pairs. Each family of variables or rows is assembled as whole numpy
arrays: columns run per job x, (z), (xdq), (np), then p, f, s, then per
job (xp), e, delta, c; rows run per job (preempt, preempt_total),
completion, then per step (capacity), power, flex, then sustain,
quota_cap, per job (runflag, endmark), (endfloor), delay, jobcost,
service_target. Names such as ``x_j_t`` (j is the job's position in the
table) are rendered on first read, for `solve.write_model` and inspection.

Formulation summary, per job j over its available period [a_j, b_j]:
  x[j,t] in [0,1]      completed workload proportion per step
  z[j,t] in [0,1]      preemption counter, z >= x[j,t] - x[j,t+1]
  np[j]  = sum z - 1   total preemptions, clamped >= 0, capped by the
                       checkpoint overhead budget np_cap
  sum_t x[j,t] = D_j   job completion
  sum_j N_j x[j,t] <= N_hat       capacity
  p_t = G sum_j N_j x[j,t] + G0   affine power model
  f_t = p_base_t - p_t            demand-reduction flexibility
  f_t >= s_i on window i, s_i >= 0

The available period starts at the submit step and spans
round((1 + max_delay) * D_j) steps, clipped to the horizon; with zero
delay it equals the baseline span exactly.

Dynamic quota adds allocations xdq[j,t] <= x[j,t] that consume capacity
and power at full rate but complete workload at rate K (the speed-up
coefficient), turning the completion constraint into
sum_t (x + K xdq) = D_j. In words: a unit of quota completes K units of
workload, so a job holding full quota (xdq = x) runs 1 + K times as fast
at twice the power. The extra energy it costs is net of the power shaved
in the activation windows.

The counter (z, np and their rows) exists only for budgeted jobs, those
with S_j - D_j/(1 + K) > np_cap over a span of S_j steps (K = 0 without
dynamic quota; np_cap is infinite without a preemption overhead).
Completion and xdq <= x give sum x >= D_j/(1 + K), so a job idles at
most S_j - D_j/(1 + K) steps. The smallest counter,
z_t = max(0, x_t - x_{t+1}) with x_{b+1} = 0, has sum z - 1 <= S_j - sum x
(each descent into step t+1 is at most 1 - x_{t+1}, the last at most 1),
and z can always be raised to sum z >= 1. So for any other job every x
has a counter within the budget, and leaving it out changes no optimum.

Cost minimization adds binary running flags x'[j,t] >= x[j,t] on steps at
or beyond the undelayed completion, an end marker e_j >= t x'[j,t] + 1
(one past the last running step), the delay fraction
delta_j >= (e_j - submit_j - D_j)/D_j, and the price reduction
c_j >= A delta_j D_j dt_hours R N_j. The objective minimizes total price
reduction plus, under dynamic quota, the extra energy cost
pi * dt_hours * (sum_t p_t - sum_t p_base_t).

Without dynamic quota the LP relaxation already implies the analytic bound
of tightening_bound, so no row states it. Let L_j be job j's workload at or
after tS_j + D_j. Work held back from a window step of j's baseline span is
done later, so the flex and sustain rows give
sum_j N_j L_j >= duration * count * target / G; the endfloor, delay and
jobcost rows give c_j >= A dt_hours R N_j L_j, and their sum is the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy loads at the first build: commands that build nothing skip it
    from scipy import sparse

from .model import (
    ActivationPlan,
    BaselineProfile,
    DataCenterSpec,
    EconParams,
    JobTable,
)

INF = math.inf


@dataclass(frozen=True)
class DqParams:
    """Dynamic-quota switch and speed-up coefficient.

    speedup is K in [0, 1]: a unit of quota completes K units of workload
    at the power of a full unit, so a job holding full quota (xdq = x)
    runs 1 + K times as fast at twice the power. Extra energy is counted
    net of the power shaved in the activation windows.
    """

    enabled: bool = False
    speedup: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.speedup <= 1.0):
            raise ValueError("speedup must lie in [0, 1]")


NO_DQ = DqParams(enabled=False, speedup=0.0)


class ModelBuildError(ValueError):
    """A model could not be built; job_errors maps job id to the reason."""

    def __init__(self, message: str, job_errors: dict | None = None):
        super().__init__(message)
        self.job_errors = dict(job_errors or {})


@dataclass
class ModelInstance:
    """A named-variable LP/MILP with maps back to (job, step) indices."""

    kind: str            # "flexmax" | "costmin"
    sense: str           # "max" | "min"
    obj: np.ndarray
    obj_const: float
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    a_matrix: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    meta: dict = field(repr=False)
    families: tuple = field(repr=False)  # (variable, row) families, for the names

    @cached_property
    def var_names(self) -> list:
        return _render(self.families[0], self.n_vars)

    @cached_property
    def row_names(self) -> list:
        return _render(self.families[1], self.n_rows)

    @property
    def n_vars(self) -> int:
        return len(self.var_lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_lb)

    @property
    def n_binary(self) -> int:
        return int(np.sum(self.integrality > 0))

    def __repr__(self):
        return (f"ModelInstance(kind={self.kind!r}, vars={self.n_vars}, "
                f"rows={self.n_rows}, binaries={self.n_binary})")


def _render(families, n) -> list:
    """Names like x_3_17: the family name, then its index values, joined by _."""
    names = [""] * n
    for name, pos, index, *_ in families:
        for p, *ix in zip(pos.tolist(), *(i.tolist() for i in index)):
            names[p] = "_".join([name, *map(str, ix)])
    return names


def _ragged(first, count):
    """(owner, value) of every element of the ranges [first[k], first[k] + count[k])."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, first[owner] + np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


class _Builder:
    """Collects variable and row families as whole arrays, then assembles the model.

    A family is one named kind of variable or row (x_j_t, power_t, ...):
    its positions, the index arrays its names are rendered from, and its
    bounds. Matrix entries are (row, col, val) arrays in any order.
    """

    def __init__(self):
        self.n_vars = self.n_rows = 0
        self.var_families = []  # (name, cols, index, lb, ub, integer)
        self.row_families = []  # (name, rows, index, lb, ub)
        self._entries = []

    def columns(self, sizes) -> np.ndarray:
        """Reserve consecutive blocks of columns; returns each block's first."""
        sizes = np.asarray(sizes, dtype=np.int64)
        first = self.n_vars + np.cumsum(sizes) - sizes
        self.n_vars += int(sizes.sum())
        return first

    def rows(self, sizes) -> np.ndarray:
        """Reserve consecutive blocks of rows; returns each block's first."""
        sizes = np.asarray(sizes, dtype=np.int64)
        first = self.n_rows + np.cumsum(sizes) - sizes
        self.n_rows += int(sizes.sum())
        return first

    def var_family(self, name, cols, index, lb, ub, integer=False):
        self.var_families.append((name, cols, index, lb, ub, integer))

    def row_family(self, name, rows, index, lb, ub):
        self.row_families.append((name, rows, index, lb, ub))

    def entries(self, rows, cols, vals):
        self._entries.append(np.broadcast_arrays(rows, cols, np.asarray(vals, dtype=np.float64)))

    def build(self, kind, sense, objective, obj_const, meta) -> ModelInstance:
        n, m = self.n_vars, self.n_rows
        var_lb, var_ub = np.empty(n), np.empty(n)
        integrality = np.zeros(n, dtype=np.int64)
        for _, cols, _, lb, ub, integer in self.var_families:
            var_lb[cols], var_ub[cols], integrality[cols] = lb, ub, int(integer)
        row_lb, row_ub = np.empty(m), np.empty(m)
        for _, rows, _, lb, ub in self.row_families:
            row_lb[rows], row_ub[rows] = lb, ub
        obj = np.zeros(n)
        for cols, vals in objective:
            obj[cols] += vals
        from scipy import sparse

        ri, ci, cv = (np.concatenate(part) for part in zip(*self._entries))
        a = sparse.coo_matrix((cv, (ri, ci)), shape=(m, n)).tocsr()
        return ModelInstance(
            kind=kind, sense=sense, obj=obj, obj_const=obj_const,
            var_lb=var_lb, var_ub=var_ub, integrality=integrality, a_matrix=a,
            row_lb=row_lb, row_ub=row_ub, meta=meta,
            families=(self.var_families, self.row_families),
        )


def available_window(submit_step, compute_steps, max_delay_frac: float,
                     horizon_steps: int) -> tuple:
    """Inclusive (first, last) step a job may run in, clipped to the horizon.

    The span is round((1 + max_delay) * D) steps from submission (halves
    round up; the delay is non-negative), so with zero allowed delay it
    covers exactly the baseline running steps. Takes scalars or arrays.
    """
    span = np.floor((1.0 + max_delay_frac) * np.asarray(compute_steps) + 0.5).astype(np.int64)
    return submit_step, np.minimum(horizon_steps, submit_step + span - 1)


def _core(b: _Builder, jobs: JobTable, spec: DataCenterSpec,
          baseline: BaselineProfile, plan: ActivationPlan, dq: DqParams) -> dict:
    """Add the shared flexibility constraint set; returns the decode map."""
    grid = plan.grid
    T = grid.steps
    p_base = np.asarray(baseline.power_kw, dtype=np.float64)
    if p_base.shape != (T,):
        raise ModelBuildError(
            f"baseline length {p_base.shape} does not match horizon {T}"
        )

    job = np.arange(len(jobs))
    D = jobs.compute_steps
    win_a, win_b = available_window(jobs.submit_step.copy(), D, spec.max_delay_frac, T)
    span = win_b - win_a + 1
    job_errors = {
        jobs.ids[j]: f"submit step {win_a[j]} beyond horizon {T}" if win_a[j] > T else
        f"available period [{win_a[j]}, {win_b[j]}] shorter than compute time {D[j]}"
        for j in np.flatnonzero((win_a > T) | (span < D))
    }
    if job_errors:
        raise ModelBuildError(
            f"{len(job_errors)} job(s) have infeasible available periods", job_errors
        )

    # preemption budget as a bound: (M^P / dt) * np <= eps * D
    if spec.preempt_overhead_min > 0:
        np_cap = spec.preempt_budget_frac * D * grid.step_minutes / spec.preempt_overhead_min
    else:
        np_cap = np.full(len(jobs), INF)
    # the budget can bind only where the idle steps, at most
    # span - D / (1 + K), can exceed it (see the module docstring)
    K = dq.speedup if dq.enabled else 0.0
    budgeted = span - D / (1.0 + K) > np_cap
    nz = budgeted.astype(np.int64)

    # one entry per (job, step) of each available period, in job order
    jj, t = _ragged(win_a, span)
    off = t - win_a[jj]
    blocks = 1 + nz + int(dq.enabled)
    x0 = b.columns(blocks * span + nz)
    xc = x0[jj] + off
    b.var_family("x", xc, (jj, t), 0.0, 1.0)
    pre = budgeted[jj]  # the (job, step) entries of budgeted jobs
    jb, tb, xb = jj[pre], t[pre], xc[pre]
    zc = xb + span[jb]
    b.var_family("z", zc, (jb, tb), 0.0, 1.0)
    if dq.enabled:
        qc = xc + (1 + nz[jj]) * span[jj]
        b.var_family("xdq", qc, (jj, t), 0.0, 1.0)
    job_b = job[budgeted]
    np_col = x0[job_b] + blocks[job_b] * span[job_b]
    b.var_family("np", np_col, (job_b,), 0.0, np_cap[budgeted])

    steps = np.arange(1, T + 1)
    p0, f0, s0 = (int(c) for c in b.columns([T, T, plan.count]))
    b.var_family("p", p0 + steps - 1, (steps,), -INF, INF)
    b.var_family("f", f0 + steps - 1, (steps,), -INF, INF)
    b.var_family("s", s0 + np.arange(plan.count), (np.arange(plan.count),), 0.0, INF)

    # preemption counting (budgeted jobs) and completion, per job
    r_job = b.rows(nz * (span + 1) + 1)
    r_pre = r_job[jb] + off[pre]
    b.row_family("preempt", r_pre, (jb, tb), 0.0, INF)
    b.entries(r_pre, zc, 1.0)
    b.entries(r_pre, xb, -1.0)
    more = off[pre] + 1 < span[jb]
    b.entries(r_pre[more], xb[more] + 1, 1.0)
    r_total = r_job + span  # a budgeted job's preempt_total row
    b.row_family("preempt_total", r_total[job_b], (job_b,), -1.0, -1.0)
    b.entries(r_total[job_b], np_col, 1.0)
    b.entries(r_total[jb], zc, -1.0)
    r_done = r_job + nz * (span + 1)
    b.row_family("completion", r_done, (job,), D, D)
    b.entries(r_done[jj], xc, 1.0)
    if dq.enabled and dq.speedup > 0:
        b.entries(r_done[jj], qc, dq.speedup)

    # per-step capacity (only where some job may run) and power rows
    has_cap = np.bincount(t, minlength=T + 1)[1:] > 0
    r_cap = b.rows(has_cap + 2)
    r_power = r_cap + has_cap
    b.row_family("capacity", r_cap[has_cap], (steps[has_cap],), -INF, spec.total_resources)
    b.row_family("power", r_power, (steps,), spec.fixed_power_kw, spec.fixed_power_kw)
    b.row_family("flex", r_power + 1, (steps,), p_base, p_base)
    G = spec.unit_power_kw
    res = jobs.resources[jj]
    for cols in ((xc, qc) if dq.enabled else (xc,)):
        b.entries(r_cap[t - 1], cols, res)
        b.entries(r_power[t - 1], cols, -G * res)
    b.entries(r_power, p0 + steps - 1, 1.0)
    b.entries(r_power + 1, f0 + steps - 1, 1.0)
    b.entries(r_power + 1, p0 + steps - 1, 1.0)

    windows = np.array(plan.windows, dtype=np.int64).reshape(-1, 2)
    wi, wt = _ragged(windows[:, 0], windows[:, 1] - windows[:, 0] + 1)
    r_sus = b.rows(np.ones_like(wi))
    b.row_family("sustain", r_sus, (wi, wt), 0.0, INF)
    b.entries(r_sus, f0 + wt - 1, 1.0)
    b.entries(r_sus, s0 + wi, -1.0)

    if dq.enabled:
        r_quota = b.rows(np.ones_like(jj))
        b.row_family("quota_cap", r_quota, (jj, t), -INF, 0.0)
        b.entries(r_quota, qc, 1.0)
        b.entries(r_quota, xc, -1.0)

    return {"job_ids": jobs.ids, "win_a": win_a, "win_b": win_b, "x0": x0,
            "p0": p0, "f0": f0, "s0": s0, "T": T, "dt_hours": grid.step_hours,
            "windows": plan.windows, "baseline_power": p_base, "dq": dq}


def build_flexmax(jobs: JobTable, spec: DataCenterSpec, baseline: BaselineProfile,
                  plan: ActivationPlan, dq: DqParams = NO_DQ) -> ModelInstance:
    """Build the LP maximizing the mean sustained flexibility over windows."""
    if plan.count == 0:
        raise ModelBuildError("activation plan has no windows")
    b = _Builder()
    meta = _core(b, jobs, spec, baseline, plan, dq)
    objective = [(meta["s0"] + np.arange(plan.count), 1.0 / plan.count)]
    return b.build("flexmax", "max", objective, 0.0, meta)


def build_costmin(jobs: JobTable, spec: DataCenterSpec, econ: EconParams,
                  baseline: BaselineProfile, plan: ActivationPlan, target_kw: float,
                  dq: DqParams = NO_DQ) -> ModelInstance:
    """Build the MILP minimizing the cost of providing target_kw flexibility.

    A target exceeding the flexibility optimum yields an infeasible model.
    Per-job end-marker floors let the LP relaxation price delays, which
    speeds up branching without changing the optimum.
    """
    if target_kw < 0:
        raise ValueError("target_kw must be non-negative")
    if plan.count == 0:
        raise ModelBuildError("activation plan has no windows")
    b = _Builder()
    meta = _core(b, jobs, spec, baseline, plan, dq)
    job = np.arange(len(jobs))
    win_a, win_b, x0 = meta["win_a"], meta["win_b"], meta["x0"]
    D = jobs.compute_steps.astype(np.float64)
    done = jobs.submit_step + D  # undelayed completion tS + D, as float

    # binary running flags only where the end-marker constraint can bind
    t_first = jobs.submit_step + jobs.compute_steps
    xp_n = np.maximum(win_b - t_first + 1, 0)
    xp0 = b.columns(xp_n + 3)
    e_col = xp0 + xp_n
    delta_col, c_col = e_col + 1, e_col + 2
    xj, xt = _ragged(t_first, xp_n)
    xpc = xp0[xj] + xt - t_first[xj]
    b.var_family("xp", xpc, (xj, xt), 0.0, 1.0, integer=True)
    b.var_family("e", e_col, (job,), 0.0, INF)
    b.var_family("delta", delta_col, (job,), 0.0, INF)
    b.var_family("c", c_col, (job,), 0.0, INF)

    floor = xp_n > 0
    r_job = b.rows(2 * xp_n + floor + 2)
    r_run = r_job[xj] + 2 * (xt - t_first[xj])
    x_late = x0[xj] + xt - win_a[xj]
    b.row_family("runflag", r_run, (xj, xt), 0.0, INF)
    b.entries(r_run, xpc, 1.0)
    b.entries(r_run, x_late, -1.0)
    b.row_family("endmark", r_run + 1, (xj, xt), 1.0, INF)
    b.entries(r_run + 1, e_col[xj], 1.0)
    b.entries(r_run + 1, xpc, -xt.astype(np.float64))
    # valid strengthening: workload done at or after tS+D occupies at least
    # that many steps, so the end marker moves past tS+D by it; never
    # binding at integer optima, but it lets the LP relaxation price delays
    # without the binaries
    r_floor = r_job + 2 * xp_n
    b.row_family("endfloor", r_floor[floor], (job[floor],), done[floor], INF)
    b.entries(r_floor[floor], e_col[floor], 1.0)
    b.entries(r_floor[xj], x_late, -1.0)
    r_delay = r_floor + floor
    b.row_family("delay", r_delay, (job,), -done, INF)
    b.entries(r_delay, delta_col, D)
    b.entries(r_delay, e_col, -1.0)
    kappa = econ.price_reduction_coeff * D * meta["dt_hours"] \
        * econ.hourly_unit_price * jobs.resources
    b.row_family("jobcost", r_delay + 1, (job,), 0.0, INF)
    b.entries(r_delay + 1, c_col, 1.0)
    b.entries(r_delay + 1, delta_col, -kappa)

    r_target = b.rows([1])
    b.row_family("service_target", r_target, (), plan.count * target_kw, INF)
    b.entries(r_target, meta["s0"] + np.arange(plan.count), 1.0)

    objective = [(c_col, 1.0)]
    obj_const = 0.0
    if dq.enabled:
        pi_dt = econ.energy_price * meta["dt_hours"]
        objective.append((meta["p0"] + np.arange(meta["T"]), pi_dt))
        obj_const = -pi_dt * float(np.sum(meta["baseline_power"]))

    meta.update(econ=econ, e_col=e_col, delta_col=delta_col, c_col=c_col)
    return b.build("costmin", "min", objective, obj_const, meta)


def retarget(model: ModelInstance, target_kw: float) -> ModelInstance:
    """build_costmin's model at target_kw, made from its model at another target.

    Only the lower bound of the last row, service_target, depends on the
    target; the copy shares every other array.
    """
    row_lb = model.row_lb.copy()
    row_lb[-1] = len(model.meta["windows"]) * target_kw
    return replace(model, row_lb=row_lb)


def tightening_bound(econ: EconParams, spec: DataCenterSpec, plan: ActivationPlan,
                     target_kw: float) -> float:
    """Valid lower bound on the total price reduction of meeting a target
    without dynamic quota.

    Shifting target_kw out of every activation window delays at least
    (window steps)/G resource-steps of workload past the original
    completion times, each step priced at A * R * dt_hours per resource.
    build_costmin's LP relaxation is never below it (see the module
    docstring).
    """
    if target_kw < 0:
        raise ValueError("target_kw must be non-negative")
    base = econ.price_reduction_coeff * plan.duration_steps * plan.count \
        * plan.grid.step_hours * econ.hourly_unit_price / spec.unit_power_kw
    return base * target_kw

