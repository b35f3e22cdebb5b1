"""Construction of the flexibility-maximization LP and cost-minimization MILP.

Model building is pure and may run in parallel across horizon/service
pairs. Variables are named ``x_j_t``, ``z_j_t``, ``s_i`` and so on (j is
the job's position in the table) and every model can be exported to LP
text for external inspection.

Formulation summary, per job j over its available period [a_j, b_j]:
  x[j,t] in [0,1]      completed workload proportion per step
  z[j,t] in [0,1]      preemption counter, z >= x[j,t] - x[j,t+1]
  np[j]  = sum z - 1   total preemptions, clamped >= 0, capped by the
                       checkpoint overhead budget
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

Cost minimization adds binary running flags x'[j,t] >= x[j,t] on steps at
or beyond the undelayed completion, an end marker e_j >= t x'[j,t] + 1
(one past the last running step), the delay fraction
delta_j >= (e_j - submit_j - D_j)/D_j, and the price reduction
c_j >= A delta_j D_j dt_hours R N_j. The objective minimizes total price
reduction plus, under dynamic quota, the extra energy cost
pi * dt_hours * (sum_t p_t - sum_t p_base_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .model import (
    ActivationPlan,
    BaselineProfile,
    DataCenterSpec,
    EconParams,
    JobTable,
    round_half_away,
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
    var_names: list
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    a_matrix: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    row_names: list
    meta: dict = field(repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_binary(self) -> int:
        return int(np.sum(self.integrality > 0))

    def __repr__(self):
        return (f"ModelInstance(kind={self.kind!r}, vars={self.n_vars}, "
                f"rows={self.n_rows}, binaries={self.n_binary})")


class _Builder:
    """Accumulates variables and rows, then assembles a sparse model."""

    def __init__(self):
        self.names = []
        self.lb = []
        self.ub = []
        self.integer = []
        self._ri = []
        self._ci = []
        self._cv = []
        self.row_lb = []
        self.row_ub = []
        self.row_names = []

    def var(self, name, lb, ub, integer=False) -> int:
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(1 if integer else 0)
        return len(self.names) - 1

    def vars(self, names, lb, ub, integer=False) -> int:
        """Add a contiguous block of variables; returns the first column."""
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
        self._ri.extend([r] * len(cols))
        self._ci.extend(cols)
        self._cv.extend(vals)
        self.row_lb.append(lb)
        self.row_ub.append(ub)

    def build(self, kind, sense, obj_cols, obj_vals, obj_const, meta) -> ModelInstance:
        n = len(self.names)
        obj = np.zeros(n)
        if obj_cols:
            np.add.at(obj, np.asarray(obj_cols), np.asarray(obj_vals, dtype=np.float64))
        a = sparse.coo_matrix(
            (np.asarray(self._cv, dtype=np.float64),
             (np.asarray(self._ri, dtype=np.int64), np.asarray(self._ci, dtype=np.int64))),
            shape=(len(self.row_names), n),
        ).tocsr()
        return ModelInstance(
            kind=kind,
            sense=sense,
            obj=obj,
            obj_const=obj_const,
            var_names=self.names,
            var_lb=np.asarray(self.lb, dtype=np.float64),
            var_ub=np.asarray(self.ub, dtype=np.float64),
            integrality=np.asarray(self.integer, dtype=np.int64),
            a_matrix=a,
            row_lb=np.asarray(self.row_lb, dtype=np.float64),
            row_ub=np.asarray(self.row_ub, dtype=np.float64),
            row_names=self.row_names,
            meta=meta,
        )


def available_window(submit_step: int, compute_steps: int, max_delay_frac: float,
                     horizon_steps: int) -> tuple:
    """Inclusive (first, last) step a job may run in, clipped to the horizon.

    The span is round((1 + max_delay) * D) steps from submission, so with
    zero allowed delay it covers exactly the baseline running steps.
    """
    span = round_half_away((1.0 + max_delay_frac) * compute_steps)
    return submit_step, min(horizon_steps, submit_step + span - 1)


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

    n_jobs = len(jobs)
    win_a = np.zeros(n_jobs, dtype=np.int64)
    win_b = np.zeros(n_jobs, dtype=np.int64)
    job_errors = {}
    for j in range(n_jobs):
        a, bb = available_window(int(jobs.submit_step[j]), int(jobs.compute_steps[j]),
                                 spec.max_delay_frac, T)
        if a > T:
            job_errors[jobs.ids[j]] = f"submit step {a} beyond horizon {T}"
        elif bb - a + 1 < jobs.compute_steps[j]:
            job_errors[jobs.ids[j]] = (
                f"available period [{a}, {bb}] shorter than compute time "
                f"{jobs.compute_steps[j]}"
            )
        win_a[j], win_b[j] = a, bb
    if job_errors:
        raise ModelBuildError(
            f"{len(job_errors)} job(s) have infeasible available periods", job_errors
        )

    x0 = np.zeros(n_jobs, dtype=np.int64)
    z0 = np.zeros(n_jobs, dtype=np.int64)
    xdq0 = np.zeros(n_jobs, dtype=np.int64) if dq.enabled else None
    np_col = np.zeros(n_jobs, dtype=np.int64)
    for j in range(n_jobs):
        steps = range(win_a[j], win_b[j] + 1)
        x0[j] = b.vars([f"x_{j}_{t}" for t in steps], 0.0, 1.0)
        z0[j] = b.vars([f"z_{j}_{t}" for t in steps], 0.0, 1.0)
        if dq.enabled:
            xdq0[j] = b.vars([f"xdq_{j}_{t}" for t in steps], 0.0, 1.0)
        # preemption budget as a bound: (M^P / dt) * np <= eps * D
        if spec.preempt_overhead_min > 0:
            np_cap = spec.preempt_budget_frac * jobs.compute_steps[j] \
                * grid.step_minutes / spec.preempt_overhead_min
        else:
            np_cap = INF
        np_col[j] = b.var(f"np_{j}", 0.0, np_cap)

    p0 = b.vars([f"p_{t}" for t in range(1, T + 1)], -INF, INF)
    f0 = b.vars([f"f_{t}" for t in range(1, T + 1)], -INF, INF)
    s0 = b.vars([f"s_{i}" for i in range(plan.count)], 0.0, INF)

    # preemption counting and completion, per job
    K = dq.speedup if dq.enabled else 0.0
    for j in range(n_jobs):
        a, bb = win_a[j], win_b[j]
        span = bb - a + 1
        for off, t in enumerate(range(a, bb + 1)):
            xc = x0[j] + off
            cols = [z0[j] + off, xc]
            vals = [1.0, -1.0]
            if t + 1 <= bb:
                cols.append(xc + 1)
                vals.append(1.0)
            b.row(f"preempt_{j}_{t}", cols, vals, 0.0, INF)
        b.row(
            f"preempt_total_{j}",
            [np_col[j]] + [z0[j] + off for off in range(span)],
            [1.0] + [-1.0] * span,
            -1.0, -1.0,
        )
        cols = [x0[j] + off for off in range(span)]
        vals = [1.0] * span
        if dq.enabled and K > 0:
            cols += [xdq0[j] + off for off in range(span)]
            vals += [K] * span
        b.row(f"completion_{j}", cols, vals,
              float(jobs.compute_steps[j]), float(jobs.compute_steps[j]))

    # per-step capacity and power rows
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
            b.row(f"capacity_{t}", cap_cols[t], cap_vals[t], -INF, spec.total_resources)
        b.row(
            f"power_{t}",
            [p0 + t - 1] + cap_cols[t],
            [1.0] + [-G * v for v in cap_vals[t]],
            spec.fixed_power_kw, spec.fixed_power_kw,
        )
        b.row(f"flex_{t}", [f0 + t - 1, p0 + t - 1], [1.0, 1.0],
              float(p_base[t - 1]), float(p_base[t - 1]))

    for i, (wa, wb) in enumerate(plan.windows):
        for t in range(wa, wb + 1):
            b.row(f"sustain_{i}_{t}", [f0 + t - 1, s0 + i], [1.0, -1.0], 0.0, INF)

    if dq.enabled:
        for j in range(n_jobs):
            for off, t in enumerate(range(win_a[j], win_b[j] + 1)):
                b.row(f"quota_cap_{j}_{t}", [xdq0[j] + off, x0[j] + off],
                      [1.0, -1.0], -INF, 0.0)

    return {
        "job_ids": jobs.ids,
        "win_a": win_a,
        "win_b": win_b,
        "x0": x0,
        "p0": p0,
        "f0": f0,
        "s0": s0,
        "T": T,
        "dt_hours": grid.step_hours,
        "windows": plan.windows,
        "baseline_power": p_base,
        "dq": dq,
    }


def build_flexmax(jobs: JobTable, spec: DataCenterSpec, baseline: BaselineProfile,
                  plan: ActivationPlan, dq: DqParams = NO_DQ) -> ModelInstance:
    """Build the LP maximizing the mean sustained flexibility over windows."""
    if plan.count == 0:
        raise ModelBuildError("activation plan has no windows")
    b = _Builder()
    meta = _core(b, jobs, spec, baseline, plan, dq)
    s0 = meta["s0"]
    w = 1.0 / plan.count
    return b.build(
        kind="flexmax",
        sense="max",
        obj_cols=[s0 + i for i in range(plan.count)],
        obj_vals=[w] * plan.count,
        obj_const=0.0,
        meta=meta,
    )


def build_costmin(jobs: JobTable, spec: DataCenterSpec, econ: EconParams,
                  baseline: BaselineProfile, plan: ActivationPlan, target_kw: float,
                  dq: DqParams = NO_DQ, tighten: bool = True,
                  zero_delay_flex_kw: float | None = None,
                  strengthen: bool = True) -> ModelInstance:
    """Build the MILP minimizing the cost of providing target_kw flexibility.

    A target exceeding the flexibility optimum yields an infeasible model;
    the solver reports it as a typed target-unreachable result rather than
    an error. With tighten, a valid lower bound on the total price
    reduction is added as a constraint (zero_delay_flex_kw is the delay-free
    optimum S_a, needed only under dynamic quota). strengthen adds per-job
    end-marker floors that speed up branching without changing the optimum.
    """
    if target_kw < 0:
        raise ValueError("target_kw must be non-negative")
    if plan.count == 0:
        raise ModelBuildError("activation plan has no windows")
    b = _Builder()
    meta = _core(b, jobs, spec, baseline, plan, dq)
    n_jobs = len(jobs)
    win_a, win_b = meta["win_a"], meta["win_b"]
    x0, s0 = meta["x0"], meta["s0"]
    dt_hours = meta["dt_hours"]

    # binary running flags only where the end-marker constraint can bind
    xp_t0 = np.zeros(n_jobs, dtype=np.int64)
    xp0 = np.full(n_jobs, -1, dtype=np.int64)
    xp_n = np.zeros(n_jobs, dtype=np.int64)
    e_col = np.zeros(n_jobs, dtype=np.int64)
    delta_col = np.zeros(n_jobs, dtype=np.int64)
    c_col = np.zeros(n_jobs, dtype=np.int64)
    for j in range(n_jobs):
        t_first = int(jobs.submit_step[j] + jobs.compute_steps[j])
        if t_first <= win_b[j]:
            steps = range(t_first, win_b[j] + 1)
            xp0[j] = b.vars([f"xp_{j}_{t}" for t in steps], 0.0, 1.0, integer=True)
            xp_t0[j] = t_first
            xp_n[j] = win_b[j] - t_first + 1
        e_col[j] = b.var(f"e_{j}", 0.0, INF)
        delta_col[j] = b.var(f"delta_{j}", 0.0, INF)
        c_col[j] = b.var(f"c_{j}", 0.0, INF)

    for j in range(n_jobs):
        D = float(jobs.compute_steps[j])
        tS = float(jobs.submit_step[j])
        for k in range(xp_n[j]):
            t = xp_t0[j] + k
            off = t - win_a[j]
            b.row(f"runflag_{j}_{t}", [xp0[j] + k, x0[j] + off], [1.0, -1.0], 0.0, INF)
            b.row(f"endmark_{j}_{t}", [e_col[j], xp0[j] + k], [1.0, -float(t)], 1.0, INF)
        if strengthen and xp_n[j] > 0:
            # valid strengthening: workload done at or after tS+D occupies at
            # least that many steps, so the end marker moves past tS+D by it;
            # never binding at integer optima, but it lets the LP relaxation
            # price delays without the binaries
            ext_cols = [x0[j] + (xp_t0[j] - win_a[j]) + k for k in range(xp_n[j])]
            b.row(f"endfloor_{j}", [e_col[j]] + ext_cols,
                  [1.0] + [-1.0] * xp_n[j], tS + D, INF)
        b.row(f"delay_{j}", [delta_col[j], e_col[j]], [D, -1.0], -(tS + D), INF)
        kappa = econ.price_reduction_coeff * D * dt_hours \
            * econ.hourly_unit_price * float(jobs.resources[j])
        b.row(f"jobcost_{j}", [c_col[j], delta_col[j]], [1.0, -kappa], 0.0, INF)

    b.row("service_target", [s0 + i for i in range(plan.count)],
          [1.0] * plan.count, plan.count * target_kw, INF)

    if tighten:
        bound = tightening_bound(econ, spec, plan, target_kw, dq=dq,
                                 zero_delay_flex_kw=zero_delay_flex_kw)
        b.row("cost_bound", [int(c) for c in c_col], [1.0] * n_jobs, bound, INF)

    obj_cols = [c_col[j] for j in range(n_jobs)]
    obj_vals = [1.0] * n_jobs
    obj_const = 0.0
    if dq.enabled:
        p0, T = meta["p0"], meta["T"]
        pi_dt = econ.energy_price * dt_hours
        obj_cols += [p0 + t for t in range(T)]
        obj_vals += [pi_dt] * T
        obj_const = -pi_dt * float(np.sum(meta["baseline_power"]))

    meta.update(econ=econ, e_col=e_col, delta_col=delta_col, c_col=c_col)
    return b.build("costmin", "min", obj_cols, obj_vals, obj_const, meta)


def tightening_bound(econ: EconParams, spec: DataCenterSpec, plan: ActivationPlan,
                     target_kw: float, dq: DqParams = NO_DQ,
                     zero_delay_flex_kw: float | None = None) -> float:
    """Valid lower bound on the total price reduction of meeting a target.

    Shifting target_kw out of every activation window delays at least
    (window steps)/G resource-steps of workload past the original
    completion times, each step priced at A * R * dt_hours per resource.
    Under dynamic quota the delay-free flexibility S_a costs no price
    reduction, and recovered workload is served up to (1 + K) faster.
    """
    if target_kw < 0:
        raise ValueError("target_kw must be non-negative")
    dt_hours = plan.grid.step_hours
    base = econ.price_reduction_coeff * plan.duration_steps * plan.count \
        * dt_hours * econ.hourly_unit_price / spec.unit_power_kw
    if not dq.enabled:
        return base * target_kw
    if zero_delay_flex_kw is None:
        raise ValueError("dynamic-quota bound needs zero_delay_flex_kw (S_a)")
    if target_kw <= zero_delay_flex_kw:
        return 0.0
    return base * (target_kw - zero_delay_flex_kw) / (1.0 + dq.speedup)


def _fmt(value: float) -> str:
    return repr(float(value))


def to_lp_text(model: ModelInstance) -> str:
    """Render a ModelInstance in LP text format for external inspection."""
    lines = [f"\\ dcflex {model.kind} model"]
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    terms = [f"{_fmt(c)} {model.var_names[i]}"
             for i, c in enumerate(model.obj) if c != 0.0]
    lines.append(" obj: " + (" + ".join(terms) if terms else "0"))
    lines.append("Subject To")
    a = model.a_matrix.tocsr()
    for r, name in enumerate(model.row_names):
        start, stop = a.indptr[r], a.indptr[r + 1]
        expr = " + ".join(
            f"{_fmt(a.data[k])} {model.var_names[a.indices[k]]}"
            for k in range(start, stop)
        ) or "0"
        lo, hi = model.row_lb[r], model.row_ub[r]
        if lo == hi:
            lines.append(f" {name}: {expr} = {_fmt(lo)}")
        elif math.isinf(hi):
            lines.append(f" {name}: {expr} >= {_fmt(lo)}")
        elif math.isinf(-lo):
            lines.append(f" {name}: {expr} <= {_fmt(hi)}")
        else:
            lines.append(f" {name}_lo: {expr} >= {_fmt(lo)}")
            lines.append(f" {name}_hi: {expr} <= {_fmt(hi)}")
    lines.append("Bounds")
    for i, name in enumerate(model.var_names):
        lo, hi = model.var_lb[i], model.var_ub[i]
        if math.isinf(-lo) and math.isinf(hi):
            lines.append(f" {name} free")
        elif math.isinf(hi):
            lines.append(f" {_fmt(lo)} <= {name}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    binaries = [model.var_names[i] for i in range(model.n_vars) if model.integrality[i]]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"
