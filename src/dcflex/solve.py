"""Solver backend contract and solution decoding.

The default backend is HiGHS through scipy.optimize.milp, which covers
both the pure LP (flexibility maximization) and the MILP (cost
minimization). Single-threaded HiGHS is deterministic, so identical
models produce identical solutions regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import ScheduleSolution
from .problem import ModelInstance

_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "limit"}


@dataclass(frozen=True)
class SolverBackend:
    """Capabilities and tolerances of the MILP/LP solver in use."""

    name: str = "highs"
    capabilities: frozenset = frozenset({"lp", "milp"})
    mip_rel_gap: float = 1e-4
    time_limit_s: float = 600.0

    def options(self, is_mip: bool) -> dict:
        opts = {"presolve": True}
        if is_mip:
            opts["mip_rel_gap"] = self.mip_rel_gap
            opts["time_limit"] = self.time_limit_s
        return opts


DEFAULT_BACKEND = SolverBackend()


class TargetUnreachableError(RuntimeError):
    """Raised when a cost minimization asks for more flexibility than exists."""


def solve(model: ModelInstance, backend: SolverBackend = DEFAULT_BACKEND) -> ScheduleSolution:
    """Solve a model and map variable values back to domain indices.

    Infeasible, unbounded and limit statuses are propagated on the returned
    solution; a cost minimization that is infeasible is additionally marked
    target_unreachable (the flexibility problem itself is always feasible,
    so infeasibility can only come from the target).
    """
    is_mip = model.n_binary > 0
    if is_mip and "milp" not in backend.capabilities:
        raise ValueError(f"backend {backend.name!r} cannot solve MILPs")
    c = model.obj if model.sense == "min" else -model.obj
    res = milp(
        c=c,
        constraints=LinearConstraint(model.a_matrix, model.row_lb, model.row_ub),
        integrality=model.integrality,
        bounds=Bounds(model.var_lb, model.var_ub),
        options=backend.options(is_mip),
    )
    status = _STATUS.get(res.status, "limit")
    if res.x is None:
        return ScheduleSolution(
            status=status,
            objective=None,
            x={}, z={}, n_preempt={},
            power_kw=None, flex_kw=None, sustained_kw=None, mean_flex_kw=None,
            target_unreachable=(model.kind == "costmin" and status == "infeasible"),
        )
    values = np.asarray(res.x, dtype=np.float64)
    objective = float(values @ model.obj) + model.obj_const
    mip_gap = getattr(res, "mip_gap", None) if is_mip else None
    gap = float(mip_gap) if mip_gap is not None else None
    return _decode(model, values, status, objective, gap)


def _job_dict(meta, values, col0_key) -> dict:
    out = {}
    col0 = meta[col0_key]
    if col0 is None:
        return out
    for j, jid in enumerate(meta["job_ids"]):
        a, b = int(meta["win_a"][j]), int(meta["win_b"][j])
        base = int(col0[j])
        for off, t in enumerate(range(a, b + 1)):
            out[(jid, t)] = float(values[base + off])
    return out


def _decode(model: ModelInstance, values: np.ndarray, status: str,
            objective: float, gap) -> ScheduleSolution:
    meta = model.meta
    T = meta["T"]
    p0, f0, s0 = meta["p0"], meta["f0"], meta["s0"]
    power = values[p0:p0 + T].copy()
    flex = values[f0:f0 + T].copy()
    # HiGHS may return sustained values a hair below their lower bound 0
    sustained = np.maximum(values[s0:s0 + len(meta["windows"])], 0.0)
    mean_flex = float(sustained.mean()) if sustained.size else 0.0

    x = _job_dict(meta, values, "x0")
    z = _job_dict(meta, values, "z0")
    extra = _job_dict(meta, values, "xdq0") if meta["dq"].enabled else None
    n_preempt = {jid: float(values[int(meta["np_col"][j])])
                 for j, jid in enumerate(meta["job_ids"])}

    sol = ScheduleSolution(
        status=status,
        objective=objective,
        x=x, z=z, n_preempt=n_preempt,
        power_kw=power, flex_kw=flex, sustained_kw=sustained,
        mean_flex_kw=mean_flex,
        extra_alloc=extra,
        gap=gap,
    )
    if model.kind == "costmin":
        econ = meta["econ"]
        run_flag = {}
        for j, jid in enumerate(meta["job_ids"]):
            if meta["xp0"][j] < 0:
                continue
            base = int(meta["xp0"][j])
            for k in range(int(meta["xp_n"][j])):
                t = int(meta["xp_t0"][j]) + k
                run_flag[(jid, t)] = float(values[base + k])
        sol.run_flag = run_flag
        sol.end_marker = {jid: float(values[int(meta["e_col"][j])])
                          for j, jid in enumerate(meta["job_ids"])}
        sol.delay_frac = {jid: float(values[int(meta["delta_col"][j])])
                          for j, jid in enumerate(meta["job_ids"])}
        sol.job_cost = {jid: float(values[int(meta["c_col"][j])])
                        for j, jid in enumerate(meta["job_ids"])}
        price_cost = float(sum(sol.job_cost.values()))
        if meta["dq"].enabled:
            extra_cost = econ.energy_price * meta["dt_hours"] \
                * float(power.sum() - meta["baseline_power"].sum())
        else:
            extra_cost = 0.0
        sol.extra_energy_cost = extra_cost
        sol.total_cost = price_cost + extra_cost
    return sol


def require_optimal(sol: ScheduleSolution, context: str = "") -> ScheduleSolution:
    """Raise on non-optimal solves; target shortfalls get the typed error."""
    if sol.ok:
        return sol
    if sol.target_unreachable:
        raise TargetUnreachableError(
            f"flexibility target exceeds the attainable maximum {context}".strip()
        )
    raise RuntimeError(f"solve ended with status {sol.status} {context}".strip())
