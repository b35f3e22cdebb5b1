"""Solver backend contract and solution decoding.

The default backend is HiGHS through scipy.optimize.milp, which covers
both the pure LP (flexibility maximization) and the MILP (cost
minimization). Single-threaded HiGHS is deterministic, so identical
models produce identical solutions regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import ScheduleSolution
from .problem import ModelInstance

_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "limit"}


@dataclass(frozen=True)
class SolverBackend:
    """Name and tolerances of the MILP/LP solver in use."""

    name: str = "highs"
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
            power_kw=None, flex_kw=None, sustained_kw=None, mean_flex_kw=None,
            target_unreachable=(model.kind == "costmin" and status == "infeasible"),
        )
    values = np.asarray(res.x, dtype=np.float64)
    # an optimal LP (also a cost model without binaries) has no gap left
    gap = getattr(res, "mip_gap", None) if is_mip else (0.0 if status == "optimal" else None)
    gap = float(gap) if gap is not None else None
    return _decode(model, values, status, gap)


def _decode(model: ModelInstance, values: np.ndarray, status: str, gap) -> ScheduleSolution:
    meta = model.meta
    T = meta["T"]
    p0, f0, s0 = meta["p0"], meta["f0"], meta["s0"]
    power = values[p0:p0 + T].copy()
    flex = values[f0:f0 + T].copy()
    # HiGHS may return sustained values a hair below their lower bound 0
    sustained = np.maximum(values[s0:s0 + len(meta["windows"])], 0.0)
    mean_flex = float(sustained.mean()) if sustained.size else 0.0

    sol = ScheduleSolution(
        status=status,
        power_kw=power, flex_kw=flex, sustained_kw=sustained,
        mean_flex_kw=mean_flex,
        gap=gap,
        decode_x=partial(_x_by_step, meta, values),
    )
    if model.kind == "costmin":
        econ = meta["econ"]
        sol.end_marker, sol.delay_frac, sol.job_cost = (
            dict(zip(meta["job_ids"], values[meta[col]].tolist()))
            for col in ("e_col", "delta_col", "c_col"))
        price_cost = float(sum(sol.job_cost.values()))
        if meta["dq"].enabled:
            extra_cost = econ.energy_price * meta["dt_hours"] \
                * float(power.sum() - meta["baseline_power"].sum())
        else:
            extra_cost = 0.0
        sol.extra_energy_cost = extra_cost
        sol.total_cost = price_cost + extra_cost
    return sol


def _x_by_step(meta: dict, values: np.ndarray) -> dict:
    """x[j, t] keyed by (job_id, step) over each job's available period."""
    x = values.tolist()
    return {(jid, t): x[col + t - a] for jid, a, b, col in zip(
        meta["job_ids"], meta["win_a"].tolist(), meta["win_b"].tolist(), meta["x0"].tolist())
        for t in range(a, b + 1)}


def require_optimal(sol: ScheduleSolution, context: str = "") -> ScheduleSolution:
    """Raise on non-optimal solves; target shortfalls get the typed error."""
    if sol.ok:
        return sol
    if sol.target_unreachable:
        raise TargetUnreachableError(
            f"flexibility target exceeds the attainable maximum {context}".strip()
        )
    raise RuntimeError(f"solve ended with status {sol.status} {context}".strip())
