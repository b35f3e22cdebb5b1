"""Solver limits and solution decoding.

Every model, the flexibility LP and the cost MILP alike, is solved by
direct calls into the HiGHS that scipy bundles, in `_run_highs`. That call
goes through scipy's private ``scipy.optimize._highspy._core._Highs``
binding, which is used in this module and nowhere else; the public
``scipy.optimize.milp`` would wrap the same solver in per-column work
(variable-type objects, the basis, bound marginals) that nothing here
reads. Single-threaded HiGHS is deterministic, so identical models produce
identical solutions regardless of scheduling.

A model with binaries is first solved as its LP relaxation. When that LP
is optimal and every integer column lies within HiGHS's MIP feasibility
tolerance of an integer, its solution is feasible for the MILP and its
objective bounds the MILP's, so it is the MILP optimum and branch-and-bound
never runs; an infeasible relaxation proves the MILP infeasible. Otherwise
the MILP runs in the time the relaxation left.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize._highspy import _core as highs

from .model import ScheduleSolution, SolveStats
from .problem import ModelInstance

log = logging.getLogger(__name__)

# HiGHS model status by name -> solution status; any other name is "error"
_STATUS = {
    "kOptimal": "optimal",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
    "kTimeLimit": "limit",
    "kIterationLimit": "limit",
    "kSolutionLimit": "limit",
}


@dataclass(frozen=True)
class SolverBackend:
    """Gap and time limit of the branch-and-bound run of a MILP.

    An LP, a MILP's relaxation included, runs to its end without a time
    limit; branch-and-bound gets what of time_limit_s the relaxation left.
    """

    mip_rel_gap: float = 1e-4
    time_limit_s: float = 600.0


DEFAULT_BACKEND = SolverBackend()

# HiGHS's default mip_feasibility_tolerance, which the backend leaves as it
# is: its MIP solver takes a column this close to an integer as integral
_INTEGER_TOL = 1e-6


def _run_highs(model: ModelInstance, backend: SolverBackend, relax: bool = False):
    """Minimize the model (a max model through its negated objective) in HiGHS.

    With relax, the integrality of the columns is dropped and the LP
    relaxation is solved under the LP options. Returns (HighsModelStatus,
    HighsInfo, column values or None, seconds in run()); the values are read
    only when HiGHS holds a feasible solution.
    """
    # log_to_console, not output_flag: switching all output off moves some
    # degenerate LPs to another of their optima
    options = {"log_to_console": False, "presolve": "on"}
    if model.n_binary > 0 and not relax:
        options.update(mip_rel_gap=backend.mip_rel_gap, time_limit=backend.time_limit_s)
    a = model.a_matrix.tocsc()
    h = highs._Highs()
    for name, value in options.items():
        if h.setOptionValue(name, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejected option {name}={value!r}")
    # the array form of passModel reads the numpy buffers in place; it reads
    # a full-length integrality array even for an LP (an empty one is read
    # past its end), and HiGHS solves an all-zero one as an LP
    h.passModel(model.n_vars, model.n_rows, a.nnz, int(highs.MatrixFormat.kColwise),
                int(highs.ObjSense.kMinimize), 0.0,
                model.obj if model.sense == "min" else -model.obj,
                model.var_lb, model.var_ub, model.row_lb, model.row_ub,
                a.indptr, a.indices, a.data,
                np.zeros_like(model.integrality) if relax else model.integrality)
    start = time.perf_counter()
    h.run()
    seconds = time.perf_counter() - start
    info = h.getInfo()
    values = None
    if info.primal_solution_status == highs.kSolutionStatusFeasible:
        values = np.array(h.getSolution().col_value)
    return h.getModelStatus(), info, values, seconds


def solve(model: ModelInstance, backend: SolverBackend = DEFAULT_BACKEND) -> ScheduleSolution:
    """Solve a model and decode its flexibility and, for a cost model, its cost.

    A model with binaries is solved as its LP relaxation first. An optimal
    relaxation whose integer columns are all integral within HiGHS's MIP
    feasibility tolerance is returned as the MILP optimum, with no nodes and
    gap 0.0; an infeasible one proves the MILP infeasible. Any other
    relaxation outcome runs the MILP with the time the relaxation left of
    backend.time_limit_s, and the stats count both runs. An LP and a
    relaxation have no time limit.

    Infeasible, unbounded, limit and error statuses are propagated on the
    returned solution; a limit is decoded only for a model with binaries
    that has an incumbent, and a solution with nothing to decode holds None
    for its values. A cost minimization is infeasible only when its target
    exceeds the flexibility optimum.
    """
    is_mip = model.n_binary > 0
    highs_status, info, values, seconds = _run_highs(model, backend, relax=is_mip)
    status = _STATUS.get(highs_status.name, "error")
    run, iterations = "lp", 0
    if is_mip:
        run = "relaxation"
        proved = status == "infeasible" or (status == "optimal" and _integral(model, values))
        if not proved:
            run, iterations = "branch-and-bound", max(info.simplex_iteration_count, 0)
            limited = replace(backend, time_limit_s=max(backend.time_limit_s - seconds, 0.0))
            highs_status, info, values, milp_s = _run_highs(model, limited)
            status = _STATUS.get(highs_status.name, "error")
            seconds += milp_s
    if not (status == "optimal" or (status == "limit" and run == "branch-and-bound")):
        values = None
    stats = _stats(model, info, run == "branch-and-bound", status, values is not None,
                   iterations, seconds)
    log.debug("%s solve: %d columns, %d rows, %d nonzeros, %d binaries; %s by %s, "
              "%d iterations, %d nodes, gap %s, %.3f s", model.kind, stats.columns,
              stats.rows, stats.nonzeros, stats.binaries, status, run, stats.iterations,
              stats.nodes, stats.gap, seconds)
    if values is None:
        return ScheduleSolution(status=status, mean_flex_kw=None, stats=stats)
    return _decode(model, values, status, stats)


def _integral(model: ModelInstance, values: np.ndarray) -> bool:
    """Whether every integer column of the model is integral in values."""
    x = values[model.integrality > 0]
    return bool(np.all(np.abs(x - np.round(x)) <= _INTEGER_TOL))


def _stats(model, info, is_mip, status, has_values, iterations, seconds) -> SolveStats:
    """HiGHS's bounds turned back into the model's objective, sense and constant.

    is_mip says whether info comes from a MILP run; iterations are added to
    the run's own, seconds are the time of every run.
    """
    sign = 1.0 if model.sense == "min" else -1.0

    def bound(value):
        return sign * value + model.obj_const if math.isfinite(value) else None

    primal = bound(info.objective_function_value) if has_values else None
    if is_mip:
        dual = bound(info.mip_dual_bound)
        gap = info.mip_gap if math.isfinite(info.mip_gap) else None
    else:  # an optimal LP has no gap left: its dual bound is its objective
        dual, gap = (primal, 0.0) if status == "optimal" else (None, None)
    return SolveStats(
        columns=model.n_vars, rows=model.n_rows, nonzeros=model.a_matrix.nnz,
        binaries=model.n_binary,
        iterations=iterations + max(info.simplex_iteration_count, 0),
        nodes=max(info.mip_node_count, 0) if is_mip else 0,
        dual_bound=dual, primal_bound=primal, gap=gap, highs_s=seconds,
    )


def _decode(model: ModelInstance, values: np.ndarray, status: str,
            stats: SolveStats | None) -> ScheduleSolution:
    """The mean sustained flexibility of the values and a cost model's costs."""
    meta = model.meta
    s0 = meta["s0"]
    # HiGHS may return sustained values a hair below their lower bound 0
    sustained = np.maximum(values[s0:s0 + len(meta["windows"])], 0.0)
    mean_flex = float(sustained.mean()) if sustained.size else 0.0
    if model.kind != "costmin":
        return ScheduleSolution(status=status, mean_flex_kw=mean_flex, stats=stats)
    # every job's price cost in job order: ids need not be unique
    price_cost = float(sum(values[meta["c_col"]].tolist()))
    extra_cost = 0.0
    if meta["dq"].enabled:
        p0, T = meta["p0"], meta["T"]
        extra_cost = meta["econ"].energy_price * meta["dt_hours"] \
            * float(values[p0:p0 + T].sum() - meta["baseline_power"].sum())
    return ScheduleSolution(status=status, mean_flex_kw=mean_flex,
                            total_cost=price_cost + extra_cost,
                            extra_energy_cost=extra_cost, stats=stats)
