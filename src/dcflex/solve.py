"""Solver limits, warm re-solves, model export and solution decoding.

Every model, the flexibility LP and the cost MILP alike, is solved by
direct calls into the HiGHS that scipy bundles, in `_run_highs`. That call
goes through scipy's private ``scipy.optimize._highspy._core._Highs``
binding, which is used in this module and nowhere else; the public
``scipy.optimize.milp`` would wrap the same solver in per-column work
(variable-type objects, the basis, bound marginals) that nothing here
reads. Single-threaded HiGHS is deterministic, so the same sequence of
models produces identical solutions regardless of scheduling.

Every HiGHS run, LP, relaxation, warm re-solve and branch-and-bound
alike, gets the options of `_new_highs`: presolve on, max-value scaling
(``simplex_scale_strategy`` 4, power-of-two factors from each row's and
column's largest entry, in place of the default equilibration) and the
console log off. The LP algorithm is HiGHS's choice, dual simplex.
Max-value scaling pays on flexibility LPs with many preemption counters:
the 16 LPs of a benchmark ``flex_grid`` round (seed 1, 2-core Xeon) took
2.89 s against 3.84 s under the default scaling, every optimum unchanged,
and the interior-point method, at 5.27 s, was faster on none of them.

The binding is imported inside the functions that call HiGHS, not at the
top of the module: importing scipy takes about 0.4 s, which every dcflex
command would otherwise pay, also those that solve nothing (``synth``,
``preprocess``, ``report``, ...). The first solve of a process pays it.
`write_model` hands a model to HiGHS too, which writes it as LP or MPS.

A `CellSolver` keeps one HiGHS instance across models that differ only in
their row bounds, as `problem.retarget` makes them. Its first model is
solved from scratch with presolve (a cold start); each later one is sent
as its changed row bounds, and HiGHS's dual simplex re-solves from the last
basis, skipping presolve (a warm start). A campaign cell so solves its cost
relaxation at each fraction on one CellSolver. `solve(model)` is the first
solve of a fresh CellSolver.

A model with binaries is first solved as its LP relaxation, on the held
instance. When that LP is optimal and every integer column lies within
HiGHS's MIP feasibility tolerance of an integer, its solution is feasible
for the MILP and its objective bounds the MILP's, so it is the MILP optimum
and branch-and-bound never runs; an infeasible relaxation proves the MILP
infeasible. Otherwise the MILP runs cold, on a fresh instance of the whole
model, in the time the relaxation left.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

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
    "kInterrupt": "limit",
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


def _new_highs(model: ModelInstance, backend: SolverBackend, relax: bool):
    """A fresh HiGHS instance holding the model, its LP relaxation with relax.

    A max model is held as the minimization of its negated objective and
    constant, so HiGHS's bounds and MIP gap are the model's own; the options
    are the LP ones unless the model has integer columns and relax is off.
    """
    from scipy.optimize._highspy import _core as highs

    # log_to_console, not output_flag: switching all output off moves some
    # degenerate LPs to another of their optima; scale strategy 4 is
    # max-value scaling, see the module docstring
    options = {"log_to_console": False, "presolve": "on", "simplex_scale_strategy": 4}
    if model.n_binary > 0 and not relax:
        options.update(mip_rel_gap=backend.mip_rel_gap, time_limit=backend.time_limit_s)
    a = model.a_matrix.tocsc()
    sign = 1.0 if model.sense == "min" else -1.0
    h = highs._Highs()
    for name, value in options.items():
        if h.setOptionValue(name, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejected option {name}={value!r}")
    # the array form of passModel reads the numpy buffers in place; it reads
    # a full-length integrality array even for an LP (an empty one is read
    # past its end), and HiGHS solves an all-zero one as an LP
    h.passModel(model.n_vars, model.n_rows, a.nnz, int(highs.MatrixFormat.kColwise),
                int(highs.ObjSense.kMinimize), sign * model.obj_const, sign * model.obj,
                model.var_lb, model.var_ub, model.row_lb, model.row_ub,
                a.indptr, a.indices, a.data,
                np.zeros_like(model.integrality) if relax else model.integrality)
    return h


def _run_highs(model: ModelInstance, backend: SolverBackend, relax: bool = False,
               held=None):
    """Minimize the model (a max model through its negated objective) in HiGHS.

    With relax, the integrality of the columns is dropped and the LP
    relaxation is solved under the LP options. held is an instance that
    already holds the model (its relaxation with relax), re-solved from
    where its last run left off; without it a fresh instance is made.
    Returns (HighsModelStatus, HighsInfo, column values or None, seconds in
    run()); the values are read only when HiGHS holds a feasible solution.
    """
    from scipy.optimize._highspy import _core as highs

    h = _new_highs(model, backend, relax) if held is None else held
    start = time.perf_counter()
    h.run()
    seconds = time.perf_counter() - start
    info = h.getInfo()
    values = None
    if info.primal_solution_status == highs.kSolutionStatusFeasible:
        values = np.array(h.getSolution().col_value)
    return h.getModelStatus(), info, values, seconds


def _check(status, what):
    """Raise if HiGHS returned an error status for a change to its model."""
    from scipy.optimize._highspy import _core as highs

    if status == highs.HighsStatus.kError:
        raise ValueError(f"HiGHS rejected {what}")


class CellSolver:
    """One HiGHS instance, re-solved warm across models that differ in row bounds.

    The first solve passes its model whole, as solve() does. Each later
    model must have the held model's matrix, objective, sense and column
    bounds (ValueError otherwise); its row bounds may differ. The
    instance holds LPs only: a MILP's relaxation runs on it, its
    branch-and-bound on a fresh instance of the whole model. While
    branch-and-bound runs, the held instance is given up and only its basis
    is kept, so that the two are never in memory together; the next solve
    passes its own model whole and starts from that basis.
    """

    def __init__(self, backend: SolverBackend = DEFAULT_BACKEND):
        self.backend = backend
        self._model = None  # the model the instance holds
        self._highs = None  # None before the first solve and during branch-and-bound
        self._basis = None  # the basis the instance had when it was given up

    def solve(self, model: ModelInstance) -> ScheduleSolution:
        """Solve the model as solve() does, from the last run's basis if any.

        The flexibility and, for a cost model, the cost are decoded;
        statuses, limits and stats are solve()'s.
        """
        start = "cold" if self._model is None else "warm"
        self._hold(model)
        backend = self.backend
        is_mip = model.n_binary > 0
        highs_status, info, values, seconds = _run_highs(model, backend, relax=is_mip,
                                                         held=self._highs)
        status = _STATUS.get(highs_status.name, "error")
        run, iterations = "lp", 0
        if is_mip:
            run = "relaxation"
            proved = status == "infeasible" or (status == "optimal" and _integral(model, values))
            if not proved:
                run, iterations = "branch-and-bound", max(info.simplex_iteration_count, 0)
                self._basis, self._highs = self._highs.getBasis(), None
                limited = replace(backend, time_limit_s=max(backend.time_limit_s - seconds, 0.0))
                highs_status, info, values, milp_s = _run_highs(model, limited)
                status = _STATUS.get(highs_status.name, "error")
                seconds += milp_s
        if not (status == "optimal" or (status == "limit" and run == "branch-and-bound")):
            values = None
        stats = _stats(model, info, run == "branch-and-bound", status, values is not None,
                       iterations, seconds)
        log.debug("%s solve: %d columns, %d rows, %d nonzeros, %d binaries; %s by %s, "
                  "%d iterations, %d nodes, gap %s, %.3f s, %s start", model.kind,
                  stats.columns, stats.rows, stats.nonzeros, stats.binaries, status, run,
                  stats.iterations, stats.nodes, stats.gap, seconds, start)
        if values is None:
            return ScheduleSolution(status=status, mean_flex_kw=None, stats=stats)
        return _decode(model, values, status, stats)

    def _hold(self, model: ModelInstance) -> None:
        """Make the instance hold the model's LP relaxation."""
        held = self._model
        if held is not None and not _same_lp(model, held):
            raise ValueError(f"{model!r} differs from the held {held!r} in more than "
                             "its row bounds")
        if self._highs is None:  # the first solve, or given up for branch-and-bound
            self._highs = _new_highs(model, self.backend, relax=True)
            if self._basis is not None and self._basis.valid:
                _check(self._highs.setBasis(self._basis), "the basis")
        else:
            for r in np.flatnonzero((model.row_lb != held.row_lb)
                                    | (model.row_ub != held.row_ub)).tolist():
                _check(self._highs.changeRowBounds(r, model.row_lb[r], model.row_ub[r]),
                       "the row bounds")
        self._model = model


def _same_lp(model: ModelInstance, held: ModelInstance) -> bool:
    """Whether the model has the held one's matrix, objective, sense and column bounds."""
    a, b = model.a_matrix, held.a_matrix
    return (model.sense == held.sense and np.array_equal(model.obj, held.obj)
            and np.array_equal(model.var_lb, held.var_lb)
            and np.array_equal(model.var_ub, held.var_ub)
            and (a is b or (a.shape == b.shape and (a != b).nnz == 0)))


def solve(model: ModelInstance, backend: SolverBackend = DEFAULT_BACKEND) -> ScheduleSolution:
    """Solve a model and decode its flexibility and, for a cost model, its cost.

    This is the first solve of a fresh CellSolver. A model with binaries is
    solved as its LP relaxation first. An optimal relaxation whose integer
    columns are all integral within HiGHS's MIP feasibility tolerance is
    returned as the MILP optimum, with no nodes and gap 0.0; an infeasible
    one proves the MILP infeasible. Any other relaxation outcome runs the
    MILP with the time the relaxation left of backend.time_limit_s, and the
    stats count both runs. An LP and a relaxation have no time limit.

    Infeasible, unbounded, limit and error statuses are propagated on the
    returned solution; a limit is decoded only for a model with binaries
    that has an incumbent, and a solution with nothing to decode holds None
    for its values. A cost minimization is infeasible only when its target
    exceeds the flexibility optimum.
    """
    return CellSolver(backend).solve(model)


def write_model(model: ModelInstance, path) -> None:
    """Write the model to path, as LP text if it ends in .lp, as MPS if in .mps.

    HiGHS writes the file: the model in its own sense, with its objective
    constant and with the columns and rows named by var_names and row_names.
    """
    from scipy.optimize._highspy import _core as highs

    h = _new_highs(model, DEFAULT_BACKEND, relax=False)
    if model.sense == "max":  # _new_highs holds it as a minimization
        _check(h.changeObjectiveSense(highs.ObjSense.kMaximize), "the sense")
        _check(h.changeColsCost(model.n_vars, np.arange(model.n_vars, dtype=np.int32),
                                model.obj), "the objective")
        _check(h.changeObjectiveOffset(model.obj_const), "the objective constant")
    for i, name in enumerate(model.var_names):
        _check(h.passColName(i, name), f"column name {name}")
    for i, name in enumerate(model.row_names):
        _check(h.passRowName(i, name), f"row name {name}")
    _check(h.writeModel(str(path)), f"writing {path}")


def _integral(model: ModelInstance, values: np.ndarray) -> bool:
    """Whether every integer column of the model is integral in values."""
    x = values[model.integrality > 0]
    return bool(np.all(np.abs(x - np.round(x)) <= _INTEGER_TOL))


def _stats(model, info, is_mip, status, has_values, iterations, seconds) -> SolveStats:
    """HiGHS's bounds turned back into the model's sense.

    is_mip says whether info comes from a MILP run; iterations are added to
    the run's own, seconds are the time of every run.
    """
    sign = 1.0 if model.sense == "min" else -1.0

    def bound(value):
        return sign * value if math.isfinite(value) else None

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
    # every late job's price cost in job order (ids need not be unique); an
    # optimal delay is a whole number of steps, up to HiGHS's tolerances
    price_cost = float(sum((meta["step_cost"] * np.round(values[meta["d_col"]])).tolist()))
    extra_cost = 0.0
    if meta["dq"].enabled:
        p0, T = meta["p0"], meta["T"]
        extra_cost = meta["econ"].energy_price * meta["dt_hours"] \
            * float(values[p0:p0 + T].sum() - meta["baseline_power"].sum())
    return ScheduleSolution(status=status, mean_flex_kw=mean_flex,
                            total_cost=price_cost + extra_cost,
                            extra_energy_cost=extra_cost, stats=stats)
