"""Activation sampling and rolling-horizon campaign execution.

A campaign splits a multi-day job table into non-overlapping optimization
horizons, samples activation windows per (horizon, service), solves every
cell and averages per-horizon optima into a grid keyed by
(duration_hours, annual_frequency, max_delay_frac, flex_fraction).

One engine runs both kinds of campaign. Per horizon and service it solves
the flexibility LP at each delay (0 kW unsolved at zero delay without
quota), then per delay visits each flex fraction: fraction None is the
flexibility cell (the LP optimum itself), and a number is the cost cell at
that share of the optimum. A run has cost cells iff some fraction is a
number, and that alone decides its kind and its econ echo. A horizon that
raises is recorded as `error` on each of its cells.

Each (horizon, service) builds its flexibility LP once, at the largest
delay, and solves it on one CellSolver from the smallest delay up, each
delay a change of column bounds (problem.at_delay), warm; that chain is
dropped before any cost model is built. Each (horizon, service, delay)
then solves its cost model on its own CellSolver: built once, solved cold
at the largest fraction, and moved to each smaller one by its target row
(problem.retarget), warm.

Determinism: every random draw is seeded from hash(master_seed,
horizon_index, key), the activation windows by the service alone, so
every delay of a service sees the same windows; results are bit-identical
for a given configuration regardless of worker count or execution order.
The worker count is deliberately left out of the echoed configuration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import json_text
from .model import (
    ActivationPlan,
    DataCenterSpec,
    EconParams,
    JobTable,
    ServiceSpec,
    TimeGrid,
)
from .preprocess import aggregate_daily, baseline_profile, partition_to_horizon
from .problem import NO_DQ, DqParams, at_delay, build_costmin, build_flexmax, retarget
from .solve import DEFAULT_BACKEND, CellSolver, SolverBackend

log = logging.getLogger(__name__)

#: Targets below this (kW) are treated as degenerate rather than divided by.
DEGENERATE_FLEX_KW = 1e-9


def derive_seed(master_seed: int, *parts) -> np.random.SeedSequence:
    """Stable, process-independent seed from a master seed and key parts."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return np.random.SeedSequence([int(master_seed), int.from_bytes(digest[:8], "big")])


def sample_activations(grid: TimeGrid, count: int, duration_steps: int,
                       rng_seed) -> ActivationPlan:
    """Sample `count` disjoint activation windows of equal duration.

    Placements are drawn uniformly over all sets of non-overlapping
    windows via the standard gap bijection; deterministic per seed.
    """
    if count < 0 or duration_steps < 1:
        raise ValueError("count must be >= 0 and duration_steps >= 1")
    if count == 0:
        return ActivationPlan(windows=(), grid=grid)
    if count * duration_steps > grid.steps:
        raise ValueError(
            f"{count} windows x {duration_steps} steps do not fit in {grid.steps} steps"
        )
    rng = np.random.default_rng(rng_seed)
    m = grid.steps - count * duration_steps + count
    picks = np.sort(rng.choice(m, size=count, replace=False)) + 1
    starts = picks + np.arange(count) * (duration_steps - 1)
    windows = tuple((int(s), int(s + duration_steps - 1)) for s in starts)
    return ActivationPlan(windows=windows, grid=grid)


def service_grid(durations_hours: Sequence[float], frequencies: Sequence[float],
                 grid: TimeGrid) -> list:
    """All ServiceSpec combinations of the given durations and frequencies."""
    return [
        ServiceSpec.from_requirements(d, f, grid)
        for d in durations_hours
        for f in frequencies
    ]


@dataclass(frozen=True)
class CellKey:
    duration_hours: float
    annual_frequency: float
    max_delay_frac: float
    flex_fraction: float | None = None

    def text(self) -> str:
        base = (f"dur{self.duration_hours!r}_freq{self.annual_frequency!r}"
                f"_delay{self.max_delay_frac!r}")
        if self.flex_fraction is not None:
            base += f"_frac{self.flex_fraction!r}"
        return base

    def sort_key(self) -> tuple:
        """Output order: duration, frequency, delay, then fraction with None first."""
        return (self.duration_hours, self.annual_frequency, self.max_delay_frac,
                self.flex_fraction is not None, self.flex_fraction or 0.0)


@dataclass
class CellResult:
    duration_hours: float
    annual_frequency: float
    max_delay_frac: float
    flex_fraction: float | None
    mean_flex_kw: float | None
    norm_flex: float | None
    acof: float | None
    apcof: float | None
    aecof: float | None
    windows_evaluated: int
    degenerate: bool
    statuses: tuple
    # per-horizon MIP gap of each cost record (0.0 for a cost model without
    # binaries solved to optimality), None where it has none (failed LP,
    # degenerate target, unusable MILP); () on flexibility cells
    gaps: tuple = ()

    def metrics(self) -> dict:
        out = {}
        for name in ("mean_flex_kw", "norm_flex", "acof", "apcof", "aecof"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out["windows_evaluated"] = self.windows_evaluated
        return out


@dataclass
class CampaignResult:
    kind: str  # "costmin" iff some cell has a fraction, else "flexmax"
    config: dict
    cells: dict  # CellKey -> CellResult

    def cell(self, duration_hours, annual_frequency, max_delay_frac,
             flex_fraction=None) -> CellResult:
        return self.cells[CellKey(duration_hours, annual_frequency,
                                  max_delay_frac, flex_fraction)]

    def to_json_dict(self) -> dict:
        cells = {}
        for key, cell in self.cells.items():
            record = asdict(cell)
            record["statuses"] = list(cell.statuses)
            record["gaps"] = list(cell.gaps)
            cells[key.text()] = record
        return {"kind": self.kind, "config": self.config, "cells": cells}

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CampaignResult":
        """The result that to_json_dict wrote; ValueError for any other JSON."""
        if not (isinstance(payload, dict) and "kind" in payload
                and isinstance(payload.get("cells"), dict)):
            raise ValueError("not a campaign grid: it needs a 'kind' key and a 'cells' object")
        cells = {}
        for name, record in payload["cells"].items():
            try:
                cell = CellResult(**{**record, "statuses": tuple(record.get("statuses", ())),
                                     "gaps": tuple(record.get("gaps", ()))})
                cells[CellKey(cell.duration_hours, cell.annual_frequency,
                              cell.max_delay_frac, cell.flex_fraction)] = cell
            except (TypeError, ValueError) as exc:
                raise ValueError(f"not a campaign cell record: {name}: {exc}") from None
        return cls(kind=payload["kind"], config=payload.get("config", {}), cells=cells)

    @classmethod
    def read_json(cls, path) -> "CampaignResult":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def horizon_count(table: JobTable, grid: TimeGrid) -> int:
    """Number of whole optimization horizons covered by the table."""
    if len(table) == 0:
        return 1
    return max(1, int(table.complete_step.max()) // grid.steps)


def _prepare_horizon(table, spec, grid, h, master_seed, clusters_per_day):
    bounds = ((h - 1) * grid.steps + 1, h * grid.steps)
    part = partition_to_horizon(table, bounds)
    if clusters_per_day > 0 and len(part) > 0:
        part = aggregate_daily(part, grid, clusters_per_day,
                               derive_seed(master_seed, "agg", h))
    base = baseline_profile(part, spec, grid)
    return part, base


def _cell_plan(grid, svc, h, master_seed):
    """The activation windows of service svc on horizon h, shared by every delay."""
    seed = derive_seed(master_seed, "act", h, svc.duration_hours, svc.annual_frequency)
    return sample_activations(grid, svc.window_count, svc.duration_steps, seed)


def _flex_optima(part, spec, base, plan, delays, dq, backend) -> dict:
    """(status, optimum or None) of the flexibility LP at each delay: one LP,
    built at the largest delay, solved from the smallest up on one CellSolver.
    Delay 0.0 without quota is 0 kW unsolved, as completion then forces x = 1
    on the baseline span (baseline_profile checked that it fits)."""
    optima = {0.0: ("optimal", 0.0)}
    chain = sorted({d for d in delays if d > 0.0 or dq.enabled})
    if chain:
        lp = build_flexmax(part, spec.with_max_delay(chain[-1]), base, plan, dq)
        cell = CellSolver(backend)
        for delay in chain:
            sol = cell.solve(at_delay(lp, part, delay))
            optima[delay] = (sol.status, sol.mean_flex_kw if sol.ok else None)
    return optima


def _record(key, status, flex_kw, apcof=None, aecof=None, gap=None, degenerate=False):
    """One horizon's result for one cell; flex_kw is None unless it is usable."""
    return {"cell": key, "status": status, "flex_kw": flex_kw, "apcof": apcof,
            "aecof": aecof, "gap": gap, "degenerate": degenerate}


def _cell_keys(services, delays, fractions) -> list:
    """Every (service, delay, fraction) cell of a grid, in output order."""
    return [CellKey(svc.duration_hours, svc.annual_frequency, delay, frac)
            for svc in services for delay in delays for frac in fractions]


def _campaign_horizon(h, **run) -> list:
    """Every cell of horizon h, or `error` on each of them if the horizon raised.

    run holds the other arguments of _horizon_records by name. One failing
    horizon is recorded on its own cells and does not abort the campaign;
    the traceback goes to the `dcflex.campaign` log.
    """
    try:
        return _horizon_records(h, **run)
    except Exception:
        log.exception("horizon %d failed; its cells are recorded as errors", h)
        return [_record(key, "error", None)
                for key in _cell_keys(run["services"], run["delays"], run["fractions"])]


def _horizon_records(h, table, spec, econ, grid, services, delays, fractions, dq,
                     master_seed, backend, clusters_per_day) -> list:
    """Every cell of one horizon: the flexibility LP, then each fraction of it.

    Fraction None records the LP optimum itself; a number records the cost
    MILP at that share of the optimum, or a degenerate zero-cost cell. Per
    service and delay one CellSolver solves the cost models, at the
    fractions from the largest down, so the records do not depend on the
    order of the fractions.
    """
    part, base = _prepare_horizon(table, spec, grid, h, master_seed, clusters_per_day)
    costed = sorted({frac for frac in fractions if frac is not None}, reverse=True)
    records = []
    for svc in services:
        plan = _cell_plan(grid, svc, h, master_seed)
        optima = _flex_optima(part, spec, base, plan, delays, dq, backend)
        for delay in delays:
            status, s_max = optima[delay]
            cell = CellSolver(backend)
            solved, cost = {}, None
            for frac in (costed if s_max is not None else ()):
                target = frac * s_max
                if target <= DEGENERATE_FLEX_KW:
                    break
                cost = (build_costmin(part, spec.with_max_delay(delay), econ, base, plan,
                                      target, dq=dq) if cost is None else retarget(cost, target))
                solved[frac] = cell.solve(cost)
            for frac in fractions:
                key = CellKey(svc.duration_hours, svc.annual_frequency, delay, frac)
                if frac is None or s_max is None:
                    records.append(_record(key, status, s_max))
                    continue
                target = frac * s_max
                if frac not in solved:
                    records.append(_record(key, "optimal", target, 0.0, 0.0,
                                           degenerate=True))
                    continue
                sol = solved[frac]
                if not (sol.ok or (sol.status == "limit" and sol.total_cost is not None)):
                    records.append(_record(key, sol.status, None))
                    continue
                shifted_kwh = grid.step_hours * plan.count * plan.duration_steps * target
                price_cost = sol.total_cost - sol.extra_energy_cost
                records.append(_record(key, sol.status, target, price_cost / shifted_kwh,
                                       sol.extra_energy_cost / shifted_kwh, gap=sol.stats.gap))
    return records


def _run_horizons(horizon, n_h, n_workers) -> list:
    if n_workers <= 1 or n_h <= 1:
        return [horizon(h) for h in range(1, n_h + 1)]
    # the pool starts every worker at its first task, so ask for no more
    # workers than there are horizons
    with ProcessPoolExecutor(max_workers=min(n_workers, n_h)) as pool:
        return list(pool.map(horizon, range(1, n_h + 1)))


def _mean(values):
    return float(np.mean(values)) if values else None


def run_campaign(
    table: JobTable,
    spec: DataCenterSpec,
    econ: EconParams | None,
    grid: TimeGrid,
    services: Sequence[ServiceSpec],
    delays: Sequence[float],
    flex_fractions: Sequence[float | None],
    dq: DqParams = NO_DQ,
    master_seed: int = 0,
    backend: SolverBackend = DEFAULT_BACKEND,
    clusters_per_day: int = 100,
    n_workers: int = 1,
) -> CampaignResult:
    """Flexibility and cost cells over services, delay limits and fractions.

    Every whole horizon window of the dataset is solved independently and
    its records are averaged into one cell per key; per-horizon
    infeasibility, or an exception in a horizon, is recorded on the cell
    instead of aborting the campaign. Per horizon and cell the flexibility
    LP is solved once for all fractions. Fraction None is the flexibility
    cell; a number targets that share of the optimum in a cost minimization.
    ACoF is total cost divided by shifted energy, split into the
    computing-price part (APCoF) and the extra-energy part (AECoF, nonzero
    only under dynamic quota); the decomposition is exact by construction.
    econ is read only when some fraction is a number. Each day of a horizon
    is aggregated into at most clusters_per_day jobs, and 0 leaves the jobs
    as they are. Delays must be finite and >= 0, fractions None or in
    [0, 1], and clusters_per_day >= 0; anything else raises ValueError
    before any solve.
    """
    services = tuple(services)
    delays = tuple(float(d) for d in delays)
    fractions = tuple(None if f is None else float(f) for f in flex_fractions)
    if not all(math.isfinite(d) and d >= 0.0 for d in delays):
        raise ValueError(f"delays must be finite and >= 0, got {list(delays)}")
    if not all(f is None or 0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"flex fractions must be none or in [0, 1], got {list(fractions)}")
    if clusters_per_day < 0:
        raise ValueError(f"clusters_per_day must be >= 0, got {clusters_per_day}")
    costed = any(frac is not None for frac in fractions)
    if costed and econ is None:
        raise ValueError("cost cells need EconParams")
    n_h = horizon_count(table, grid)
    horizon = partial(_campaign_horizon, table=table, spec=spec, econ=econ, grid=grid,
                      services=services, delays=delays, fractions=fractions, dq=dq,
                      master_seed=master_seed, backend=backend,
                      clusters_per_day=clusters_per_day)
    by_cell = {}
    for out in _run_horizons(horizon, n_h, n_workers):
        for r in out:
            by_cell.setdefault(r["cell"], []).append(r)

    cells = {}
    for key in _cell_keys(services, delays, fractions):
        recs = by_cell.get(key, [])
        good = [r for r in recs if r["flex_kw"] is not None]
        mean_flex = _mean([r["flex_kw"] for r in good])
        apcof = aecof = None
        frac = key.flex_fraction
        if frac is not None:
            apcof = _mean([r["apcof"] for r in good])
            aecof = _mean([r["aecof"] for r in good])
        cells[key] = CellResult(
            **asdict(key),
            mean_flex_kw=mean_flex,
            norm_flex=None if mean_flex is None else mean_flex / spec.max_power_kw,
            acof=None if apcof is None else apcof + aecof,
            apcof=apcof,
            aecof=aecof,
            windows_evaluated=len(good),
            degenerate=any(r["degenerate"] for r in recs),
            statuses=tuple(r["status"] for r in recs),
            gaps=() if frac is None else tuple(r["gap"] for r in recs),
        )

    kind = "costmin" if costed else "flexmax"
    config = {
        "kind": kind,
        "master_seed": master_seed,
        "grid": asdict(grid),
        # every cell is solved at its own delay from delays, not at the spec's
        "datacenter": {k: v for k, v in asdict(spec).items() if k != "max_delay_frac"},
        "services": [asdict(s) for s in services],
        "delays": list(delays),
        "dynamic_quota": asdict(dq),
        "backend": asdict(backend),
        "clusters_per_day": clusters_per_day,
        "horizons": n_h,
    }
    if costed:
        config.update({"flex_fractions": list(fractions), "econ": asdict(econ)})
    return CampaignResult(kind=kind, config=config, cells=cells)


def run_flexmax_campaign(table, spec, grid, services, delays, **options) -> CampaignResult:
    """The flexibility cells alone: run_campaign's options at the one fraction None."""
    return run_campaign(table, spec, None, grid, services, delays, (None,), **options)


#: The cost cells are run_campaign at numeric fractions.
run_costmin_campaign = run_campaign
