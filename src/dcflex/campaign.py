"""Activation sampling and rolling-horizon campaign execution.

A campaign splits a multi-day job table into non-overlapping optimization
horizons, samples activation windows per (horizon, cell), solves every
cell and averages per-horizon optima into a grid keyed by
(duration_hours, annual_frequency, max_delay_frac[, flex_fraction]).

Determinism: every random draw is seeded from
hash(master_seed, horizon_index, cell_key), so results are bit-identical
for a given configuration regardless of worker count or execution order.
The worker count is deliberately left out of the echoed configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    ActivationPlan,
    DataCenterSpec,
    EconParams,
    JobTable,
    ServiceSpec,
    TimeGrid,
)
from .preprocess import aggregate_daily, baseline_profile, partition_to_horizon
from .problem import NO_DQ, DqParams, build_costmin, build_flexmax
from .solve import DEFAULT_BACKEND, SolverBackend, solve

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
    gaps: tuple = ()  # per-horizon MIP gaps for limit-status solves, else None

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
    kind: str  # "flexmax" | "costmin"
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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CampaignResult":
        cells = {}
        for record in payload["cells"].values():
            record = dict(record)
            record["statuses"] = tuple(record.get("statuses", ()))
            record["gaps"] = tuple(record.get("gaps", ()))
            cell = CellResult(**record)
            key = CellKey(cell.duration_hours, cell.annual_frequency,
                          cell.max_delay_frac, cell.flex_fraction)
            cells[key] = cell
        return cls(kind=payload["kind"], config=payload.get("config", {}), cells=cells)

    @classmethod
    def read_json(cls, path) -> "CampaignResult":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    def write_csv(self, path) -> None:
        """Long-form CSV: duration_hours,annual_frequency,max_delay,flex_fraction,metric,value."""
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["duration_hours", "annual_frequency", "max_delay", "flex_fraction",
                 "metric", "value"]
            )
            for key in sorted(self.cells, key=lambda k: (
                    k.duration_hours, k.annual_frequency, k.max_delay_frac,
                    -1.0 if k.flex_fraction is None else k.flex_fraction)):
                cell = self.cells[key]
                frac = "" if key.flex_fraction is None else repr(key.flex_fraction)
                for metric, value in cell.metrics().items():
                    writer.writerow([
                        repr(key.duration_hours), repr(key.annual_frequency),
                        repr(key.max_delay_frac), frac, metric, repr(float(value)),
                    ])


def horizon_count(table: JobTable, grid: TimeGrid) -> int:
    """Number of whole optimization horizons covered by the table."""
    if len(table) == 0:
        return 1
    return max(1, int(table.complete_step.max()) // grid.steps)


def _prepare_horizon(table, spec, grid, h, master_seed, clusters_per_day, aggregate):
    bounds = ((h - 1) * grid.steps + 1, h * grid.steps)
    part = partition_to_horizon(table, bounds)
    if aggregate and len(part) > 0:
        part = aggregate_daily(part, grid, clusters_per_day,
                               derive_seed(master_seed, "agg", h))
    base = baseline_profile(part, spec, grid)
    return part, base


def _cell_plan(grid, svc, delay, h, master_seed):
    seed = derive_seed(master_seed, "act", h, svc.duration_hours,
                       svc.annual_frequency, delay)
    return sample_activations(grid, svc.window_count, svc.duration_steps, seed)


def _flexmax_horizon(payload) -> list:
    (h, table, spec, grid, services, delays, dq, master_seed, backend,
     clusters_per_day, aggregate) = payload
    part, base = _prepare_horizon(table, spec, grid, h, master_seed,
                                  clusters_per_day, aggregate)
    records = []
    for svc in services:
        for delay in delays:
            plan = _cell_plan(grid, svc, delay, h, master_seed)
            sol = solve(build_flexmax(part, spec.with_max_delay(delay), base, plan, dq),
                        backend)
            records.append({
                "cell": (svc.duration_hours, svc.annual_frequency, delay),
                "status": sol.status,
                "flex_kw": sol.mean_flex_kw if sol.ok else None,
            })
    return records


def _costmin_horizon(payload) -> list:
    (h, table, spec, grid, services, delays, fractions, econ, dq, tighten,
     master_seed, backend, clusters_per_day, aggregate) = payload
    part, base = _prepare_horizon(table, spec, grid, h, master_seed,
                                  clusters_per_day, aggregate)
    dt_hours = grid.step_hours
    records = []
    for svc in services:
        for delay in delays:
            spec_d = spec.with_max_delay(delay)
            plan = _cell_plan(grid, svc, delay, h, master_seed)
            flex_sol = solve(build_flexmax(part, spec_d, base, plan, dq), backend)
            s_max = flex_sol.mean_flex_kw if flex_sol.ok else None
            s_zero_delay = None
            if dq.enabled and tighten and s_max is not None:
                zd = solve(build_flexmax(part, spec.with_max_delay(0.0), base, plan, dq),
                           backend)
                s_zero_delay = zd.mean_flex_kw if zd.ok else 0.0
            for frac in fractions:
                cell = (svc.duration_hours, svc.annual_frequency, delay, frac)
                if s_max is None:
                    records.append({"cell": cell, "status": flex_sol.status,
                                    "target_kw": None, "apcof": None, "aecof": None,
                                    "degenerate": False})
                    continue
                target = frac * s_max
                if target <= DEGENERATE_FLEX_KW:
                    records.append({"cell": cell, "status": "optimal",
                                    "target_kw": target, "apcof": 0.0, "aecof": 0.0,
                                    "degenerate": True})
                    continue
                model = build_costmin(part, spec_d, econ, base, plan, target,
                                      dq=dq, tighten=tighten,
                                      zero_delay_flex_kw=s_zero_delay)
                sol = solve(model, backend)
                usable = sol.ok or (sol.status == "limit" and sol.total_cost is not None)
                if not usable:
                    records.append({"cell": cell, "status": sol.status,
                                    "target_kw": target, "apcof": None, "aecof": None,
                                    "degenerate": False})
                    continue
                shifted_kwh = dt_hours * plan.count * plan.duration_steps * target
                price_cost = sol.total_cost - sol.extra_energy_cost
                records.append({
                    "cell": cell,
                    "status": sol.status,
                    "gap": sol.gap,
                    "target_kw": target,
                    "apcof": price_cost / shifted_kwh,
                    "aecof": sol.extra_energy_cost / shifted_kwh,
                    "degenerate": False,
                })
    return records


def _run_horizons(worker, payloads, n_workers) -> list:
    if n_workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, payloads))


def _records_by_cell(outputs) -> dict:
    """Per-horizon records grouped by cell tuple, in horizon order."""
    by_cell = {}
    for out in outputs:
        for r in out:
            by_cell.setdefault(r["cell"], []).append(r)
    return by_cell


def _mean(values):
    return float(np.mean(values)) if values else None


def run_flexmax_campaign(
    table: JobTable,
    spec: DataCenterSpec,
    grid: TimeGrid,
    services: Sequence[ServiceSpec],
    delays: Sequence[float],
    dq: DqParams = NO_DQ,
    master_seed: int = 0,
    backend: SolverBackend = DEFAULT_BACKEND,
    clusters_per_day: int = 100,
    aggregate: bool = True,
    n_workers: int = 1,
) -> CampaignResult:
    """Maximum-flexibility grid over services and delay limits.

    Every whole horizon window of the dataset is solved independently and
    per-horizon optima are averaged; per-horizon infeasibility is recorded
    on the cell instead of aborting the campaign.
    """
    delays = tuple(float(d) for d in delays)
    n_h = horizon_count(table, grid)
    payloads = [
        (h, table, spec, grid, tuple(services), delays, dq, master_seed,
         backend, clusters_per_day, aggregate)
        for h in range(1, n_h + 1)
    ]
    by_cell = _records_by_cell(_run_horizons(_flexmax_horizon, payloads, n_workers))

    cells = {}
    for svc in services:
        for delay in delays:
            key = CellKey(svc.duration_hours, svc.annual_frequency, delay)
            recs = by_cell.get((svc.duration_hours, svc.annual_frequency, delay), [])
            flex = [r["flex_kw"] for r in recs if r["flex_kw"] is not None]
            mean_flex = _mean(flex)
            cells[key] = CellResult(
                duration_hours=svc.duration_hours,
                annual_frequency=svc.annual_frequency,
                max_delay_frac=delay,
                flex_fraction=None,
                mean_flex_kw=mean_flex,
                norm_flex=None if mean_flex is None else mean_flex / spec.max_power_kw,
                acof=None, apcof=None, aecof=None,
                windows_evaluated=len(flex),
                degenerate=False,
                statuses=tuple(r["status"] for r in recs),
            )
    config = _campaign_config("flexmax", spec, grid, services, delays, None, None,
                              dq, master_seed, backend, clusters_per_day, aggregate, n_h)
    return CampaignResult(kind="flexmax", config=config, cells=cells)


def run_costmin_campaign(
    table: JobTable,
    spec: DataCenterSpec,
    econ: EconParams,
    grid: TimeGrid,
    services: Sequence[ServiceSpec],
    delays: Sequence[float],
    flex_fractions: Sequence[float],
    dq: DqParams = NO_DQ,
    master_seed: int = 0,
    backend: SolverBackend = DEFAULT_BACKEND,
    clusters_per_day: int = 100,
    aggregate: bool = True,
    tighten: bool = True,
    n_workers: int = 1,
) -> CampaignResult:
    """Average-cost-of-flexibility grid at fractions of the maximum.

    Per horizon and cell the flexibility optimum is solved first; each
    fraction then targets that share of the optimum in a tightened cost
    minimization. ACoF is total cost divided by shifted energy, split into
    the computing-price part (APCoF) and the extra-energy part (AECoF,
    nonzero only under dynamic quota); the decomposition is exact by
    construction.
    """
    delays = tuple(float(d) for d in delays)
    flex_fractions = tuple(float(f) for f in flex_fractions)
    n_h = horizon_count(table, grid)
    payloads = [
        (h, table, spec, grid, tuple(services), delays, flex_fractions,
         econ, dq, tighten, master_seed, backend, clusters_per_day, aggregate)
        for h in range(1, n_h + 1)
    ]
    by_cell = _records_by_cell(_run_horizons(_costmin_horizon, payloads, n_workers))

    cells = {}
    for svc in services:
        for delay in delays:
            for frac in flex_fractions:
                key = CellKey(svc.duration_hours, svc.annual_frequency, delay, frac)
                recs = by_cell.get((svc.duration_hours, svc.annual_frequency,
                                    delay, frac), [])
                good = [r for r in recs if r["apcof"] is not None]
                apcof = _mean([r["apcof"] for r in good])
                aecof = _mean([r["aecof"] for r in good])
                targets = [r["target_kw"] for r in good if r["target_kw"] is not None]
                mean_flex = _mean(targets)
                cells[key] = CellResult(
                    duration_hours=svc.duration_hours,
                    annual_frequency=svc.annual_frequency,
                    max_delay_frac=delay,
                    flex_fraction=frac,
                    mean_flex_kw=mean_flex,
                    norm_flex=None if mean_flex is None else mean_flex / spec.max_power_kw,
                    acof=None if apcof is None else apcof + aecof,
                    apcof=apcof,
                    aecof=aecof,
                    windows_evaluated=len(good),
                    degenerate=any(r["degenerate"] for r in recs),
                    statuses=tuple(r["status"] for r in recs),
                    gaps=tuple(r.get("gap") for r in recs),
                )
    config = _campaign_config("costmin", spec, grid, services, delays,
                              tuple(flex_fractions), econ, dq, master_seed, backend,
                              clusters_per_day, aggregate, n_h, tighten=tighten)
    return CampaignResult(kind="costmin", config=config, cells=cells)


def _campaign_config(kind, spec, grid, services, delays, fractions, econ, dq,
                     master_seed, backend, clusters_per_day, aggregate, n_horizons,
                     tighten=None) -> dict:
    config = {
        "kind": kind,
        "master_seed": master_seed,
        "grid": {"step_minutes": grid.step_minutes, "steps": grid.steps,
                 "origin": grid.origin},
        "datacenter": asdict(spec),
        "services": [
            {"duration_hours": s.duration_hours, "annual_frequency": s.annual_frequency,
             "duration_steps": s.duration_steps, "window_count": s.window_count}
            for s in services
        ],
        "delays": list(delays),
        "dynamic_quota": {"enabled": dq.enabled, "speedup": dq.speedup},
        "backend": {"name": backend.name, "mip_rel_gap": backend.mip_rel_gap,
                    "time_limit_s": backend.time_limit_s},
        "clusters_per_day": clusters_per_day,
        "aggregate": aggregate,
        "horizons": n_horizons,
    }
    if fractions is not None:
        config["flex_fractions"] = list(fractions)
    if econ is not None:
        config["econ"] = asdict(econ)
    if tighten is not None:
        config["tighten"] = tighten
    return config
