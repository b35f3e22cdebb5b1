"""Output checks on campaign JSON and on loaded inputs.

Checks work on the JSON payload a campaign writes, so the export is
checked with the numbers. Each check returns failures as
``(cell, horizons, message)``: ``horizons`` are the (horizon, cell)
operations the failure spoils, or None for all of the cell's horizons.
"""

from __future__ import annotations

import math

# A*R/G under the nominal economics (price reduction 0.5, 1 USD per
# resource-hour, 1 kW per resource): without quota no shifted kWh can
# cost less in price reduction than this.
NOMINAL_APCOF_FLOOR = 0.5
TOL = 1e-9
MAX_GAP = 1e-4
DAY_S = 86400.0


def campaign_failures(payload: dict, horizons: int) -> list:
    """Properties every campaign grid has, whatever its kind."""
    failures = []
    for key, cell in payload["cells"].items():
        statuses = cell["statuses"]
        for h, status in enumerate(statuses):
            if status != "optimal":
                failures.append((key, [h], f"horizon {h + 1} status {status!r}"))
        if len(statuses) < horizons or cell["windows_evaluated"] != horizons:
            missing = list(range(len(statuses), horizons)) or None
            failures.append((key, missing, f"{cell['windows_evaluated']} of {horizons} "
                                           "horizons evaluated"))
        flex, norm = cell["mean_flex_kw"], cell["norm_flex"]
        if flex is None or norm is None:
            failures.append((key, None, "no flexibility value"))
            continue
        if cell["max_delay_frac"] == 0.0 and abs(flex) > TOL:
            failures.append((key, None, f"delay 0.0 yet {flex!r} kW flexibility"))
        # HiGHS returns values within its tolerances of their bounds: a
        # delay-0.0 cell can read -1e-16, which is zero, not a fault
        if not -TOL <= norm <= 1.0 + TOL:
            failures.append((key, None, f"norm_flex {norm!r} outside [0, 1]"))
    return failures


def cost_failures(cost: dict, flex: dict, quota: bool) -> list:
    """Cost-grid properties, against the flexibility grid of the same cells."""
    failures = []
    flex_by_cell = {(c["duration_hours"], c["annual_frequency"], c["max_delay_frac"]): c
                    for c in flex["cells"].values()}
    for key, cell in cost["cells"].items():
        for h, gap in enumerate(cell["gaps"]):
            if (gap is None and not cell["degenerate"]) or (gap is not None and gap > MAX_GAP):
                failures.append((key, [h], f"horizon {h + 1} gap {gap!r}"))
        acof, apcof, aecof = cell["acof"], cell["apcof"], cell["aecof"]
        if acof is None or apcof is None or aecof is None:
            failures.append((key, None, "no cost value"))
            continue
        if acof != apcof + aecof:
            failures.append((key, None, f"acof {acof!r} != {apcof!r} + {aecof!r}"))
        if quota:
            if aecof < -TOL:
                failures.append((key, None, f"negative aecof {aecof!r}"))
        else:
            if aecof != 0.0:
                failures.append((key, None, f"aecof {aecof!r} without quota"))
            if apcof < NOMINAL_APCOF_FLOOR - TOL:
                failures.append((key, None, f"apcof {apcof!r} below A*R/G"))
        source = flex_by_cell.get((cell["duration_hours"], cell["annual_frequency"],
                                   cell["max_delay_frac"]))
        if source is None or source["mean_flex_kw"] is None or cell["mean_flex_kw"] is None:
            failures.append((key, None, "no matching flexibility cell"))
            continue
        want = cell["flex_fraction"] * source["mean_flex_kw"]
        if not math.isclose(cell["mean_flex_kw"], want, rel_tol=TOL, abs_tol=0.0):
            failures.append((key, None, f"target {cell['mean_flex_kw']!r} kW is not "
                                        f"{cell['flex_fraction']!r} x {source['mean_flex_kw']!r}"))
    return failures


def ingest_failures(parsed, selected, trace: dict) -> list:
    """What parse_job_trace and select_window report against what was written."""
    failures = []
    if parsed.dropped != trace["malformed_rows"]:
        failures.append(f"dropped {parsed.dropped} rows, {trace['malformed_rows']} malformed")
    if len(parsed) != trace["valid_rows"]:
        failures.append(f"kept {len(parsed)} rows, {trace['valid_rows']} valid")
    if trace["select_window"] and (selected.span is None or
                                   selected.span[1] - selected.span[0]
                                   != trace["window_days"] * DAY_S):
        failures.append(f"selected span {selected.span!r}, want {trace['window_days']} days")
    return failures


def failed_operations(failures: list, horizons: int) -> int:
    """Count the (horizon, cell) operations that the failures spoil."""
    spoiled = {}
    for key, hs, _ in failures:
        spoiled.setdefault(key, set()).update(range(horizons) if hs is None else hs)
    return sum(len(hs & set(range(horizons))) for hs in spoiled.values())
