"""Comparison of flexibility cost grids against market price percentiles.

A cell is profitable at a percentile once the price at that percentile
covers the average cost of flexibility (break-even counts as profitable).
Profitability is monotone in the percentile because percentile values are
non-decreasing.
"""

from __future__ import annotations

from typing import Sequence

from .campaign import CampaignResult, CellKey
from .ingest import PriceSeries
from .scaling import percentile

DEFAULT_PERCENTILES = (25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.95, 99.99, 100.0)


def price_percentile_table(series_list: Sequence[PriceSeries],
                           percentiles: Sequence[float] = DEFAULT_PERCENTILES) -> dict:
    """Percentile values per market: ``{market: {percentile: value}}``."""
    if not series_list:
        raise ValueError("no price series given")
    table = {}
    for series in series_list:
        table[series.market] = {float(p): percentile(series.prices, p)
                                for p in percentiles}
    return table


def profitability_report(acof_grid: CampaignResult, prices: dict) -> dict:
    """Minimum price percentile at which each cost cell turns profitable.

    prices is the output of price_percentile_table. Flexibility cells
    (fraction None) carry no cost and are skipped. Degenerate cells
    (zero-cost, zero-energy) are flagged and excluded from profitability
    claims. Each cell's breakeven_percentile maps a market to its
    break-even percentile, or None where no percentile covers the cost.
    """
    cost_keys = [k for k in acof_grid.cells if k.flex_fraction is not None]
    if not cost_keys:
        raise ValueError("profitability needs a cost campaign grid")
    cells = []
    for key in sorted(cost_keys, key=CellKey.sort_key):
        cell = acof_grid.cells[key]
        breakeven = {}
        if cell.acof is not None and not cell.degenerate:
            for market, ptable in prices.items():
                found = None
                for p in sorted(ptable):
                    if ptable[p] >= cell.acof:
                        found = p
                        break
                breakeven[market] = found
        cells.append({
            "duration_hours": key.duration_hours,
            "annual_frequency": key.annual_frequency,
            "max_delay_frac": key.max_delay_frac,
            "flex_fraction": key.flex_fraction,
            "acof": cell.acof,
            "degenerate": cell.degenerate,
            "breakeven_percentile": breakeven,
        })
    return {
        "currency": "USD",
        "markets": {m: {repr(p): v for p, v in ptable.items()}
                    for m, ptable in prices.items()},
        "cells": cells,
    }


def format_profitability_text(report: dict) -> str:
    """Human-readable text table of the profitability report."""
    lines = []
    markets = sorted(report["markets"])
    header = f"{'cell':<44} {'ACoF':>10}  " + "  ".join(f"{m:>12}" for m in markets)
    lines.append(header)
    lines.append("-" * len(header))
    for cell in report["cells"]:
        frac = cell["flex_fraction"]
        label = (f"{cell['duration_hours']}h x {cell['annual_frequency']}/yr "
                 f"delay {cell['max_delay_frac']}")
        if frac is not None:
            label += f" frac {frac}"
        if cell["degenerate"]:
            row = f"{label:<44} {'-':>10}  " + "  ".join(f"{'degenerate':>12}" for _ in markets)
        elif cell["acof"] is None:
            row = f"{label:<44} {'-':>10}  " + "  ".join(f"{'unsolved':>12}" for _ in markets)
        else:
            cols = []
            for m in markets:
                p = cell["breakeven_percentile"].get(m)
                cols.append(f"{'never':>12}" if p is None else f"{'P' + str(p):>12}")
            row = f"{label:<44} {cell['acof']:>10.4f}  " + "  ".join(cols)
        lines.append(row)
    return "\n".join(lines) + "\n"
