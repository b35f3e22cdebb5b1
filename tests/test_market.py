import numpy as np
import pytest

from dcflex.campaign import CampaignResult, CellKey, CellResult
from dcflex.ingest import PriceSeries
from dcflex.market import (
    format_profitability_text,
    price_percentile_table,
    profitability_report,
)


def series(market, prices):
    from datetime import datetime, timedelta
    start = datetime(2024, 1, 1)
    stamps = [start + timedelta(hours=h) for h in range(len(prices))]
    return PriceSeries(market=market, timestamps=stamps, prices=prices)


def cost_grid(cells):
    table = {}
    for (dur, freq, delay, frac), acof, degenerate in cells:
        key = CellKey(dur, freq, delay, frac)
        table[key] = CellResult(
            duration_hours=dur, annual_frequency=freq, max_delay_frac=delay,
            flex_fraction=frac, mean_flex_kw=1.0, norm_flex=0.1,
            acof=acof, apcof=acof, aecof=0.0 if acof is not None else None,
            windows_evaluated=1, degenerate=degenerate, statuses=("optimal",),
        )
    return CampaignResult(kind="costmin", config={}, cells=table)


def test_price_percentile_table():
    constant = series("dfs", [3.8] * 20)
    table = price_percentile_table([constant], percentiles=(25, 50, 99.9))
    assert all(v == pytest.approx(3.8) for v in table["dfs"].values())

    two = series("toy", [0.0, 10.0])
    table = price_percentile_table([two], percentiles=(50, 100))
    assert table["toy"][50.0] == pytest.approx(5.0)
    assert table["toy"][100.0] == pytest.approx(10.0)


def test_profitability_thresholds():
    grid = cost_grid([
        ((2.0, 365.0, 0.2, 1.0), 0.5, False),
        ((2.0, 365.0, 0.2, 0.0), 0.0, True),    # degenerate cell
        ((0.25, 2920.0, 0.2, 1.0), 99.0, False),  # above all observed prices
    ])
    prices = {"m": {99.0: 0.4, 99.9: 0.6, 100.0: 0.7}}
    report = profitability_report(grid, prices)
    by_cell = {(c["duration_hours"], c["flex_fraction"]): c for c in report["cells"]}

    profitable = by_cell[(2.0, 1.0)]
    assert profitable["breakeven_percentile"]["m"] == 99.9

    degenerate = by_cell[(2.0, 0.0)]
    assert degenerate["degenerate"]
    assert degenerate["breakeven_percentile"] == {}

    hopeless = by_cell[(0.25, 1.0)]
    assert hopeless["breakeven_percentile"]["m"] is None

    text = format_profitability_text(report)
    assert "P99.9" in text
    assert "never" in text
    assert "degenerate" in text


def test_profitability_monotone_in_percentile():
    rng = np.random.default_rng(2)
    prices = np.sort(rng.uniform(0, 2, 500))
    table = price_percentile_table([series("m", list(prices))],
                                   percentiles=(10, 50, 90, 99, 100))
    grid = cost_grid([((1.0, 365.0, 0.1, 1.0), 0.9, False)])
    report = profitability_report(grid, table)
    breakeven = report["cells"][0]["breakeven_percentile"]["m"]
    if breakeven is not None:
        for p, value in table["m"].items():
            if p >= breakeven:
                assert value >= 0.9


def test_profitability_skips_flexibility_cells():
    grid = cost_grid([
        ((2.0, 365.0, 0.2, None), None, False),  # the flexibility cell
        ((2.0, 365.0, 0.2, 1.0), 0.5, False),
    ])
    report = profitability_report(grid, {"m": {50.0: 1.0}})
    assert [c["flex_fraction"] for c in report["cells"]] == [1.0]
    del grid.cells[CellKey(2.0, 365.0, 0.2, 1.0)]
    with pytest.raises(ValueError, match="cost campaign"):
        profitability_report(grid, {"m": {50.0: 1.0}})


def test_profitability_requires_cost_grid():
    flex = CampaignResult(kind="flexmax", config={}, cells={})
    with pytest.raises(ValueError, match="cost campaign"):
        profitability_report(flex, {})
