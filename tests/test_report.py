import csv
from dataclasses import replace

import pytest

from dcflex.campaign import CampaignResult, CellKey, CellResult
from dcflex.report import GRID_CSV_COLUMNS, heatmap_export, write_grid_csv


def one_cell_grid(value=1.0):
    key = CellKey(0.25, 2920.0, 0.2)
    cell = CellResult(
        duration_hours=0.25, annual_frequency=2920.0, max_delay_frac=0.2,
        flex_fraction=None, mean_flex_kw=2.0, norm_flex=value,
        acof=None, apcof=None, aecof=None,
        windows_evaluated=1, degenerate=False, statuses=("optimal",),
    )
    return CampaignResult(kind="flexmax", config={"note": "fixture"}, cells={key: cell})


def read_grid_rows(path) -> dict:
    """{(dur, freq, delay, frac): {metric: value}} from a grid CSV's rows."""
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        assert tuple(next(rows)) == GRID_CSV_COLUMNS
        cells = {}
        for dur, freq, delay, frac, metric, value in rows:
            key = (float(dur), float(freq), float(delay), None if frac == "" else float(frac))
            cells.setdefault(key, {})[metric] = float(value)
    return cells


def test_single_cell_heatmap(tmp_path):
    grid = one_cell_grid(1.0)
    written = heatmap_export(grid, "norm_flex", tmp_path / "out")
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out_norm_flex_delay0.2.svg"
    assert csv_path in written and svg_path in written
    svg = svg_path.read_text()
    assert svg.count("<rect") == 2  # background + one cell
    assert ">1<" in svg  # the cell value annotation
    assert "min=1  max=1  mean=1" in svg
    assert "Duration (hours)" in svg and "Frequency (times/year)" in svg
    text = csv_path.read_text()
    assert "norm_flex,1.0" in text


def test_csv_round_trip(tmp_path):
    grid = one_cell_grid(0.73125)
    heatmap_export(grid, "norm_flex", tmp_path / "g")
    cells = read_grid_rows(tmp_path / "g.csv")
    assert cells[(0.25, 2920.0, 0.2, None)]["norm_flex"] == 0.73125
    assert cells[(0.25, 2920.0, 0.2, None)]["mean_flex_kw"] == 2.0


def test_grid_csv_lists_each_flexibility_cell_before_its_cost_cells(tmp_path):
    grid = one_cell_grid(0.5)
    flex = grid.cells[CellKey(0.25, 2920.0, 0.2)]
    for frac in (1.0, 0.0):
        cost = replace(flex, flex_fraction=frac, acof=0.25 + frac, apcof=0.25, aecof=frac)
        grid.cells[CellKey(0.25, 2920.0, 0.2, frac)] = cost
    grid.cells[CellKey(0.25, 365.0, 0.2)] = replace(flex, annual_frequency=365.0)
    path = tmp_path / "g.csv"
    write_grid_csv(grid, path)
    keys = list(dict.fromkeys(tuple(line.split(",")[:4])
                              for line in path.read_text().splitlines()[1:]))
    assert keys == [("0.25", "365.0", "0.2", ""), ("0.25", "2920.0", "0.2", ""),
                    ("0.25", "2920.0", "0.2", "0.0"), ("0.25", "2920.0", "0.2", "1.0")]
    assert read_grid_rows(path) == {
        (k.duration_hours, k.annual_frequency, k.max_delay_frac, k.flex_fraction):
        cell.metrics() for k, cell in grid.cells.items()}


def test_multi_panel_and_missing_cells(tmp_path):
    cells = {}
    for delay in (0.1, 0.2):
        for dur, freq, value in ((0.25, 365.0, 0.2), (2.0, 365.0, 0.6)):
            key = CellKey(dur, freq, delay)
            cells[key] = CellResult(
                duration_hours=dur, annual_frequency=freq, max_delay_frac=delay,
                flex_fraction=None, mean_flex_kw=value, norm_flex=value,
                acof=None, apcof=None, aecof=None,
                windows_evaluated=2, degenerate=False, statuses=("optimal", "optimal"),
            )
    # drop one cell to exercise the n/a rendering
    del cells[CellKey(2.0, 365.0, 0.1)]
    grid = CampaignResult(kind="flexmax", config={}, cells=cells)
    written = heatmap_export(grid, "norm_flex", tmp_path / "multi")
    svgs = [p for p in written if p.suffix == ".svg"]
    assert len(svgs) == 2
    assert "n/a" in (tmp_path / "multi_norm_flex_delay0.1.svg").read_text()


def test_one_panel_per_delay_and_fraction_of_the_grid(tmp_path):
    cells = {}
    for frac, acof in ((None, None), (0.5, 0.4), (1.0, 0.6)):
        key = CellKey(0.25, 365.0, 0.1, frac)
        cells[key] = CellResult(
            duration_hours=0.25, annual_frequency=365.0, max_delay_frac=0.1,
            flex_fraction=frac, mean_flex_kw=1.0, norm_flex=0.1,
            acof=acof, apcof=acof, aecof=None if acof is None else 0.0,
            windows_evaluated=1, degenerate=False, statuses=("optimal",),
        )
    grid = CampaignResult(kind="costmin", config={}, cells=cells)

    def names(written):
        return [p.name for p in written if p.suffix == ".svg"]
    assert names(heatmap_export(grid, "norm_flex", tmp_path / "m")) == [
        "m_norm_flex_delay0.1.svg", "m_norm_flex_delay0.1_frac0.5.svg",
        "m_norm_flex_delay0.1_frac1.svg"]
    # flexibility cells carry no cost, so they get no cost panel
    assert names(heatmap_export(grid, "acof", tmp_path / "m")) == [
        "m_acof_delay0.1_frac0.5.svg", "m_acof_delay0.1_frac1.svg"]
    with pytest.raises(ValueError, match="no cell with acof"):
        heatmap_export(one_cell_grid(), "acof", tmp_path / "flex")


def test_unknown_metric(tmp_path):
    with pytest.raises(ValueError, match="unknown metric"):
        heatmap_export(one_cell_grid(), "sparkle", tmp_path / "x")


def test_empty_grid(tmp_path):
    empty = CampaignResult(kind="flexmax", config={}, cells={})
    with pytest.raises(ValueError, match="empty"):
        heatmap_export(empty, "norm_flex", tmp_path / "x")
