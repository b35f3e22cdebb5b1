"""Campaign grid exports: long-form CSV plus standalone SVG heatmaps.

The long-form grid CSV is written by write_grid_csv: one row per cell and
metric, cells in CellKey.sort_key order.

SVGs are emitted by hand (rectangles and text, no plotting dependency).
Each heatmap panel covers one (delay limit, flexibility fraction) pair of
the grid with duration rows, frequency columns, a linear min-to-max color
scale and a min/max/mean annotation. Flexibility cells (fraction None)
carry no cost, so a cost metric gets panels only for the cost cells.
"""

from __future__ import annotations

from pathlib import Path

from .campaign import CampaignResult, CellKey
from .ingest import write_rows

CELL_W = 92
CELL_H = 46
MARGIN_LEFT = 110
MARGIN_TOP = 78
MARGIN_BOTTOM = 46
MARGIN_RIGHT = 24

_COST_METRICS = ("acof", "apcof", "aecof")
_METRICS = ("mean_flex_kw", "norm_flex") + _COST_METRICS

#: Long-form grid CSV header, in file order: one row per cell and metric.
GRID_CSV_COLUMNS = ("duration_hours", "annual_frequency", "max_delay", "flex_fraction",
                    "metric", "value")


def _color(frac: float) -> str:
    """Linear white-to-dark-blue scale."""
    lo = (247, 251, 255)
    hi = (8, 48, 107)
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(lo, hi))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _text_color(frac: float) -> str:
    return "#000000" if frac < 0.55 else "#ffffff"


def _fmt_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.2e}"
    return f"{value:.4g}"


def _panel_svg(title: str, durations, frequencies, values: dict) -> str:
    width = MARGIN_LEFT + CELL_W * len(frequencies) + MARGIN_RIGHT
    height = MARGIN_TOP + CELL_H * len(durations) + MARGIN_BOTTOM
    present = [v for v in values.values() if v is not None]
    vmin = min(present) if present else 0.0
    vmax = max(present) if present else 0.0
    vmean = sum(present) / len(present) if present else 0.0
    span = vmax - vmin

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="24" font-size="15" font-weight="bold">{title}</text>',
        f'<text x="{MARGIN_LEFT}" y="44" font-size="12">Frequency (times/year)</text>',
        f'<text x="16" y="{MARGIN_TOP - 10}" font-size="12">Duration (hours)</text>',
    ]
    for c, freq in enumerate(frequencies):
        x = MARGIN_LEFT + c * CELL_W + CELL_W / 2
        parts.append(
            f'<text x="{x}" y="{MARGIN_TOP - 8}" font-size="12" '
            f'text-anchor="middle">{freq:g}</text>'
        )
    for r, dur in enumerate(durations):
        y = MARGIN_TOP + r * CELL_H + CELL_H / 2 + 4
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y}" font-size="12" '
            f'text-anchor="end">{dur:g}</text>'
        )
    for r, dur in enumerate(durations):
        for c, freq in enumerate(frequencies):
            x = MARGIN_LEFT + c * CELL_W
            y = MARGIN_TOP + r * CELL_H
            value = values.get((dur, freq))
            if value is None:
                fill, label, tcol = "#d9d9d9", "n/a", "#000000"
            else:
                frac = 0.5 if span == 0 else (value - vmin) / span
                fill, label, tcol = _color(frac), _fmt_value(value), _text_color(frac)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_W}" height="{CELL_H}" '
                f'fill="{fill}" stroke="#666666" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{x + CELL_W / 2}" y="{y + CELL_H / 2 + 4}" font-size="12" '
                f'text-anchor="middle" fill="{tcol}">{label}</text>'
            )
    note_y = MARGIN_TOP + CELL_H * len(durations) + 26
    parts.append(
        f'<text x="{MARGIN_LEFT}" y="{note_y}" font-size="12">'
        f'min={_fmt_value(vmin)}  max={_fmt_value(vmax)}  mean={_fmt_value(vmean)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_export(grid: CampaignResult, metric: str, out_prefix) -> list:
    """Write the grid CSV and one SVG heatmap per (delay, fraction) panel.

    Returns the list of written paths. Unknown metrics raise ValueError.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose one of {_METRICS}")
    panels = sorted({(k.max_delay_frac, k.flex_fraction) for k in grid.cells
                     if k.flex_fraction is not None or metric not in _COST_METRICS},
                    key=lambda p: (p[0], -1.0 if p[1] is None else p[1]))
    if not panels:
        raise ValueError(f"nothing to draw: the grid is empty or has no cell with {metric}")
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out_prefix.with_name(out_prefix.name + ".csv")
    write_grid_csv(grid, csv_path)
    written.append(csv_path)

    durations = sorted({k.duration_hours for k in grid.cells})
    frequencies = sorted({k.annual_frequency for k in grid.cells})

    for delay, frac in panels:
        values = {}
        for key, cell in grid.cells.items():
            if key.max_delay_frac != delay or key.flex_fraction != frac:
                continue
            values[(key.duration_hours, key.annual_frequency)] = getattr(cell, metric)
        title = f"{metric} (max delay {delay:g}"
        name = f"{out_prefix.name}_{metric}_delay{delay:g}"
        if frac is not None:
            title += f", fraction {frac:g}"
            name += f"_frac{frac:g}"
        title += ")"
        svg_path = out_prefix.with_name(name + ".svg")
        svg_path.write_text(_panel_svg(title, durations, frequencies, values))
        written.append(svg_path)
    return written


def write_grid_csv(grid: CampaignResult, path) -> None:
    """Long-form CSV of every cell's metrics, cells in CellKey.sort_key order."""
    write_rows(path, GRID_CSV_COLUMNS, (
        (repr(key.duration_hours), repr(key.annual_frequency), repr(key.max_delay_frac),
         "" if key.flex_fraction is None else repr(key.flex_fraction), metric,
         repr(float(value)))
        for key in sorted(grid.cells, key=CellKey.sort_key)
        for metric, value in grid.cells[key].metrics().items()))
