"""Load a workload's input traces the way the dcflex CLI does before a solve.

parse_job_trace, then select_window when the workload selects a window,
then clipping to the window, zero_queue and discretize onto a grid whose
origin is the window start (or the first job's step). Run as a script it
loads one manifest's traces in a fresh interpreter and prints one line as
soon as the inputs are loaded, which is what a CLI call pays before its
first solve:

    python3 bench/loading.py <input directory>
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STEP_MINUTES = 15.0
HORIZON_STEPS = 960


def no_span(name, **attrs):
    return contextlib.nullcontext(attrs)


def load_trace(path, window_days, span=no_span) -> dict:
    """Parsed, selected and discretized forms of one trace file."""
    from dcflex import TimeGrid, discretize, parse_job_trace, select_window, zero_queue

    grid = TimeGrid(STEP_MINUTES, HORIZON_STEPS)
    with span("ingest.parse") as attrs:
        parsed = parse_job_trace(path)
        attrs["rows"] = len(parsed) + parsed.dropped
    raw = parsed
    if window_days is not None:
        with span("ingest.select_window"):
            raw = select_window(parsed, window_days, grid)
    selected = raw
    if raw.span is not None:
        lo, hi = raw.span
        start, end = raw.start.clip(lo, hi), raw.end.clip(lo, hi)
        raw = type(raw)(ids=raw.ids, submit=start, start=start, end=end,
                        resources=raw.resources, dropped=raw.dropped, span=raw.span)
        origin = lo
    else:
        origin = math.floor(float(raw.start.min()) / grid.step_seconds) * grid.step_seconds
    grid = TimeGrid(STEP_MINUTES, HORIZON_STEPS, origin)
    with span("preprocess.discretize"):
        table = discretize(zero_queue(raw), grid)
    return {"parsed": parsed, "selected": selected, "table": table, "grid": grid}


def load_inputs(directory: Path, span=no_span) -> tuple:
    """The manifest and every loaded trace of one input directory."""
    manifest = json.loads((directory / "manifest.json").read_text())
    loaded = {name: load_trace(directory / trace["file"],
                               trace["window_days"] if trace["select_window"] else None, span)
              for name, trace in manifest["traces"].items()}
    return manifest, loaded


def fingerprint(loaded: dict) -> str:
    """Job counts and workloads, to check that two loads agree."""
    return " ".join(f"{name}:{len(d['table'])}:{d['table'].workload()!r}"
                    for name, d in sorted(loaded.items()))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    _, inputs = load_inputs(Path(sys.argv[1]))
    print(fingerprint(inputs), flush=True)
