"""Seeded input traces for the benchmark workloads, written as job trace CSVs.

Run as a script it generates one workload's inputs for one seed into a
directory and writes ``manifest.json`` there last, so a directory with a
manifest is complete and can be reused by later runs with the same seed:

    python3 bench/inputs.py <workload> <seed> <directory>

Generation runs in its own process so that its memory never shows in the
measured process's peak RSS.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dcflex import (  # noqa: E402
    DataCenterSpec,
    RawJobTable,
    TimeGrid,
    generate_synthetic_trace,
    write_job_trace,
)
from dcflex.ingest import JOB_TRACE_COLUMNS  # noqa: E402
from dcflex.synth import PROFILES  # noqa: E402

GRID = TimeGrid(step_minutes=15, steps=960)
UNIT_CAPACITY = 100.0  # resources of one synthetic (sub-)cluster
DAY_S = 86400.0

# flex_grid and cost_grid: a 40-day window of four whole horizons. The
# trace runs one day longer: on a trace exactly 40 days long the last job
# often completes a few steps before day 40 ends, horizon_count floors
# that, and the fourth horizon is dropped on some seeds and not on others.
WINDOW_DAYS = 40
PADDED_DAYS = 41
PROFILE_TRACES = {"flex_grid": ("ai_like", "general_like"), "cost_grid": ("general_like",)}

# trace_prep: SUBCLUSTERS general_like traces of SUB_DAYS days each, the
# i-th starting (i % STAGGER) days late, so the merged trace ramps up and
# down over its first and last days the way a partly recorded trace does,
# and select_window has low-load days to trim.
SUBCLUSTERS = 40
SUB_DAYS = 61
STAGGER = 4
PREP_DAYS = 60
# Malformed rows planted in the trace_prep CSV, one block per kind; each
# kind is a reason parse_job_trace documents for dropping a row.
MALFORMED_PER_KIND = 60
MALFORMED_KINDS = ("short_row", "non_numeric", "not_finite", "end_before_start",
                   "zero_resources")


def sub_seed(seed: int, *parts: int) -> int:
    """Independent integer seed for one input trace of a workload seed."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def _write_profile_trace(profile: str, seed: int, path: Path) -> int:
    spec = DataCenterSpec(total_resources=UNIT_CAPACITY)
    raw = generate_synthetic_trace(profile, PADDED_DAYS, seed, grid=GRID, spec=spec)
    write_job_trace(raw, path)
    return len(raw)


def _subcluster(args) -> RawJobTable:
    seed, index = args
    spec = DataCenterSpec(total_resources=UNIT_CAPACITY)
    return generate_synthetic_trace("general_like", SUB_DAYS, sub_seed(seed, 100, index),
                                    grid=GRID, spec=spec)


def _malformed_row(kind: str, rng: np.random.Generator, n: int) -> list:
    t = float(rng.integers(0, int(SUB_DAYS * DAY_S)))
    if kind == "short_row":
        return [f"bad{n:05d}", repr(t), repr(t)]
    if kind == "non_numeric":
        return [f"bad{n:05d}", repr(t), "n/a", repr(t + 3600.0), "8.0"]
    if kind == "not_finite":
        return [f"bad{n:05d}", repr(t), repr(t), "inf", "8.0"]
    if kind == "end_before_start":
        return [f"bad{n:05d}", repr(t), repr(t), repr(t - 900.0), "8.0"]
    return [f"bad{n:05d}", repr(t), repr(t), repr(t + 3600.0), "0.0"]


def _write_merged_trace(seed: int, path: Path) -> dict:
    # two workers: synth is a Python loop, ~0.4 s per sub-cluster
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        subs = list(pool.map(_subcluster, [(seed, i) for i in range(SUBCLUSTERS)]))
    rows = []
    for i, sub in enumerate(subs):
        shift = DAY_S * (i % STAGGER)
        for k in range(len(sub)):
            rows.append([f"c{i:02d}-{sub.ids[k]}", repr(float(sub.submit[k]) + shift),
                         repr(float(sub.start[k]) + shift), repr(float(sub.end[k]) + shift),
                         repr(float(sub.resources[k]))])
    rows.sort(key=lambda r: (float(r[2]), r[0]))
    valid = len(rows)
    rng = np.random.default_rng(sub_seed(seed, 200))
    bad = [_malformed_row(kind, rng, n)
           for n, kind in enumerate(k for k in MALFORMED_KINDS
                                    for _ in range(MALFORMED_PER_KIND))]
    positions = np.sort(rng.choice(valid + len(bad), size=len(bad), replace=False))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(JOB_TRACE_COLUMNS)
        it_good, it_bad, p = iter(rows), iter(bad), 0
        for n in range(valid + len(bad)):
            if p < len(positions) and positions[p] == n:
                writer.writerow(next(it_bad))
                p += 1
            else:
                writer.writerow(next(it_good))
    return {"valid_rows": valid, "malformed_rows": len(bad)}


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write one workload's traces for `seed` into `directory`; return the manifest.

    Each trace's entry says how many valid and malformed rows it holds,
    how many days its window spans and whether select_window picks it.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "traces": {}}
    if workload in PROFILE_TRACES:
        for profile in PROFILE_TRACES[workload]:
            path = directory / f"{profile}.csv"
            rows = _write_profile_trace(profile, sub_seed(seed, PROFILES.index(profile)), path)
            manifest["traces"][profile] = {"file": path.name, "valid_rows": rows,
                                           "malformed_rows": 0, "window_days": WINDOW_DAYS,
                                           "select_window": False}
    elif workload == "trace_prep":
        path = directory / "merged.csv"
        counts = _write_merged_trace(seed, path)
        manifest["traces"]["merged"] = {"file": path.name, **counts,
                                        "window_days": PREP_DAYS, "select_window": True}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tmp = directory / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(directory / "manifest.json")
    return manifest


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
