"""In-memory spans around the calls into each dcflex layer.

A span is (name, start, end, parent, attrs). The tracer wraps, for the
duration of a traced run, the names that ``dcflex.campaign`` imports and
``milp`` as the solve module imports it, so spans nest the way the calls
do: campaign -> build/solve -> milp. The program itself is not changed.
A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# name in dcflex.campaign -> span name
CAMPAIGN_NAMES = {
    "partition_to_horizon": "preprocess.partition",
    "aggregate_daily": "preprocess.aggregate",
    "baseline_profile": "preprocess.baseline",
    "sample_activations": "campaign.activations",
    "build_flexmax": "problem.build_flexmax",
    "build_costmin": "problem.build_costmin",
    "solve": "solve.solve",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self._stack = []
        self.faults = []  # violated invariants seen inside wrapped calls

    @contextmanager
    def span(self, name, **attrs):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(attrs, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap the campaign's layer calls and the solver call while active."""
        campaign = sys.modules["dcflex.campaign"]
        solve_module = sys.modules["dcflex.solve"]
        observers = {
            "aggregate_daily": self._observe_aggregate,
            "build_flexmax": _observe_build,
            "build_costmin": _observe_build,
            "solve": _observe_solve,
        }
        patched = []
        for attr, span_name in CAMPAIGN_NAMES.items():
            fn = getattr(campaign, attr, None)
            if fn is not None:  # a name the campaign no longer calls reports zero calls
                patched.append((campaign, attr, fn))
                setattr(campaign, attr, self.wrap(span_name, fn, observers.get(attr)))
        milp = getattr(solve_module, "milp", None)
        if milp is not None:
            patched.append((solve_module, "milp", milp))
            solve_module.milp = self.wrap("solve.milp", milp, _observe_milp)
        try:
            yield self
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def _observe_aggregate(self, attrs, args, kwargs, result):
        table, grid = args[0], args[1]
        clusters = args[2] if len(args) > 2 else kwargs.get("clusters_per_day", 100)
        attrs["jobs_in"], attrs["jobs_out"] = len(table), len(result)
        before, after = table.workload(), result.workload()
        if abs(after - before) > 1e-9 * abs(before):
            self.faults.append(f"aggregate_daily changed workload {before!r} -> {after!r}")
        if len(result):
            per_day = np.bincount((result.submit_step - 1) // grid.steps_per_day)
            if per_day.max() > clusters:
                self.faults.append(f"aggregate_daily kept {int(per_day.max())} jobs "
                                   f"in one day, limit {clusters}")


def _observe_build(attrs, args, kwargs, result):
    attrs["nnz"] = int(result.a_matrix.nnz)


def _observe_solve(attrs, args, kwargs, result):
    attrs["mip"] = args[0].n_binary > 0


def _observe_milp(attrs, args, kwargs, result):
    integrality = kwargs.get("integrality")
    attrs["mip"] = integrality is not None and bool(np.any(integrality))
    attrs["nodes"] = int(getattr(result, "mip_node_count", 0) or 0)


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer totals of one round's spans, keyed by metric name."""
    own = _self_times(spans)
    m = {
        "preprocess.partition_s": 0.0, "preprocess.aggregate_s": 0.0,
        "preprocess.aggregate_jobs_in": 0, "preprocess.aggregate_jobs_out": 0,
        "preprocess.baseline_s": 0.0,
        "problem.flexmax_build_s": 0.0, "problem.flexmax_builds": 0,
        "problem.costmin_build_s": 0.0, "problem.costmin_builds": 0, "problem.max_nnz": 0,
        "solve.lp_calls": 0, "solve.lp_s": 0.0, "solve.lp_max_s": 0.0,
        "solve.milp_calls": 0, "solve.milp_s": 0.0, "solve.milp_max_s": 0.0,
        "solve.milp_nodes": 0, "solve.highs_s": 0.0, "solve.decode_s": 0.0,
        "campaign.self_s": 0.0, "campaign.activations_s": 0.0,
        "campaign.export_s": 0.0, "campaign.json_bytes": 0,
    }
    for (name, start, end, _, attrs), self_s in zip(spans, own):
        dur = end - start
        if name == "preprocess.partition":
            m["preprocess.partition_s"] += dur
        elif name == "preprocess.aggregate":
            m["preprocess.aggregate_s"] += dur
            m["preprocess.aggregate_jobs_in"] += attrs.get("jobs_in", 0)
            m["preprocess.aggregate_jobs_out"] += attrs.get("jobs_out", 0)
        elif name == "preprocess.baseline":
            m["preprocess.baseline_s"] += dur
        elif name in ("problem.build_flexmax", "problem.build_costmin"):
            kind = "flexmax" if name.endswith("flexmax") else "costmin"
            m[f"problem.{kind}_build_s"] += dur
            m[f"problem.{kind}_builds"] += 1
            m["problem.max_nnz"] = max(m["problem.max_nnz"], attrs.get("nnz", 0))
        elif name == "solve.solve":
            kind = "milp" if attrs.get("mip") else "lp"
            m[f"solve.{kind}_calls"] += 1
            m[f"solve.{kind}_s"] += dur
            m[f"solve.{kind}_max_s"] = max(m[f"solve.{kind}_max_s"], dur)
            m["solve.decode_s"] += self_s
        elif name == "solve.milp":
            m["solve.highs_s"] += dur
            m["solve.milp_nodes"] += attrs.get("nodes", 0)
        elif name == "campaign.activations":
            m["campaign.activations_s"] += dur
        elif name == "campaign.run":
            m["campaign.self_s"] += self_s
        elif name == "campaign.export":
            m["campaign.export_s"] += dur
            m["campaign.json_bytes"] += attrs.get("bytes", 0)
    return m


def median_metrics(rounds) -> dict:
    """Median of each metric over rounds (counts repeat exactly)."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def ingest_metrics(spans) -> dict:
    """Ingest and discretize totals of the spans recorded while loading."""
    parse = sum(s[2] - s[1] for s in spans if s[0] == "ingest.parse")
    rows = sum(s[4].get("rows", 0) for s in spans if s[0] == "ingest.parse")
    return {
        "ingest.parse_s": parse,
        "ingest.rows_per_s": rows / parse,
        "ingest.select_window_s": sum(s[2] - s[1] for s in spans
                                      if s[0] == "ingest.select_window"),
        "preprocess.discretize_s": sum(s[2] - s[1] for s in spans
                                       if s[0] == "preprocess.discretize"),
    }
