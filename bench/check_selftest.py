"""Feed the benchmark's output checks corrupted results; each must fail.

    python3 bench/check_selftest.py

A consistent flexibility grid and cost grid, built with dcflex's own
result classes and exported through its JSON form, must pass every check.
Each corruption below must then be reported, with the (horizon, cell)
operations it spoils counted as failed. Exits 1 if any check misses.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from dcflex import CampaignResult, CellKey, CellResult, RawJobTable  # noqa: E402

HORIZONS = 4


def _cell(delay, flex, fraction=None, apcof=None, aecof=None):
    return CellResult(
        duration_hours=0.25, annual_frequency=365.0, max_delay_frac=delay,
        flex_fraction=fraction, mean_flex_kw=flex, norm_flex=flex / 100.0,
        acof=None if apcof is None else apcof + aecof, apcof=apcof, aecof=aecof,
        windows_evaluated=HORIZONS, degenerate=False, statuses=("optimal",) * HORIZONS,
        gaps=() if fraction is None else (0.0,) * HORIZONS)


def _payload(kind, cells):
    return CampaignResult(kind=kind, config={}, cells={
        CellKey(c.duration_hours, c.annual_frequency, c.max_delay_frac, c.flex_fraction): c
        for c in cells}).to_json_dict()


def main() -> int:
    flex = _payload("flexmax", [_cell(0.0, 0.0), _cell(0.1, 40.0)])
    cost = _payload("costmin", [_cell(0.1, 40.0, 1.0, apcof=0.75, aecof=0.0),
                                _cell(0.1, 20.0, 0.5, apcof=0.6, aecof=0.0)])
    trace = {"valid_rows": 3, "malformed_rows": 2, "window_days": 40, "select_window": False}
    parsed = RawJobTable(ids=["a", "b", "c"], submit=[0, 0, 0], start=[0, 0, 0],
                         end=[900, 900, 900], resources=[1, 1, 1], dropped=2)

    def flex_ops(payload):
        return checks.failed_operations(checks.campaign_failures(payload, HORIZONS), HORIZONS)

    def cost_ops(payload):
        failures = checks.campaign_failures(payload, HORIZONS) + checks.cost_failures(
            payload, flex, quota=False)
        return checks.failed_operations(failures, HORIZONS)

    results = [("consistent results pass",
                flex_ops(flex) == 0 and cost_ops(cost) == 0
                and not checks.ingest_failures(parsed, parsed, trace))]

    bad = copy.deepcopy(flex)
    bad["cells"]["dur0.25_freq365.0_delay0.0"]["mean_flex_kw"] = 1e-6
    results.append(("delay-0.0 cell with nonzero flexibility fails all its horizons",
                    flex_ops(bad) == HORIZONS))

    bad = copy.deepcopy(flex)
    bad["cells"]["dur0.25_freq365.0_delay0.1"]["statuses"][2] = "limit"
    results.append(("a limit status fails its one horizon", flex_ops(bad) == 1))

    bad = copy.deepcopy(cost)
    bad["cells"]["dur0.25_freq365.0_delay0.1_frac0.5"]["mean_flex_kw"] = 20.0 * (1 + 1e-6)
    results.append(("cost target off its fraction of the flexibility optimum fails",
                    cost_ops(bad) == HORIZONS))

    off_by_one = dict(trace, malformed_rows=trace["malformed_rows"] + 1)
    results.append(("dropped-row count off by one fails",
                     len(checks.ingest_failures(parsed, parsed, off_by_one)) == 1))

    for name, ok in results:
        print(f"{'ok  ' if ok else 'MISS'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
