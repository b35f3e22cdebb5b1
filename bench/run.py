"""Benchmark of the dcflex flexibility LP, cost MILP and trace preparation.

    python3 bench/run.py --workload flex_grid --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's traces are generated from --seed (and cached
under bench/.cache), loaded through dcflex.ingest as the CLI loads them,
and the workload's campaign calls are repeated in whole rounds until
--seconds have passed. Every round's campaign JSON is checked and must
be byte-identical to the first round's.

With --trace 0 the last line of output reports setup_s, run_s and
peak_rss_mb; with --trace 1 it reports per-layer metrics from spans
recorded around the calls into each layer. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from loading import SRC, fingerprint, load_inputs, no_span

BENCH = Path(__file__).resolve().parent
CACHE = BENCH / ".cache"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
MASTER_SEED = 7
HORIZON_DAYS = 10


@dataclass(frozen=True)
class Campaign:
    """One campaign call of a workload round and the JSON file it writes."""

    name: str
    trace: str
    services: tuple  # (duration hours, annual frequency) pairs
    delays: tuple
    fractions: tuple = ()  # empty: a flexibility campaign
    quota: float | None = None  # dynamic-quota speed-up K, None: off
    flex: str | None = None  # the flexibility campaign a cost campaign matches
    resources: float = 100.0
    device_class: str = "cpu_general"


WORKLOADS = {
    # LPs only: cheap delay-0.0 and delay-0.1 LPs and the harder delay-0.5
    # ones, on both profiles; no MILP.
    "flex_grid": (
        Campaign("ai_like_flex", "ai_like", ((0.25, 365.0),), (0.0, 0.1, 0.5),
                 device_class="gpu_ai"),
        Campaign("general_like_flex", "general_like", ((0.25, 365.0),), (0.0, 0.1, 0.5)),
    ),
    # The CLI pair of a flexibility campaign and a cost campaign over the
    # same cells, once without and once under dynamic quota (K = 0.5).
    "cost_grid": (
        Campaign("flex", "general_like", ((0.25, 365.0),), (0.1,)),
        Campaign("cost", "general_like", ((0.25, 365.0),), (0.1,), fractions=(1.0,),
                 flex="flex"),
        Campaign("quota_flex", "general_like", ((0.25, 365.0),), (0.1,), quota=0.5),
        Campaign("quota_cost", "general_like", ((0.25, 365.0),), (0.1,), fractions=(0.9, 1.0),
                 quota=0.5, flex="quota_flex"),
    ),
    # A 60-day window of a merged many-sub-cluster trace: ingest and the
    # k-means aggregation do real work; the LPs are cheap ones.
    "trace_prep": (
        Campaign("merged_flex", "merged", ((0.25, 365.0),), (0.0, 0.1), resources=4000.0),
    ),
}


def _spec(c: Campaign):
    from dcflex import DataCenterSpec
    from dcflex.model import default_preempt_overhead_min

    return DataCenterSpec(total_resources=c.resources, device_class=c.device_class,
                          preempt_overhead_min=default_preempt_overhead_min(c.device_class))


def run_round(campaigns, loaded: dict, out_dir: Path, span) -> None:
    """Every campaign call of one round, each followed by its JSON export."""
    from dcflex import (NO_DQ, DqParams, EconParams, ServiceSpec, SolverBackend,
                        run_costmin_campaign, run_flexmax_campaign)

    # no solve comes near the limit: the largest MILP takes about a second
    backend = SolverBackend(mip_rel_gap=checks.MAX_GAP, time_limit_s=60.0)
    for c in campaigns:
        grid, table = loaded[c.trace]["grid"], loaded[c.trace]["table"]
        services = [ServiceSpec.from_requirements(d, f, grid) for d, f in c.services]
        dq = NO_DQ if c.quota is None else DqParams(enabled=True, speedup=c.quota)
        with span("campaign.run", campaign=c.name):
            if c.fractions:
                result = run_costmin_campaign(table, _spec(c), EconParams(), grid, services,
                                              c.delays, c.fractions, dq=dq,
                                              master_seed=MASTER_SEED, backend=backend,
                                              n_workers=1)
            else:
                result = run_flexmax_campaign(table, _spec(c), grid, services, c.delays,
                                              dq=dq, master_seed=MASTER_SEED,
                                              backend=backend, n_workers=1)
        path = out_dir / f"{c.name}.json"
        with span("campaign.export") as attrs:
            result.write_json(path)
            attrs["bytes"] = path.stat().st_size


def check_round(campaigns, payloads: dict, horizons: dict) -> tuple:
    """(operations attempted, operations failed, failure messages) of one round."""
    attempted = failed = 0
    messages = []
    for c in campaigns:
        payload, n_h = payloads[c.name], horizons[c.trace]
        failures = checks.campaign_failures(payload, n_h)
        if c.fractions:
            failures += checks.cost_failures(payload, payloads[c.flex], c.quota is not None)
        attempted += len(payload["cells"]) * n_h
        failed += checks.failed_operations(failures, n_h)
        messages += [f"{c.name} {key}: {msg}" for key, _, msg in failures]
    return attempted, failed, messages


def ensure_inputs(workload: str, seed: int) -> Path:
    directory = CACHE / f"{workload}-seed{seed}"
    if not (directory / "manifest.json").is_file():
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), workload, str(seed),
                        str(directory)], check=True)
    return directory


def setup_seconds(directory: Path, expect: str) -> list:
    """Fresh-interpreter times until the inputs are loaded, one per probe."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "loading.py"), str(directory)],
                              stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line != expect:
            raise RuntimeError(f"setup probe loaded {line!r}, expected {expect!r}")
    return samples


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dcflex" / "__init__.py").is_file():
        print(f"error: no dcflex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcflex
    if SRC not in Path(dcflex.__file__).resolve().parents:
        print(f"error: imported dcflex from {dcflex.__file__}, not {SRC}", file=sys.stderr)
        return 2

    campaigns = WORKLOADS[args.workload]
    directory = ensure_inputs(args.workload, args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    span = no_span
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        span = tracer.span
    manifest, loaded = load_inputs(directory, span)
    setup = [] if tracer else setup_seconds(directory, fingerprint(loaded))

    # faults outside any one campaign cell spoil every operation of a round
    global_errors = []
    for name, trace in manifest["traces"].items():
        global_errors += [f"{name}: {m}" for m in checks.ingest_failures(
            loaded[name]["parsed"], loaded[name]["selected"], trace)]
    horizons = {name: trace["window_days"] // HORIZON_DAYS
                for name, trace in manifest["traces"].items()}

    ingest_spans = tracer.spans if tracer else []
    round_spans, round_s, messages = [], [], []
    digests = None
    attempted = failed = 0
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            if tracer:
                tracer.spans = []
            t0 = time.perf_counter()
            run_round(campaigns, loaded, out_dir, span)
            round_s.append(time.perf_counter() - t0)
            if tracer:
                round_spans.append(tracer.spans)
            raw = {c.name: (out_dir / f"{c.name}.json").read_bytes() for c in campaigns}
            n, bad, found = check_round(campaigns, {k: json.loads(v) for k, v in raw.items()},
                                        horizons)
            round_digests = {k: hashlib.sha256(v).hexdigest() for k, v in raw.items()}
            if digests is None:
                digests = round_digests
            elif round_digests != digests:
                global_errors.append(f"round {len(round_s)} JSON differs from round 1")
            if global_errors or (tracer and tracer.faults):
                bad = n
            attempted += n
            failed += bad
            messages += [m for m in found if m not in messages]
            if time.perf_counter() - start >= args.seconds:
                break

    for name, digest in sorted(digests.items()):
        print(f"{name}.json sha256 {digest}")
    print(f"rounds {len(round_s)}: " + " ".join(f"{s:.3f}" for s in round_s) + " s")
    faults = global_errors + messages + (tracer.faults if tracer else [])
    for message in faults:
        print(f"FAIL {message}")

    if tracer:
        from tracing import ingest_metrics, layer_metrics, median_metrics
        values = ingest_metrics(ingest_spans)
        values.update(median_metrics([layer_metrics(spans) for spans in round_spans]))
        values["traced.run_s"] = statistics.median(round_s)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "correct": not faults and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
