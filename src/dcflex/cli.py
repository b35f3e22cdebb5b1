"""Command-line entry point.

Subcommands: ingest, preprocess, campaign, csf, scale, profit, report,
synth. One campaign run writes the flexibility cells (fraction ``none``)
and the cost cells (numeric fractions) of its grid, solving each
flexibility LP once. Every run resolves one configuration through
``config.load_config``: defaults, an optional --config INI file, DCFLEX_*
environment overrides and the campaign flags, whose argparse dests are
their ``[campaign]`` keys. Commands read only that configuration, and it
is echoed into the output artifact (JSON outputs embed it; CSV/SVG
outputs get a sibling ``<out>.run.json``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import config as cfg
from .campaign import CampaignResult, run_campaign, service_grid
from .ingest import (
    CLOUD_OPTION_COLUMNS,
    IngestError,
    json_text,
    parse_cloud_pricing,
    parse_job_trace,
    parse_price_series,
    select_window,
    write_job_trace,
    write_price_series,
    write_rows,
)
from .market import (
    DEFAULT_PERCENTILES,
    format_profitability_text,
    price_percentile_table,
    profitability_report,
)
from .model import EconParams, TimeGrid
from .preprocess import discretize, write_job_table, zero_queue
from .problem import DqParams
from .report import heatmap_export
from .scaling import (
    estimate_csf_samples,
    percentile,
    scale_acof_dq,
    scale_flex_kw,
    scale_flex_norm,
    write_csf_samples,
)
from .solve import SolverBackend
from .synth import generate_synthetic_trace


def _echo_config(config: dict, out_path) -> None:
    Path(str(out_path) + ".run.json").write_text(json_text({"resolved_config": config}))


def _prepare_jobs(args, config):
    grid = cfg.grid_from_config(config)
    raw = parse_job_trace(args.trace)
    if getattr(args, "days", None):
        raw = select_window(raw, args.days, grid)
    if raw.span is not None:
        lo, hi = raw.span
        start = raw.start.clip(lo, hi)
        end = raw.end.clip(lo, hi)
        raw = type(raw)(ids=raw.ids, submit=start, start=start, end=end,
                        resources=raw.resources, dropped=raw.dropped, span=raw.span)
        origin = lo
    else:
        origin = math.floor(float(raw.start.min()) / grid.step_seconds) * grid.step_seconds
    grid = TimeGrid(grid.step_minutes, grid.steps, origin)
    table = discretize(zero_queue(raw), grid)
    return table, grid


def _cmd_synth(args, config):
    table = generate_synthetic_trace(
        args.profile, args.days, args.seed, spec=cfg.spec_from_config(config))
    write_job_trace(table, args.out)
    _echo_config(config, args.out)
    print(f"wrote {len(table)} jobs to {args.out}")
    return 0


def _cmd_ingest(args, config):
    if args.trace is not None:
        table = parse_job_trace(args.trace)
        write_job_trace(table, args.out)
        print(f"{len(table)} rows kept, {table.dropped} dropped -> {args.out}")
    elif args.pricing is not None:
        options = parse_cloud_pricing(args.pricing)
        write_rows(args.out, CLOUD_OPTION_COLUMNS, (
            (o.provider, o.device_type, o.model, repr(o.unit_count), repr(o.unit_price),
             repr(o.unit_power_w), repr(o.speed), int(o.estimated_flag))
            for o in options.options))
        print(f"{len(options)} options kept, {options.dropped} dropped -> {args.out}")
    else:
        series = parse_price_series(
            args.prices, market=args.market,
            conversion_rate=config["ingest"]["currency_rate"],
        )
        write_price_series(series, args.out)
        print(f"{len(series)} samples -> {args.out}")
    _echo_config(config, args.out)
    return 0


def _cmd_preprocess(args, config):
    table, grid = _prepare_jobs(args, config)
    write_job_table(table, args.out)
    _echo_config(config, args.out)
    print(f"{len(table)} discretized jobs -> {args.out}")
    return 0


def _cmd_campaign(args, config):
    table, grid = _prepare_jobs(args, config)
    campaign = config["campaign"]
    services = service_grid(cfg.parse_float_list(campaign["durations_hours"]),
                            cfg.parse_float_list(campaign["frequencies"]), grid)
    result = run_campaign(
        table, cfg.spec_from_config(config), EconParams(**config["econ"]), grid, services,
        cfg.parse_float_list(campaign["delays"]), cfg.parse_fractions(campaign["fractions"]),
        dq=DqParams(**config["dq"]),
        master_seed=campaign["master_seed"],
        backend=SolverBackend(**config["solver"]),
        clusters_per_day=campaign["clusters_per_day"],
        n_workers=cfg.resolve_workers(campaign["workers"]),
    )
    result.config["toolkit"] = config
    result.write_json(args.out)
    print(f"campaign grid with {len(result.cells)} cells -> {args.out}")
    return 0


def _cmd_csf(args, config):
    options = parse_cloud_pricing(args.pricing)
    if args.device != "both":
        options = options.of_type(args.device)
    # relative to the economics and unit power a campaign is solved at
    samples = estimate_csf_samples(options, EconParams(**config["econ"]),
                                   config["datacenter"]["unit_power_kw"])
    write_csf_samples(samples, args.out)
    _echo_config(config, args.out)
    percentiles = cfg.parse_float_list(args.percentiles)
    table = {}
    for device in sorted({s.device_type for s in samples}):
        values = [s.csf for s in samples if s.device_type == device]
        table[device] = {repr(p): percentile(values, p) for p in percentiles}
        cols = "  ".join(f"P{p:g}={percentile(values, p):.2f}" for p in percentiles)
        print(f"{device}: {len(values)} samples  {cols}")
    if args.summary:
        Path(args.summary).write_text(json_text(
            {"percentiles": table, "samples": len(samples), "resolved_config": config}))
    return 0


def _cmd_scale(args, config):
    result = CampaignResult.read_json(args.grid)
    original = result.config
    nominal_dc = original.get("datacenter", {})
    if nominal_dc.get("fixed_power_kw", 0.0) != 0.0:
        raise ValueError("grid was not solved with zero fixed power; cannot scale")
    nominal_econ = EconParams(**original.get("econ", {}))
    nominal_g = nominal_dc.get("unit_power_kw", 1.0)
    target_nr = args.NR if args.NR is not None else nominal_dc.get("total_resources", 1.0)
    pi = args.pi if args.pi is not None else nominal_econ.energy_price
    for cell in result.cells.values():
        if cell.norm_flex is None:
            continue
        nominal_norm = cell.norm_flex
        cell.norm_flex = scale_flex_norm(nominal_norm, args.G, target_nr, args.G0)
        cell.mean_flex_kw = scale_flex_kw(nominal_norm, args.G, target_nr)
        if cell.apcof is not None:
            cell.apcof, cell.aecof = scale_acof_dq(cell.apcof, cell.aecof, args.A, args.R,
                                                   args.G, pi, nominal_econ, nominal_g)
            cell.acof = cell.apcof + cell.aecof
    result.config = dict(original)
    result.config["scaled_to"] = {
        "price_reduction_coeff": args.A, "hourly_unit_price": args.R,
        "unit_power_kw": args.G, "fixed_power_kw": args.G0,
        "total_resources": target_nr, "energy_price": pi,
    }
    result.config["toolkit"] = config
    result.write_json(args.out)
    print(f"rescaled grid -> {args.out}")
    return 0


def _cmd_profit(args, config):
    result = CampaignResult.read_json(args.grid)
    paths = [p for p in str(args.prices).split(",") if p]
    markets = [m for m in (args.markets or "").split(",") if m]
    series = []
    for i, path in enumerate(paths):
        market = markets[i] if i < len(markets) else None
        series.append(parse_price_series(
            path, market=market, conversion_rate=config["ingest"]["currency_rate"]))
    percentiles = (cfg.parse_float_list(args.percentiles) if args.percentiles
                   else DEFAULT_PERCENTILES)
    table = price_percentile_table(series, percentiles)
    report = profitability_report(result, table)
    report["resolved_config"] = config
    Path(args.out).write_text(json_text(report))
    text = format_profitability_text(report)
    if args.text:
        Path(args.text).write_text(text)
    else:
        print(text, end="")
    print(f"profitability report -> {args.out}")
    return 0


def _cmd_report(args, config):
    result = CampaignResult.read_json(args.grid)
    metric = args.metric or ("acof" if result.kind == "costmin" else "norm_flex")
    written = heatmap_export(result, metric, args.out_prefix)
    _echo_config(config, args.out_prefix)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcflex",
        description="Data-center power flexibility and cost-of-flexibility toolkit",
    )
    parser.add_argument("--config", help="INI configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic job trace")
    p.add_argument("--profile", required=True, choices=("ai_like", "general_like"))
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse and normalize input files")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace")
    source.add_argument("--pricing")
    source.add_argument("--prices")
    p.add_argument("--market")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("preprocess", help="discretize a trace onto the grid")
    p.add_argument("--trace", required=True)
    p.add_argument("--days", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("campaign", help="solve the flexibility and cost cells of a grid")
    p.add_argument("--trace", required=True)
    p.add_argument("--days", type=int)
    p.add_argument("--duration", "--durations", dest="durations_hours")
    p.add_argument("--freq", "--freqs", dest="frequencies")
    p.add_argument("--max-delay", "--delays", dest="delays")
    p.add_argument("--fractions", help="comma list; none is the flexibility cell")
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("csf", help="estimate cost scaling factors from pricing data")
    p.add_argument("action", choices=("estimate",))
    p.add_argument("--pricing", required=True)
    p.add_argument("--device", default="both", choices=("cpu", "gpu", "both"))
    p.add_argument("--percentiles", default="25,50,75")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.set_defaults(func=_cmd_csf)

    p = sub.add_parser("scale", help="rescale a nominal grid to other parameters")
    p.add_argument("--grid", required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--G", type=float, required=True)
    p.add_argument("--G0", type=float, default=0.0)
    p.add_argument("--NR", type=float)
    p.add_argument("--pi", type=float, help="energy price; default: the grid's own")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("profit", help="compare a cost grid against market prices")
    p.add_argument("--grid", required=True)
    p.add_argument("--prices", required=True, help="comma-separated price CSVs")
    p.add_argument("--markets", help="comma-separated market names")
    p.add_argument("--percentiles")
    p.add_argument("--out", required=True)
    p.add_argument("--text")
    p.set_defaults(func=_cmd_profit)

    p = sub.add_parser("report", help="emit grid CSV and SVG heatmaps")
    p.add_argument("--grid", required=True)
    p.add_argument("--metric")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = cfg.load_config(args.config, {
            ("campaign", key): value for key, value in vars(args).items()
            if key in cfg.DEFAULTS["campaign"]})
        return args.func(args, config)
    except (IngestError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
