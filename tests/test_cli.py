import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcflex
from dcflex import campaign
from dcflex.campaign import CampaignResult, CellKey, CellResult
from dcflex.cli import cli_main
from dcflex.config import load_config
from dcflex.ingest import CLOUD_OPTION_COLUMNS
from dcflex.model import EconParams, ServiceSpec, TimeGrid
from dcflex.scaling import scale_acof_dq
from test_campaign import _count_layer_calls

DATA = Path(__file__).parent / "data"
PACKAGE_ROOT = str(Path(dcflex.__file__).resolve().parent.parent)

TINY_CONFIG = """\
[grid]
horizon_steps = 4

[datacenter]
total_resources = 2.0
device_class = cpu_general

[campaign]
durations_hours = 0.25
frequencies = 2920
delays = 1.0
fractions = 1.0
"""


def write_tiny_trace(path):
    path.write_text(
        "id,submit_unix_s,start_unix_s,end_unix_s,resources\n"
        "a,0,0,1800,1\n"
        "b,0,0,1800,1\n"
    )


def seed_with_window_at_one():
    grid = TimeGrid(15, 4)
    svc = ServiceSpec.from_requirements(0.25, 2920.0, grid)
    for seed in range(200):
        if campaign._cell_plan(grid, svc, 1, seed).windows == ((1, 1),):
            return seed
    raise AssertionError("no suitable seed found")


def test_usage_errors():
    assert cli_main(["definitely-not-a-command"]) == 2
    assert cli_main([]) == 2


def test_missing_file_is_reported(tmp_path, capsys):
    rc = cli_main(["preprocess", "--trace", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ini, message", [
    ("[nonsense]\nkey = 1\n", "unknown config section [nonsense]"),
    ("[grid]\nnonsense = 1\n", "unknown config key 'nonsense' in [grid]"),
    # keys that changed no result: each cell sets its own delay, csf reads
    # [econ] and [datacenter], and price series are in USD
    ("[datacenter]\nmax_delay_frac = 0.3\n",
     "unknown config key 'max_delay_frac' in [datacenter]"),
    ("[nominal]\nenergy_price = 0.1\n", "unknown config section [nominal]"),
    ("[ingest]\ncurrency = GBP\n", "unknown config key 'currency' in [ingest]"),
    # clusters_per_day = 0 turns aggregation off; window selection trims at
    # half the daily mean and takes 40, 60 or 80 days
    ("[campaign]\naggregate = false\n", "unknown config key 'aggregate' in [campaign]"),
    ("[ingest]\ntrim_frac = 0.3\n", "unknown config key 'trim_frac' in [ingest]"),
    ("[ingest]\nallowed_days = 30,40\n", "unknown config key 'allowed_days' in [ingest]"),
], ids=["section", "key", "max_delay_frac", "nominal_energy_price", "currency", "aggregate",
        "trim_frac", "allowed_days"])
def test_unknown_config_input_is_rejected(tmp_path, capsys, ini, message):
    config = tmp_path / "conf.ini"
    config.write_text(ini)
    with pytest.raises(ValueError) as err:
        load_config(config)
    assert str(err.value) == message
    rc = cli_main(["--config", str(config), "synth", "--profile", "ai_like", "--days", "1",
                   "--out", str(tmp_path / "trace.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "trace.csv").exists()


def test_synth_and_preprocess(tmp_path):
    trace = tmp_path / "trace.csv"
    rc = cli_main(["synth", "--profile", "general_like", "--days", "10",
                   "--seed", "3", "--out", str(trace)])
    assert rc == 0
    assert trace.exists()
    assert Path(str(trace) + ".run.json").exists()

    out = tmp_path / "steps.csv"
    assert cli_main(["preprocess", "--trace", str(trace), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "id,submit_step,complete_step,compute_steps,resources"


def test_campaign_scale_report_profit(tmp_path):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG)
    seed = seed_with_window_at_one()

    grid_json = tmp_path / "flex.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                   "--fractions", "none", "--seed", str(seed), "--out", str(grid_json)])
    assert rc == 0
    payload = json.loads(grid_json.read_text())
    assert payload["kind"] == "flexmax"
    assert payload["config"]["toolkit"]["grid"]["horizon_steps"] == 4
    cell = next(iter(payload["cells"].values()))
    assert cell["mean_flex_kw"] == pytest.approx(2.0, abs=1e-6)
    assert cell["norm_flex"] == pytest.approx(1.0, abs=1e-6)

    cost_json = tmp_path / "cost.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                   "--seed", str(seed), "--out", str(cost_json)])
    assert rc == 0
    cost_payload = json.loads(cost_json.read_text())
    ccell = next(iter(cost_payload["cells"].values()))
    assert ccell["acof"] == pytest.approx(0.5, abs=1e-6)

    scaled_json = tmp_path / "scaled.json"
    rc = cli_main(["scale", "--grid", str(grid_json), "--A", "0.5", "--R", "1",
                   "--G", "2", "--G0", "0", "--out", str(scaled_json)])
    assert rc == 0
    scaled = json.loads(scaled_json.read_text())
    scell = next(iter(scaled["cells"].values()))
    assert scell["mean_flex_kw"] == pytest.approx(4.0, abs=1e-6)  # G doubled
    assert scaled["config"]["scaled_to"]["unit_power_kw"] == 2.0

    scaled_cost_json = tmp_path / "scaled_cost.json"
    rc = cli_main(["scale", "--grid", str(cost_json), "--A", "0.8", "--R", "1.2",
                   "--G", "2", "--pi", "0.1", "--out", str(scaled_cost_json)])
    assert rc == 0
    scell = next(iter(json.loads(scaled_cost_json.read_text())["cells"].values()))
    apcof, aecof = scale_acof_dq(
        ccell["apcof"], ccell["aecof"], 0.8, 1.2, 2.0, 0.1,
        EconParams(**cost_payload["config"]["econ"]),
        cost_payload["config"]["datacenter"]["unit_power_kw"])
    assert (scell["apcof"], scell["aecof"], scell["acof"]) == (apcof, aecof, apcof + aecof)

    prefix = tmp_path / "heat"
    rc = cli_main(["report", "--grid", str(grid_json), "--out-prefix", str(prefix)])
    assert rc == 0
    assert (tmp_path / "heat.csv").exists()
    assert list(tmp_path.glob("heat_norm_flex_delay*.svg"))

    prices = tmp_path / "dfs.csv"
    prices.write_text("timestamp_iso8601,price\n" + "".join(
        f"2024-01-{d:02d}T18:00:00,3.8\n" for d in range(1, 11)))
    profit_json = tmp_path / "profit.json"
    rc = cli_main(["profit", "--grid", str(cost_json), "--prices", str(prices),
                   "--percentiles", "50,99.9", "--out", str(profit_json),
                   "--text", str(tmp_path / "profit.txt")])
    assert rc == 0
    report = json.loads(profit_json.read_text())
    cell = report["cells"][0]
    # 0.5 USD/kWh cost against a 3.8 USD/kWh price: profitable at the median
    assert cell["breakeven_percentile"]["dfs"] == 50.0
    assert "resolved_config" in report


def test_one_campaign_run_writes_both_grids_and_solves_each_lp_once(tmp_path, monkeypatch):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG)
    cells, lps = {}, {}
    for fractions in ("none,1.0", "none", "1.0"):
        out = tmp_path / f"{fractions}.json"
        counts = _count_layer_calls(monkeypatch)
        rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                       "--fractions", fractions, "--seed", str(seed_with_window_at_one()),
                       "--out", str(out)])
        monkeypatch.undo()
        assert rc == 0
        cells[fractions] = json.loads(out.read_text())["cells"]
        lps[fractions] = counts["build_flexmax"]
    assert cells["none,1.0"] == {**cells["none"], **cells["1.0"]}
    assert len(cells["none,1.0"]) == 2
    assert lps == {"none,1.0": 1, "none": 1, "1.0": 1}


def test_csf_estimate(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    summary = tmp_path / "summary.json"
    rc = cli_main(["csf", "estimate", "--pricing", str(DATA / "pricing_six_options.csv"),
                   "--device", "gpu", "--percentiles", "25,50,75",
                   "--out", str(out), "--summary", str(summary)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "provider,device_type,fast_model,slow_model,A,csf"
    assert len(lines) == 3
    table = json.loads(summary.read_text())["percentiles"]["gpu"]
    assert table["50.0"] == pytest.approx((4.0 + 9.6) / 2, rel=1e-12)
    assert "gpu: 2 samples" in capsys.readouterr().out


def test_ingest_prices_with_config_rate(tmp_path):
    config = tmp_path / "conf.ini"
    config.write_text("[ingest]\ncurrency_rate = 1.267\n")
    src = tmp_path / "gbp.csv"
    src.write_text("timestamp_iso8601,price\n2024-01-01T00:00:00,3.0\n")
    out = tmp_path / "usd.csv"
    rc = cli_main(["--config", str(config), "ingest", "--prices", str(src),
                   "--market", "dfs", "--out", str(out)])
    assert rc == 0
    value = float(out.read_text().splitlines()[1].split(",")[1])
    assert value == pytest.approx(3.801, rel=1e-12)


def test_ingest_pricing_output_quotes_fields(tmp_path):
    rows = (DATA / "pricing_six_options.csv").read_text().splitlines()
    src = tmp_path / "pricing.csv"
    src.write_text("\n".join([rows[0], rows[1].replace("FastCard", '"A100, SXM ""80GB"""')])
                   + "\n")
    out = tmp_path / "options.csv"
    assert cli_main(["ingest", "--pricing", str(src), "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        header, *options = csv.reader(handle)
    assert tuple(header) == CLOUD_OPTION_COLUMNS
    assert options == [["alpha", "gpu", 'A100, SXM "80GB"', "1.0", "2.0", "500.0", "2.0", "0"]]


def test_ingest_reports_a_non_utf8_trace(tmp_path, capsys):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"id,submit_unix_s,start_unix_s,end_unix_s,resources\n"
                    b"caf\xe9,0,0,3600,1\n")
    out = tmp_path / "out.csv"
    assert cli_main(["ingest", "--trace", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: job trace {src} is not UTF-8: ")
    assert not out.exists()


@pytest.mark.parametrize("sources", [
    ["--trace", "a.csv", "--prices", "b.csv"], ["--pricing", "a.csv", "--trace", "b.csv"], [],
], ids=["trace_and_prices", "pricing_and_trace", "none"])
def test_ingest_takes_exactly_one_source(tmp_path, capsys, sources):
    assert cli_main(["ingest", *sources, "--out", str(tmp_path / "out.csv")]) == 2
    assert "--trace" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DCFLEX_CAMPAIGN_MASTER_SEED", "99")
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG)
    grid_json = tmp_path / "flex.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                   "--fractions", "none", "--out", str(grid_json)])
    assert rc == 0
    payload = json.loads(grid_json.read_text())
    assert payload["config"]["master_seed"] == 99
    assert payload["config"]["toolkit"]["campaign"]["master_seed"] == 99


def test_scale_rejects_a_grid_solved_at_zero_energy_price(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG + "\n[econ]\nenergy_price = 0.0\n")
    cost_json = tmp_path / "cost.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                   "--seed", str(seed_with_window_at_one()), "--out", str(cost_json)])
    assert rc == 0
    rc = cli_main(["scale", "--grid", str(cost_json), "--A", "0.5", "--R", "1",
                   "--G", "1", "--out", str(tmp_path / "scaled.json")])
    assert rc == 1
    assert "error: nominal energy price must be positive" in capsys.readouterr().err


def test_scale_to_the_nominal_parameters_without_pi_is_the_identity(tmp_path):
    # a quota cost cell solved at 0.1 USD/kWh, so its extra-energy part is not 0
    cell = CellResult(duration_hours=2.0, annual_frequency=365.0, max_delay_frac=0.2,
                      flex_fraction=1.0, mean_flex_kw=30.0, norm_flex=0.3, acof=1.2,
                      apcof=1.0, aecof=0.2, windows_evaluated=1, degenerate=False,
                      statuses=("optimal",), gaps=(0.0,))
    config = {"datacenter": {"total_resources": 100.0, "unit_power_kw": 1.0,
                             "fixed_power_kw": 0.0},
              "econ": {"price_reduction_coeff": 0.5, "hourly_unit_price": 1.0,
                       "energy_price": 0.1}}
    cost_json = tmp_path / "cost.json"
    CampaignResult("costmin", config, {CellKey(2.0, 365.0, 0.2, 1.0): cell}).write_json(cost_json)
    scaled_json = tmp_path / "scaled.json"
    rc = cli_main(["scale", "--grid", str(cost_json), "--A", "0.5", "--R", "1",
                   "--G", "1", "--out", str(scaled_json)])
    assert rc == 0
    nominal = json.loads(cost_json.read_text())["cells"]
    scaled = json.loads(scaled_json.read_text())
    assert scaled["config"]["scaled_to"]["energy_price"] == 0.1
    assert nominal.keys() == scaled["cells"].keys()
    for name, cell in nominal.items():
        for metric in ("norm_flex", "mean_flex_kw", "apcof", "aecof", "acof"):
            assert scaled["cells"][name][metric] == pytest.approx(cell[metric], rel=1e-12)


def test_campaign_flags_reach_the_echoed_config(tmp_path):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    seed = seed_with_window_at_one()
    flagged = tmp_path / "flagged.ini"
    flagged.write_text(TINY_CONFIG.replace("delays = 1.0", "delays = 0.5"))
    in_file = tmp_path / "in_file.ini"
    in_file.write_text(TINY_CONFIG + f"master_seed = {seed}\nworkers = 1\n")
    runs = {}
    for config, flags in ((flagged, ["--delays", "1.0", "--seed", str(seed), "--workers", "1"]),
                          (in_file, [])):
        out = tmp_path / f"{config.stem}.json"
        rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                       "--fractions", "none", *flags, "--out", str(out)])
        assert rc == 0
        runs[config.stem] = json.loads(out.read_text())
    echoed = runs["flagged"]["config"]["toolkit"]
    campaign = echoed["campaign"]
    assert (campaign["delays"], campaign["master_seed"], campaign["workers"]) == ("1.0", seed, 1)
    assert echoed == runs["in_file"]["config"]["toolkit"]
    assert runs["flagged"]["cells"] == runs["in_file"]["cells"]


@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("Yes", True), (" ON ", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False),
])
def test_boolean_spellings(monkeypatch, text, value):
    monkeypatch.setenv("DCFLEX_DQ_ENABLED", text)
    assert load_config()["dq"]["enabled"] is value


def test_mistyped_boolean_is_an_error(tmp_path, monkeypatch, capsys):
    # "ture" used to read as false and silently switch dynamic quota off
    monkeypatch.setenv("DCFLEX_DQ_ENABLED", "ture")
    with pytest.raises(ValueError, match="not a boolean: 'ture'"):
        load_config()
    trace = tmp_path / "trace.csv"
    args = ["synth", "--profile", "ai_like", "--days", "10", "--out", str(trace)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not a boolean: 'ture'")
    assert err.rstrip().endswith(" in DCFLEX_DQ_ENABLED")
    monkeypatch.delenv("DCFLEX_DQ_ENABLED")
    config = tmp_path / "conf.ini"
    config.write_text("[dq]\nenabled = flase\n")
    assert cli_main(["--config", str(config), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not a boolean: 'flase'")
    assert err.rstrip().endswith(" in [dq] enabled")
    assert not trace.exists()


@pytest.mark.parametrize("flags, message", [
    (["--fractions", "none,-0.5"], "flex fractions must be none or in [0, 1]"),
    (["--fractions", "1.5"], "flex fractions must be none or in [0, 1]"),
    (["--delays", "-0.1"], "delays must be finite and >= 0"),
], ids=["negative_fraction", "fraction_above_one", "negative_delay"])
def test_campaign_flags_out_of_range_are_errors(tmp_path, capsys, flags, message):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "grid.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace), *flags,
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_negative_cluster_count_is_an_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_tiny_trace(trace)
    config = tmp_path / "conf.ini"
    config.write_text(TINY_CONFIG + "clusters_per_day = -1\n")
    out = tmp_path / "grid.json"
    rc = cli_main(["--config", str(config), "campaign", "--trace", str(trace),
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: clusters_per_day must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["scale", "--A", "0.5", "--R", "1", "--G", "1", "--out", "scaled.json"],
    ["report", "--out-prefix", "heat"],
    ["profit", "--prices", "prices.csv", "--out", "profit.json"],
], ids=["scale", "report", "profit"])
def test_grid_commands_reject_json_that_is_not_a_grid(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prices.csv").write_text("timestamp_iso8601,price\n2024-01-01T00:00:00,3.0\n")
    grid = tmp_path / "x.json"
    grid.write_text('{"a": 1}\n')
    assert cli_main([command[0], "--grid", str(grid), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: not a campaign grid")


def test_module_entry_point_runs_without_warnings():
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "dcflex.cli",
                           "--help"], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "campaign" in proc.stdout


def test_import_loads_no_scipy():
    # scipy costs about 0.4 s to import; only building or solving a model loads it
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import sys, dcflex, dcflex.cli; print("
                           "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
