import csv
from pathlib import Path

import numpy as np
import pytest

from dcflex import ingest
from dcflex.ingest import (
    IngestError,
    RawJobTable,
    parse_cloud_pricing,
    parse_job_trace,
    parse_price_series,
    select_window,
    write_job_trace,
    write_price_series,
)
from dcflex.model import TimeGrid

DATA = Path(__file__).parent / "data"
GRID = TimeGrid(15, 960)


def write_trace(path, rows, header=("id", "submit_unix_s", "start_unix_s", "end_unix_s", "resources")):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def test_parse_well_formed(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [
        ("a", 0, 0, 3600, 2),
        ("b", 100, 200, 5000, 1),
        ("c", 0, 1000, 1500, 4),
    ])
    table = parse_job_trace(path)
    assert len(table) == 3
    assert table.dropped == 0
    assert table.ids == ("a", "b", "c")
    assert table.resources.tolist() == [2.0, 1.0, 4.0]


def test_parse_drops_bad_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [
        ("a", 0, 0, 3600, 2),
        ("bad", 0, 5000, 4000, 1),   # end < start
        ("worse", 0, 0, 100, -1),    # non-positive resources
        ("nan", 0, "oops", 100, 1),  # non-numeric
        ("short", 0, 0, 100),        # no resources field
        ("inf", 0, 0, "inf", 1),     # non-finite
        ("zero", 0, 0, 100, 0),      # zero resources
        ("early", 0, -10, 100, 1),   # negative start
        (),                          # blank line
        ("b", 5, 10, 20, 0.5),
    ])
    table = parse_job_trace(path)
    assert table.ids == ("a", "b")
    assert table.dropped == 8
    assert table.submit.tolist() == [0.0, 5.0]
    assert table.start.tolist() == [0.0, 10.0]
    assert table.end.tolist() == [3600.0, 20.0]
    assert table.resources.tolist() == [2.0, 0.5]


def test_parse_drops_a_row_cut_short_before_the_id(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [(0, 0, 3600, 2, "a"), (0, 0, 3600, 2)],
                header=("submit_unix_s", "start_unix_s", "end_unix_s", "resources", "id"))
    table = parse_job_trace(path)
    assert table.ids == ("a",)
    assert table.dropped == 1


def test_parse_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [("a", 0, 0, 3600)], header=("id", "submit_unix_s", "start_unix_s", "end_unix_s"))
    with pytest.raises(IngestError, match="missing column"):
        parse_job_trace(path)


def test_parse_empty_result(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [])
    with pytest.raises(IngestError, match="no valid rows"):
        parse_job_trace(path)


def test_parse_pai_scale_trace(tmp_path):
    # counter and array handling at the largest published trace size
    n = 962_602
    path = tmp_path / "big.csv"
    with path.open("w") as handle:
        handle.write("id,submit_unix_s,start_unix_s,end_unix_s,resources\n")
        for i in range(n):
            start = (i % 86_400) * 10
            handle.write(f"j{i},{start},{start},{start + 600},1\n")
    table = parse_job_trace(path)
    assert len(table) == n
    assert table.dropped == 0


def test_trace_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [('a, "x"', 0.0, 0.5, 3600.25, 2.5), ("b", 10, 20, 30, 1)])
    table = parse_job_trace(path)
    assert table.ids == ('a, "x"', "b")
    out = tmp_path / "out.csv"
    write_job_trace(table, out)
    again = parse_job_trace(out)
    assert again.ids == table.ids
    assert np.array_equal(again.start, table.start)
    assert np.array_equal(again.end, table.end)
    assert np.array_equal(again.resources, table.resources)
    # canonical CSVs round-trip byte-identically
    out2 = tmp_path / "out2.csv"
    write_job_trace(again, out2)
    assert out2.read_bytes() == out.read_bytes()


def uniform_trace(tmp_path, days, res=10.0, day_loads=None):
    """One all-day job per day; day_loads scales per-day resources."""
    rows = []
    for d in range(days):
        load = res if day_loads is None else day_loads[d]
        if load <= 0:
            continue
        rows.append((f"d{d}", d * 86400, d * 86400, (d + 1) * 86400, load))
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    return parse_job_trace(path)


def test_select_window_uniform(tmp_path):
    table = uniform_trace(tmp_path, 100)
    out = select_window(table, 80, GRID)
    lo, hi = out.span
    assert hi - lo == 80 * 86400
    assert hi == 100 * 86400  # most recent slice retained
    assert all(end > lo for end in out.end)


def test_select_window_trims_quiet_lead(tmp_path):
    # first five days nearly idle: mean load ~ 9.5, threshold 4.77
    day_loads = [0.1] * 5 + [10.0] * 95
    table = uniform_trace(tmp_path, 100, day_loads=day_loads)
    out = select_window(table, 80, GRID)
    lo, hi = out.span
    assert lo >= 5 * 86400
    assert hi == 100 * 86400


def test_select_window_too_short(tmp_path):
    table = uniform_trace(tmp_path, 30)
    with pytest.raises(IngestError, match="usable days"):
        select_window(table, 80, GRID)


def per_day_loop_workload(table, day_edges):
    """Daily loads as one full pass over the jobs per day."""
    loads = np.zeros(len(day_edges) - 1)
    for d in range(len(loads)):
        overlap = (np.minimum(table.end, day_edges[d + 1])
                   - np.maximum(table.start, day_edges[d]))
        loads[d] = float(np.sum(np.clip(overlap, 0.0, None) * table.resources))
    return loads


@pytest.mark.parametrize("seed", range(4))
def test_select_window_loads_match_a_per_day_loop(seed, monkeypatch):
    # float-second jobs of minutes to days, some of zero length or on a
    # day edge, over 90 days whose first and last ones are quiet
    rng = np.random.default_rng(seed)
    day_s = 86400.0
    n = 3000
    day = np.where(rng.random(n) < 0.02, rng.choice([0, 1, 88, 89], n), rng.integers(2, 88, n))
    start = 1_700_000_123.25 + day_s * (day + rng.random(n))
    start[:50] = np.round(start[:50] / day_s) * day_s
    end = start + rng.exponential(4 * 3600.0, n) * (rng.random(n) < 0.95)
    end[50:80] = start[50:80] + rng.uniform(day_s, 3 * day_s, 30)
    table = RawJobTable(ids=[f"j{i}" for i in range(n)], submit=start, start=start,
                        end=end, resources=rng.uniform(0.1, 8.0, n))

    t0 = np.floor(start.min() / GRID.step_seconds) * GRID.step_seconds
    edges = t0 + day_s * np.arange(int(np.ceil((end.max() - t0) / day_s)) + 1)
    np.testing.assert_allclose(ingest._daily_workload(table, edges),
                               per_day_loop_workload(table, edges), rtol=1e-12, atol=0)
    got = select_window(table, 60, GRID)
    monkeypatch.setattr(ingest, "_daily_workload", per_day_loop_workload)
    want = select_window(table, 60, GRID)
    assert got.span == want.span
    assert got.ids == want.ids


def test_select_window_days_validation(tmp_path):
    table = uniform_trace(tmp_path, 100)
    with pytest.raises(ValueError, match=r"days must be one of \(40, 60, 80\), got 55"):
        select_window(table, 55, GRID)
    for days in ingest.WINDOW_DAYS:
        out = select_window(table, days, GRID)
        assert out.span[1] - out.span[0] == days * 86400


def test_parse_cloud_pricing_fixture():
    table = parse_cloud_pricing(DATA / "pricing_six_options.csv")
    assert len(table) == 6
    fast = next(o for o in table.options if o.model == "FastCard" and o.unit_count == 1)
    assert fast.unit_price == 2.0
    assert fast.unit_power_w == 500.0
    assert fast.speed == 2.0  # harmonic mean of equal FP32/FP16 scores
    packed = next(o for o in table.options if o.unit_count == 4)
    assert packed.estimated_flag
    assert packed.unit_price == 2.0  # 8 $/h over 4 units


def test_parse_cloud_pricing_rules(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "Provider,Type,Model,Number of vCPU / GPU,Memory,Unit Price,Total device price,"
        "CPU Score,GPU FP32,GPU FP16,Unit Rated Power,Total Rated Power,Notes\n"
        "p,GPU,G1,4,,,8.0,,2,4,,2000,harmonic speed\n"
        "p,CPU,C1,32,,,16.0,5000,,,,360,physical CPU power per vCPU\n"
        "p,GPU,G2,1,,,1.0,,,,,,missing speed is dropped\n"
        "p,CPU\n"  # shorter than the model and count columns: dropped
    )
    table = parse_cloud_pricing(path)
    assert len(table) == 2
    assert table.dropped == 2
    gpu = table.of_type("gpu").options[0]
    assert gpu.unit_price == 2.0
    assert gpu.speed == pytest.approx(8.0 / 3.0, rel=1e-12)
    cpu = table.of_type("cpu").options[0]
    assert cpu.unit_power_w == pytest.approx(360.0 / 32.0, rel=1e-12)  # 11.25 W
    assert cpu.speed == 5000.0


def test_parse_cloud_pricing_zero_count(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "Provider,Type,Model,Number of vCPU / GPU,Memory,Unit Price,Total device price,"
        "CPU Score,GPU FP32,GPU FP16,Unit Rated Power,Total Rated Power,Notes\n"
        "p,GPU,G1,0,,,8.0,,2,4,,2000,zero units\n"
    )
    with pytest.raises(IngestError, match="zero unit count"):
        parse_cloud_pricing(path)


def test_price_series_dfs_constant(tmp_path):
    path = tmp_path / "dfs.csv"
    lines = ["timestamp_iso8601,price"]
    lines += [f"2023-01-{d:02d}T18:00:00,3.0" for d in range(1, 11)]
    path.write_text("\n".join(lines) + "\n")
    series = parse_price_series(path, conversion_rate=1.267)
    assert series.market == "dfs"
    # 3 GBP/kWh at 1.267 USD/GBP is around 3.8 USD/kWh
    assert np.allclose(series.prices, 3.801)


def test_price_series_sorts_and_validates(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "timestamp_iso8601,price\n"
        "2024-01-02T00:00:00,2.0\n"
        "2024-01-01T00:00:00,1.0\n"
    )
    series = parse_price_series(path, market="m")
    assert series.prices.tolist() == [1.0, 2.0]
    assert series.timestamps[0].day == 1

    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp_iso8601,price\n")
    with pytest.raises(IngestError, match="no samples"):
        parse_price_series(empty)

    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_iso8601,price\n2024-01-01T00:00:00,abc\n")
    with pytest.raises(IngestError, match="non-numeric"):
        parse_price_series(bad)


def test_price_series_without_header_is_rejected(tmp_path):
    # a headerless file would lose its first sample, and with it the maximum
    path = tmp_path / "m.csv"
    path.write_text("2024-01-01T00:00:00,9.0\n2024-01-01T01:00:00,1.0\n")
    with pytest.raises(IngestError, match="header"):
        parse_price_series(path)


def test_price_series_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("timestamp_iso8601,price\n"
                    "2024-01-02T00:30:00,2.5\n"
                    "2024-01-01T00:00:00,0.1\n")
    series = parse_price_series(path, market="m")
    out = tmp_path / "out.csv"
    write_price_series(series, out)
    assert out.read_bytes() == (b"timestamp_iso8601,price\r\n"
                                b"2024-01-01T00:00:00,0.1\r\n"
                                b"2024-01-02T00:30:00,2.5\r\n")
    again = parse_price_series(out, market="m")
    assert again.timestamps == series.timestamps
    assert np.array_equal(again.prices, series.prices)


@pytest.mark.parametrize("read, what", [
    (parse_job_trace, "job trace"), (parse_cloud_pricing, "pricing file"),
    (parse_price_series, "price series"),
], ids=["job_trace", "pricing", "price_series"])
def test_every_reader_rejects_empty_and_missing_files(tmp_path, read, what):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestError, match=f"^{what} .*empty.csv is empty$"):
        read(empty)
    with pytest.raises(IngestError, match=f"^cannot read {what} .*nope.csv: "):
        read(tmp_path / "nope.csv")


@pytest.mark.parametrize("good_rows", [0, 1000], ids=["in_header_block", "in_a_later_block"])
def test_non_utf8_trace_is_rejected_with_its_path(tmp_path, good_rows):
    # 1000 rows put the byte past the first block the text layer decodes, so
    # the error rises from the parser's own loop rather than the header read
    path = tmp_path / "latin1.csv"
    rows = b"".join(b"j%d,0,0,3600,1\n" % i for i in range(good_rows))
    path.write_bytes(b"id,submit_unix_s,start_unix_s,end_unix_s,resources\n" + rows
                     + b"caf\xe9,0,0,3600,1\n")
    with pytest.raises(IngestError, match="^job trace .*latin1.csv is not UTF-8: "):
        parse_job_trace(path)
