"""Parsers for job traces, cloud pricing tables and market price series.

All parsers are pure functions over file contents; multiple files may be
parsed in parallel without shared state.

Canonical file layouts:
  job trace CSV     header ``id,submit_unix_s,start_unix_s,end_unix_s,resources``
  price series CSV  header ``timestamp_iso8601,price``
  pricing CSV       the 13-column cloud rental option layout (see
                    ``CLOUD_PRICING_COLUMNS``)

Every CSV of the package is read through ``read_rows`` and written through
``write_rows``, in the ``csv`` module's default dialect (RFC 4180 quoting,
CRLF line endings); every JSON artifact is formatted by ``json_text``.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .model import TimeGrid

#: Job-trace column names; a trace file's header must contain each of them.
JOB_TRACE_COLUMNS = ("id", "submit_unix_s", "start_unix_s", "end_unix_s", "resources")

#: Price series header, in file order.
PRICE_SERIES_COLUMNS = ("timestamp_iso8601", "price")

#: Cloud pricing table columns, in file order. Headers are matched after
#: normalization so cosmetic differences in spacing/units do not matter.
CLOUD_PRICING_COLUMNS = (
    "Provider",
    "Type",
    "Model",
    "Number of vCPU / GPU",
    "Memory (RAM per CPU, VRAM per GPU)",
    "Unit Price ($/(unit.h))",
    "Total device price ($/h)",
    "CPU Score",
    "GPU FP32",
    "GPU FP16",
    "Unit Rated Power (W/(vCPU, GPU))",
    "Total Rated Power (W)",
    "Notes",
)

#: Window lengths, in days, that select_window takes.
WINDOW_DAYS = (40, 60, 80)

#: select_window trims boundary days whose workload is below this share of
#: the trace's daily mean.
TRIM_FRAC = 0.5

#: Per-unit cloud options, as ``dcflex ingest --pricing`` writes them.
CLOUD_OPTION_COLUMNS = ("provider", "device_type", "model", "unit_count", "unit_price",
                        "unit_power_w", "speed", "estimated")


class IngestError(ValueError):
    """Raised for unreadable, malformed or empty input files."""


@contextmanager
def read_rows(path, what: str):
    """Yield (header, reader) of a UTF-8 CSV file; what names the file in errors.

    An unreadable file, one without a header row, and bytes that are not
    UTF-8, in the header or in rows the caller reads, raise IngestError.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc
    with handle:
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{what} {path} is empty")
            yield header, reader
        except UnicodeDecodeError as exc:
            raise IngestError(f"{what} {path} is not UTF-8: {exc}") from exc


def write_rows(path, header, rows) -> None:
    """Write a header and rows as CSV in the csv module's default dialect."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def json_text(payload) -> str:
    """The text of a JSON artifact: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class RawJobTable:
    """Continuous-time job records straight from a trace file.

    Times are unix seconds; submit <= start <= end is not required on input
    (queue normalization fixes submit later), but end >= start is.
    span, when set, is the (start, end) unix-second window the table was
    selected for.
    """

    ids: tuple
    submit: np.ndarray
    start: np.ndarray
    end: np.ndarray
    resources: np.ndarray
    dropped: int = 0
    span: tuple | None = None

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.submit = np.asarray(self.submit, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        self.end = np.asarray(self.end, dtype=np.float64)
        self.resources = np.asarray(self.resources, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, mask: np.ndarray, span=None) -> "RawJobTable":
        idx = np.flatnonzero(mask)
        return RawJobTable(
            ids=tuple(self.ids[i] for i in idx),
            submit=self.submit[idx],
            start=self.start[idx],
            end=self.end[idx],
            resources=self.resources[idx],
            dropped=self.dropped,
            span=self.span if span is None else span,
        )


def parse_job_trace(path) -> RawJobTable:
    """Parse a job trace CSV into a RawJobTable.

    The header must name every column of JOB_TRACE_COLUMNS, in any order.
    Rows that are blank or short, that hold a non-numeric or non-finite
    time or resources, non-positive resources, end < start, or a negative
    submit or start time are dropped and counted.
    """
    ids, values = [], array("d")
    n_read = 0
    with read_rows(path, "job trace") as (header, reader):
        for name in JOB_TRACE_COLUMNS:
            if name not in header:
                raise IngestError(f"job trace {path} missing column {name!r}")
        i_id, i_sub, i_sta, i_end, i_res = (header.index(name) for name in JOB_TRACE_COLUMNS)
        for n_read, row in enumerate(reader, 1):
            try:
                job_id = row[i_id]
                job = (float(row[i_sub]), float(row[i_sta]), float(row[i_end]), float(row[i_res]))
            except (IndexError, ValueError):
                continue
            ids.append(job_id)
            values.extend(job)
    columns = np.frombuffer(values).reshape(-1, 4).T.copy()
    submit, start, end, res = columns
    keep = (np.isfinite(columns).all(axis=0) & (end >= start) & (res > 0)
            & (submit >= 0) & (start >= 0))
    if not keep.all():
        ids = [ids[i] for i in np.flatnonzero(keep)]
        submit, start, end, res = submit[keep], start[keep], end[keep], res[keep]
    if not ids:
        raise IngestError(f"job trace {path}: no valid rows")
    return RawJobTable(ids=ids, submit=submit, start=start, end=end,
                       resources=res, dropped=n_read - len(ids))


def _daily_workload(table: RawJobTable, day_edges: np.ndarray) -> np.ndarray:
    """Resource-seconds of running work overlapping each day bucket.

    Each job adds its overlap with every bucket from the one holding its
    start to the one holding its end, in one pass over (job, day) pairs.
    """
    first = np.maximum(np.searchsorted(day_edges, table.start, side="right") - 1, 0)
    last = np.minimum(np.searchsorted(day_edges, table.end, side="left") - 1,
                      len(day_edges) - 2)
    spans = np.maximum(last - first + 1, 0)
    job = np.repeat(np.arange(len(table)), spans)
    day = first[job] + np.arange(len(job)) - np.repeat(np.cumsum(spans) - spans, spans)
    overlap = (np.minimum(table.end[job], day_edges[day + 1])
               - np.maximum(table.start[job], day_edges[day]))
    return np.bincount(day, weights=overlap * table.resources[job],
                       minlength=len(day_edges) - 1)


def select_window(table: RawJobTable, days: int, grid: TimeGrid) -> RawJobTable:
    """Pick the most recent contiguous `days`-long slice of a trace.

    days must be one of WINDOW_DAYS. Recording artifacts leave
    under-utilized stretches at the trace boundaries; leading and trailing
    days whose workload stays below TRIM_FRAC of the full-trace daily mean
    are trimmed first. The returned table keeps every job overlapping the
    selected window (original times untouched) and records the window as
    span.
    """
    if days not in WINDOW_DAYS:
        raise ValueError(f"days must be one of {WINDOW_DAYS}, got {days}")
    if not len(table):
        raise IngestError("cannot select a window from an empty table")

    day_s = 86400.0
    t0 = math.floor(float(table.start.min()) / grid.step_seconds) * grid.step_seconds
    t_end = float(table.end.max())
    n_days = int(math.ceil((t_end - t0) / day_s))
    if n_days < 1:
        raise IngestError("trace has no positive duration")
    edges = t0 + day_s * np.arange(n_days + 1)
    loads = _daily_workload(table, edges)
    threshold = TRIM_FRAC * loads.mean()

    lo = 0
    while lo < n_days and loads[lo] < threshold:
        lo += 1
    hi = n_days
    while hi > lo and loads[hi - 1] < threshold:
        hi -= 1
    if hi - lo < days:
        raise IngestError(
            f"trace holds only {hi - lo} usable days after trimming, {days} requested"
        )
    win_end = edges[hi]
    win_start = win_end - days * day_s
    mask = (table.end > win_start) & (table.start < win_end)
    return table.select(mask, span=(float(win_start), float(win_end)))


@dataclass(frozen=True)
class CloudOption:
    """One CPU/GPU rental option, normalized to a single resource unit."""

    provider: str
    device_type: str  # "cpu" | "gpu"
    model: str
    unit_count: float
    unit_price: float    # money per unit-hour
    unit_power_w: float  # watts per vCPU or per GPU
    speed: float         # CPU mark, or harmonic mean of GPU FP32/FP16 scores
    estimated_flag: bool = False

    def __post_init__(self):
        if self.unit_price <= 0 or self.unit_power_w <= 0 or self.speed <= 0:
            raise ValueError(f"option {self.provider}/{self.model}: "
                             "price, power and speed must be positive")


@dataclass
class CloudOptionTable:
    options: list
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.options)

    def of_type(self, device_type: str) -> "CloudOptionTable":
        return CloudOptionTable(
            [o for o in self.options if o.device_type == device_type], self.dropped
        )


def _norm_header(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_PRICING_KEYS = {
    "provider": "provider",
    "type": "type",
    "model": "model",
    "numberofvcpugpu": "count",
    "unitprice": "unit_price",
    "totaldeviceprice": "total_price",
    "cpuscore": "cpu_score",
    "gpufp32": "gpu_fp32",
    "gpufp16": "gpu_fp16",
    "unitratedpower": "unit_power",
    "totalratedpower": "total_power",
}
_PRICING_REQUIRED = ("provider", "type", "model", "count")


def _match_pricing_header(header: list) -> dict:
    found = {}
    for idx, raw in enumerate(header):
        norm = _norm_header(raw)
        for prefix, key in _PRICING_KEYS.items():
            if norm.startswith(prefix) and key not in found:
                found[key] = idx
                break
    missing = [k for k in _PRICING_REQUIRED if k not in found]
    if missing:
        raise IngestError(f"pricing file missing columns: {missing}")
    return found


def _opt_float(row, idx):
    if idx is None or idx >= len(row):
        return None
    text = row[idx].strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_cloud_pricing(path) -> CloudOptionTable:
    """Parse a cloud rental pricing CSV into per-unit CloudOptions.

    Per-unit price is the total device price divided by the unit count (the
    unit price column is a fallback); per-vCPU power is the physical CPU
    rated power divided by the vCPU count. GPU speed is the harmonic mean
    of the FP32 and FP16 scores. Rows shorter than the provider, type,
    model or count column, or without usable speed or power, are dropped
    and counted.
    """
    options: list[CloudOption] = []
    dropped = 0
    with read_rows(path, "pricing file") as (header, reader):
        cols = _match_pricing_header(header)
        width = max(cols[k] for k in _PRICING_REQUIRED) + 1
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < width:
                dropped += 1
                continue
            provider = row[cols["provider"]].strip()
            dev = row[cols["type"]].strip().lower()
            model = row[cols["model"]].strip()
            count_text = row[cols["count"]].strip()
            estimated = count_text.endswith("*")
            try:
                count = float(count_text.rstrip("*"))
            except ValueError:
                dropped += 1
                continue
            if count == 0:
                raise IngestError(f"pricing file {path}: zero unit count for {model!r}")
            if dev not in ("cpu", "gpu"):
                dropped += 1
                continue

            total_price = _opt_float(row, cols.get("total_price"))
            unit_price = total_price / count if total_price is not None else \
                _opt_float(row, cols.get("unit_price"))
            total_power = _opt_float(row, cols.get("total_power"))
            unit_power = total_power / count if total_power is not None else \
                _opt_float(row, cols.get("unit_power"))

            if dev == "cpu":
                speed = _opt_float(row, cols.get("cpu_score"))
            else:
                fp32 = _opt_float(row, cols.get("gpu_fp32"))
                fp16 = _opt_float(row, cols.get("gpu_fp16"))
                speed = None
                if fp32 and fp16 and fp32 > 0 and fp16 > 0:
                    speed = 2.0 * fp32 * fp16 / (fp32 + fp16)

            if not speed or speed <= 0 or not unit_power or unit_power <= 0 \
                    or not unit_price or unit_price <= 0:
                dropped += 1
                continue
            options.append(CloudOption(
                provider=provider, device_type=dev, model=model,
                unit_count=count, unit_price=unit_price,
                unit_power_w=unit_power, speed=speed, estimated_flag=estimated,
            ))
    if not options:
        raise IngestError(f"pricing file {path}: no usable options")
    return CloudOptionTable(options=options, dropped=dropped)


@dataclass
class PriceSeries:
    """A power-system service price series in USD per kWh."""

    market: str
    timestamps: tuple
    prices: np.ndarray

    def __post_init__(self):
        self.timestamps = tuple(self.timestamps)
        self.prices = np.asarray(self.prices, dtype=np.float64)
        if self.prices.size == 0:
            raise IngestError(f"price series {self.market!r} is empty")
        if not np.all(np.isfinite(self.prices)):
            raise IngestError(f"price series {self.market!r} has non-finite prices")

    def __len__(self) -> int:
        return len(self.prices)


def parse_price_series(
    path,
    market: str | None = None,
    conversion_rate: float = 1.0,
) -> PriceSeries:
    """Parse a (timestamp, price) CSV into an ascending PriceSeries.

    The header must be PRICE_SERIES_COLUMNS. conversion_rate multiplies
    every price (e.g. 1.267 USD/GBP to convert a GBP series to USD); it
    comes from configuration, never from code.
    """
    market = market if market is not None else Path(path).stem
    stamps, prices = [], []
    with read_rows(path, "price series") as (header, reader):
        if [cell.strip() for cell in header] != list(PRICE_SERIES_COLUMNS):
            raise IngestError(f"price series {path}: header {header!r} is not "
                              f"{','.join(PRICE_SERIES_COLUMNS)}")
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise IngestError(f"price series {path}: malformed row {row!r}")
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise IngestError(f"price series {path}: bad timestamp {row[0]!r}") from exc
            try:
                price = float(row[1])
            except ValueError as exc:
                raise IngestError(f"price series {path}: non-numeric price {row[1]!r}") from exc
            stamps.append(stamp)
            prices.append(price * conversion_rate)
    if not stamps:
        raise IngestError(f"price series {path} has no samples")
    order = sorted(range(len(stamps)), key=lambda i: stamps[i])
    return PriceSeries(
        market=market,
        timestamps=[stamps[i] for i in order],
        prices=[prices[i] for i in order],
    )


def write_price_series(series: PriceSeries, path) -> None:
    """Serialize a PriceSeries to the canonical price series CSV."""
    write_rows(path, PRICE_SERIES_COLUMNS,
               ((stamp.isoformat(), repr(float(price)))
                for stamp, price in zip(series.timestamps, series.prices)))


def write_job_trace(table: RawJobTable, path) -> None:
    """Serialize a RawJobTable to the canonical job trace CSV."""
    write_rows(path, JOB_TRACE_COLUMNS,
               ((table.ids[i], repr(float(table.submit[i])), repr(float(table.start[i])),
                 repr(float(table.end[i])), repr(float(table.resources[i])))
                for i in range(len(table))))
