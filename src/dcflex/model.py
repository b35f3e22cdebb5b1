"""Core domain types shared by all modules, plus time-grid arithmetic.

All types are immutable value objects after construction and safe to share
across parallel workers. Step indexing is inclusive and 1-based: a job
running steps a..b has a computing time of b - a + 1 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

DEVICE_CLASSES = ("gpu_ai", "cpu_general")

# Default preemption overhead per interruption, minutes. GPU jobs pay more
# because checkpoints must round-trip device memory.
DEVICE_PREEMPT_OVERHEAD_MIN = {"gpu_ai": 1.5, "cpu_general": 0.5}


def round_half_away(value: float) -> int:
    """Round to the nearest integer with halves away from zero."""
    if value >= 0:
        return int(math.floor(value + 0.5))
    return -int(math.floor(-value + 0.5))


@dataclass(frozen=True)
class TimeGrid:
    """Discrete optimization time grid.

    step_minutes is the step length, steps the horizon length T, and origin
    the absolute timestamp (unix seconds) at which step 1 begins.
    """

    step_minutes: float = 15.0
    steps: int = 960
    origin: float = 0.0

    def __post_init__(self):
        if self.step_minutes <= 0:
            raise ValueError("step_minutes must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    @property
    def step_seconds(self) -> float:
        return self.step_minutes * 60.0

    @property
    def step_hours(self) -> float:
        return self.step_minutes / 60.0

    @property
    def horizon_days(self) -> float:
        return self.steps * self.step_minutes / 1440.0

    @property
    def steps_per_day(self) -> int:
        per_day = 1440.0 / self.step_minutes
        if abs(per_day - round(per_day)) > 1e-9:
            raise ValueError("step_minutes does not divide a day evenly")
        return int(round(per_day))


def activations_per_window(annual_frequency: float, horizon_days: float) -> int:
    """Number of service activations falling inside one optimization horizon.

    An annual frequency is prorated onto the horizon and rounded to the
    nearest integer, clamped to at least one so every service is testable.
    """
    if annual_frequency <= 0 or horizon_days <= 0:
        raise ValueError("annual_frequency and horizon_days must be positive")
    return max(1, round_half_away(annual_frequency * horizon_days / 365.0))


def duration_to_steps(duration_hours: float, grid: TimeGrid) -> int:
    """Convert an activation duration in hours to grid steps (minimum 1)."""
    if duration_hours <= 0:
        raise ValueError("duration_hours must be positive")
    return max(1, round_half_away(duration_hours * 60.0 / grid.step_minutes))


class JobTable:
    """Column-oriented collection of discretized computing jobs.

    Backed by read-only numpy arrays so tables can be shared freely.
    resources may be fractional (job aggregation and short-job rescaling
    both produce non-integer resource counts).
    """

    def __init__(self, ids: Sequence[str], submit_step, compute_steps, resources):
        self.ids: tuple[str, ...] = tuple(str(i) for i in ids)
        self.submit_step = np.asarray(submit_step, dtype=np.int64)
        self.compute_steps = np.asarray(compute_steps, dtype=np.int64)
        self.resources = np.asarray(resources, dtype=np.float64)
        n = len(self.ids)
        if not (len(self.submit_step) == len(self.compute_steps) == len(self.resources) == n):
            raise ValueError("column lengths differ")
        if n:
            if self.submit_step.min() < 1:
                raise ValueError("submit_step must be >= 1")
            if self.compute_steps.min() < 1:
                raise ValueError("compute_steps must be >= 1")
            if self.resources.min() <= 0:
                raise ValueError("resources must be positive")
        for arr in (self.submit_step, self.compute_steps, self.resources):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def complete_step(self) -> np.ndarray:
        return self.submit_step + self.compute_steps - 1

    def workload(self) -> float:
        """Total workload in resource-steps: sum of D_j * N^R_j."""
        return float(np.sum(self.compute_steps * self.resources))

    @classmethod
    def empty(cls) -> "JobTable":
        return cls([], [], [], [])


@dataclass(frozen=True)
class DataCenterSpec:
    """Physical and operational parameters of one data center."""

    total_resources: float
    unit_power_kw: float = 1.0
    fixed_power_kw: float = 0.0
    preempt_overhead_min: float = 1.5
    preempt_budget_frac: float = 0.01
    max_delay_frac: float = 0.2
    device_class: str = "gpu_ai"

    def __post_init__(self):
        if self.total_resources <= 0:
            raise ValueError("total_resources must be positive")
        if self.unit_power_kw <= 0:
            raise ValueError("unit_power_kw must be positive")
        if self.fixed_power_kw < 0:
            raise ValueError("fixed_power_kw must be non-negative")
        if not (0 < self.preempt_budget_frac <= 1):
            raise ValueError("preempt_budget_frac must lie in (0, 1]")
        if self.max_delay_frac < 0:
            raise ValueError("max_delay_frac must be non-negative")
        if self.device_class not in DEVICE_CLASSES:
            raise ValueError(f"unknown device_class {self.device_class!r}")

    @property
    def max_power_kw(self) -> float:
        """Power at 100% utilization of every computing device."""
        return self.unit_power_kw * self.total_resources + self.fixed_power_kw

    def with_max_delay(self, max_delay_frac: float) -> "DataCenterSpec":
        return replace(self, max_delay_frac=max_delay_frac)


def default_preempt_overhead_min(device_class: str) -> float:
    try:
        return DEVICE_PREEMPT_OVERHEAD_MIN[device_class]
    except KeyError:
        raise ValueError(f"unknown device_class {device_class!r}") from None


@dataclass(frozen=True)
class EconParams:
    """Economic parameters of flexibility provision."""

    price_reduction_coeff: float = 0.5  # proportional price cut per unit of delay
    hourly_unit_price: float = 1.0      # money per resource-hour
    energy_price: float = 0.05          # money per kWh

    def __post_init__(self):
        if self.price_reduction_coeff < 0 or self.hourly_unit_price < 0 or self.energy_price < 0:
            raise ValueError("economic parameters must be non-negative")


@dataclass(frozen=True)
class ServiceSpec:
    """A power-system service: activation duration and how often it occurs."""

    duration_steps: int
    annual_frequency: float
    window_count: int
    duration_hours: float = 0.0

    def __post_init__(self):
        if self.duration_steps < 1:
            raise ValueError("duration_steps must be >= 1")
        if self.window_count < 1:
            raise ValueError("window_count must be >= 1")

    @classmethod
    def from_requirements(
        cls, duration_hours: float, annual_frequency: float, grid: TimeGrid
    ) -> "ServiceSpec":
        duration_hours = float(duration_hours)
        annual_frequency = float(annual_frequency)
        duration_steps = duration_to_steps(duration_hours, grid)
        window_count = activations_per_window(annual_frequency, grid.horizon_days)
        if window_count * duration_steps > grid.steps:
            raise ValueError(
                f"service ({duration_hours} h, {annual_frequency}/yr) does not fit: "
                f"{window_count} windows x {duration_steps} steps > {grid.steps} steps"
            )
        return cls(
            duration_steps=duration_steps,
            annual_frequency=annual_frequency,
            window_count=window_count,
            duration_hours=duration_hours,
        )


@dataclass(frozen=True)
class ActivationPlan:
    """Concrete sampled activation windows on a grid.

    windows holds (start, end) step intervals, inclusive on both ends. All
    windows have equal length and are pairwise disjoint.
    """

    windows: tuple[tuple[int, int], ...]
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple((int(a), int(b)) for a, b in self.windows))
        last_end = 0
        length = None
        for a, b in sorted(self.windows):
            if a < 1 or b > self.grid.steps or a > b:
                raise ValueError(f"window ({a}, {b}) outside [1, {self.grid.steps}]")
            if a <= last_end:
                raise ValueError("activation windows overlap")
            if length is None:
                length = b - a + 1
            elif b - a + 1 != length:
                raise ValueError("activation windows have unequal lengths")
            last_end = b

    @property
    def count(self) -> int:
        return len(self.windows)

    @property
    def duration_steps(self) -> int:
        if not self.windows:
            return 0
        a, b = self.windows[0]
        return b - a + 1


@dataclass(frozen=True)
class BaselineProfile:
    """Utilization/power time series of the unmodified schedule."""

    utilization: np.ndarray
    power_kw: np.ndarray
    mean_util: float
    std_util: float

    def __post_init__(self):
        util = np.asarray(self.utilization, dtype=np.float64)
        power = np.asarray(self.power_kw, dtype=np.float64)
        util.setflags(write=False)
        power.setflags(write=False)
        object.__setattr__(self, "utilization", util)
        object.__setattr__(self, "power_kw", power)

    @classmethod
    def from_utilization(cls, utilization: np.ndarray, spec: DataCenterSpec) -> "BaselineProfile":
        util = np.asarray(utilization, dtype=np.float64)
        power = spec.unit_power_kw * spec.total_resources * util + spec.fixed_power_kw
        return cls(
            utilization=util,
            power_kw=power,
            mean_util=float(util.mean()) if util.size else 0.0,
            std_util=float(util.std()) if util.size else 0.0,
        )


@dataclass(frozen=True)
class SolveStats:
    """What the solver reports about one solve.

    Bounds are in the model's own objective (sense and constant included);
    None where the solver has none. gap is 0.0 for an optimal model
    without binaries and for a MILP whose LP relaxation proved the optimum.
    The model size is what was passed to the solver. A MILP is solved as
    its LP relaxation first and then, unless that proved the result, as a
    MILP: iterations and highs_s cover both runs.
    """

    columns: int
    rows: int
    nonzeros: int
    binaries: int                    # integer columns: running flags and integer delays
    iterations: int                  # simplex iterations of every HiGHS run
    nodes: int                       # branch-and-bound nodes, 0 if no MILP ran
    dual_bound: float | None
    primal_bound: float | None
    gap: float | None
    highs_s: float                   # wall time of the HiGHS runs


@dataclass
class ScheduleSolution:
    """What callers read of one solved scheduling problem.

    mean_flex_kw is the mean sustained flexibility over the activation
    windows; total_cost (price plus extra energy) and extra_energy_cost are
    filled by cost-minimization solves only. Every value is None where the
    solve kept no values.
    """

    status: str                      # optimal | infeasible | unbounded | limit | error
    mean_flex_kw: float | None
    total_cost: float | None = None
    extra_energy_cost: float | None = None
    stats: SolveStats | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"
