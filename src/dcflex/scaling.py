"""Closed-form scaling of nominal results and cost-scaling-factor estimation.

Campaigns are solved once under nominal parameters (unit power 1 kW, zero
fixed power, price reduction coefficient 0.5, 1 USD per resource-hour);
these helpers rescale the results to arbitrary data-center parameters
without re-optimization. Cost scaling factors are estimated from pairs of
cloud rental options of the same provider and device type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import CloudOption, CloudOptionTable, write_rows
from .model import EconParams

#: Cost-scaling-factor samples CSV header, in file order.
CSF_SAMPLE_COLUMNS = ("provider", "device_type", "fast_model", "slow_model", "A", "csf")

#: Pairs where the slow option needs more than this share of extra
#: computing time are considered not comparable. The boundary itself
#: (exactly twice as slow) is kept.
MAX_EXTRA_TIME_FRAC = 1.0


def scale_flex_norm(norm_flex_nominal: float, unit_power_kw: float,
                    total_resources: float, fixed_power_kw: float) -> float:
    """Rescale a nominal normalized flexibility to arbitrary parameters.

    The nominal result must come from a zero-fixed-power setting; the
    output is the nominal value shrunk by the share of power that scales
    with computing.
    """
    denom = unit_power_kw * total_resources + fixed_power_kw
    if denom <= 0:
        raise ValueError("unit_power_kw * total_resources + fixed_power_kw must be positive")
    return norm_flex_nominal * unit_power_kw * total_resources / denom


def scale_flex_kw(norm_flex_nominal: float, unit_power_kw: float,
                  total_resources: float) -> float:
    """Flexibility in kW implied by a nominal normalized flexibility."""
    return norm_flex_nominal * unit_power_kw * total_resources


def cost_scaling_factor(price_reduction_coeff: float, hourly_unit_price: float,
                        unit_power_kw: float, nominal_econ: EconParams,
                        nominal_unit_power_kw: float) -> float:
    """(A R G_nom) / (G A_nom R_nom): converts nominal ACoF to other parameters."""
    if unit_power_kw <= 0 or nominal_unit_power_kw <= 0:
        raise ValueError("unit powers must be positive")
    if nominal_econ.price_reduction_coeff <= 0 or nominal_econ.hourly_unit_price <= 0:
        raise ValueError("nominal A and R must be positive")
    return (price_reduction_coeff * hourly_unit_price * nominal_unit_power_kw) / (
        unit_power_kw * nominal_econ.price_reduction_coeff * nominal_econ.hourly_unit_price
    )


def scale_acof(acof_nominal: float, price_reduction_coeff: float,
               hourly_unit_price: float, unit_power_kw: float,
               nominal_econ: EconParams, nominal_unit_power_kw: float = 1.0) -> float:
    """Rescale a nominal (no dynamic quota) ACoF via the cost scaling factor."""
    return acof_nominal * cost_scaling_factor(
        price_reduction_coeff, hourly_unit_price, unit_power_kw,
        nominal_econ, nominal_unit_power_kw,
    )


def scale_acof_dq(apcof_nominal: float, aecof_nominal: float,
                  price_reduction_coeff: float, hourly_unit_price: float,
                  unit_power_kw: float, energy_price: float,
                  nominal_econ: EconParams, nominal_unit_power_kw: float = 1.0) -> tuple:
    """Rescale an ACoF split into its (APCoF, AECoF) parts: the price part
    by the cost scaling factor, the energy part linearly in the energy
    price. Their sum is the rescaled ACoF."""
    if nominal_econ.energy_price <= 0:
        raise ValueError("nominal energy price must be positive")
    price_part = apcof_nominal * cost_scaling_factor(
        price_reduction_coeff, hourly_unit_price, unit_power_kw,
        nominal_econ, nominal_unit_power_kw,
    )
    energy_part = aecof_nominal * energy_price / nominal_econ.energy_price
    return price_part, energy_part


@dataclass(frozen=True)
class CsfSample:
    """One cost-scaling-factor sample from a (fast, slow) option pair."""

    provider: str
    device_type: str
    fast_option: CloudOption
    slow_option: CloudOption
    price_reduction_coeff: float
    csf: float

    def __post_init__(self):
        if self.csf <= 0:
            raise ValueError("csf must be positive")


def dedup_same_machine(options: Sequence[CloudOption]) -> list:
    """Drop rental options that are portions of the same physical machine.

    Options with identical provider, model, per-unit price and per-unit
    power describe the same hardware rented in different chunk sizes; only
    the first is kept to avoid over-counting one machine.
    """
    seen = set()
    kept = []
    for opt in options:
        key = (opt.provider, opt.model, round(opt.unit_price, 12),
               round(opt.unit_power_w, 12))
        if key in seen:
            continue
        seen.add(key)
        kept.append(opt)
    return kept


def estimate_csf_samples(options: CloudOptionTable, nominal_econ: EconParams,
                         nominal_unit_power_kw: float = 1.0) -> list:
    """Cost-scaling-factor samples from all comparable option pairs.

    Within each (provider, device type) group, every ordered pair with a
    strictly faster option I and slower option II yields one sample:
    renting II instead of I is the market's price for the implied delay,
    from which the price reduction coefficient of option I follows. Pairs
    are dropped when II needs more than 100% extra computing time (kept at
    exactly 100%) or when II is slower and at least as expensive.
    """
    if len(options) == 0:
        raise ValueError("empty option table")
    kept = dedup_same_machine(options.options)
    groups = {}
    for opt in kept:
        groups.setdefault((opt.provider, opt.device_type), []).append(opt)

    samples = []
    for (provider, device_type), members in sorted(groups.items()):
        for fast in members:
            for slow in members:
                if slow is fast or fast.speed <= slow.speed:
                    continue
                # per-unit compute time and price for a common workload
                d_fast = 1.0 / fast.speed
                d_slow = 1.0 / slow.speed
                extra_time_frac = (d_slow - d_fast) / d_fast
                if extra_time_frac > MAX_EXTRA_TIME_FRAC:
                    continue
                v_fast = d_fast * fast.unit_price
                v_slow = d_slow * slow.unit_price
                if v_slow >= v_fast:
                    continue
                coeff = (v_fast - v_slow) / (extra_time_frac * v_fast)
                csf = cost_scaling_factor(
                    coeff, fast.unit_price, fast.unit_power_w / 1000.0,
                    nominal_econ, nominal_unit_power_kw,
                )
                samples.append(CsfSample(
                    provider=provider,
                    device_type=device_type,
                    fast_option=fast,
                    slow_option=slow,
                    price_reduction_coeff=coeff,
                    csf=csf,
                ))
    if not samples:
        raise ValueError("no comparable option pairs found")
    return samples


def percentile(samples: Sequence[float], p: float) -> float:
    """Inclusive linear-interpolation percentile of a sample."""
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        raise ValueError("percentile of empty sample")
    if not (0.0 <= p <= 100.0):
        raise ValueError("percentile must lie in [0, 100]")
    return float(np.percentile(values, p, method="linear"))


def write_csf_samples(samples: Sequence[CsfSample], path) -> None:
    """Serialize samples to the CSV layout of CSF_SAMPLE_COLUMNS."""
    write_rows(path, CSF_SAMPLE_COLUMNS,
               ((s.provider, s.device_type, s.fast_option.model, s.slow_option.model,
                 repr(s.price_reduction_coeff), repr(s.csf)) for s in samples))
