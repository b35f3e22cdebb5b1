from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcflex.ingest import CloudOption, CloudOptionTable, parse_cloud_pricing, read_rows
from dcflex.model import EconParams
from dcflex.preprocess import baseline_profile
from dcflex.problem import build_flexmax
from dcflex.scaling import (
    CSF_SAMPLE_COLUMNS,
    cost_scaling_factor,
    dedup_same_machine,
    estimate_csf_samples,
    percentile,
    scale_acof,
    scale_acof_dq,
    scale_flex_kw,
    scale_flex_norm,
    write_csf_samples,
)
from dcflex.solve import solve

from conftest import random_instance, random_plan

DATA = Path(__file__).parent / "data"
NOMINAL = EconParams(0.5, 1.0, 0.05)


def test_scale_flex_norm():
    assert scale_flex_norm(0.8, 1.0, 100.0, 0.0) == pytest.approx(0.8)
    assert scale_flex_norm(0.8, 1.0, 100.0, 100.0) == pytest.approx(0.4)


@given(st.floats(0, 1), st.floats(0.01, 100), st.floats(0.01, 1e4), st.floats(0, 1e4))
def test_scale_flex_norm_never_grows(norm, g, nr, g0):
    scaled = scale_flex_norm(norm, g, nr, g0)
    assert scaled <= norm + 1e-12
    if g0 == 0:
        assert scaled == pytest.approx(norm)


def test_scale_flex_kw():
    assert scale_flex_kw(1.0, 1.0, 2.0) == pytest.approx(2.0)  # recovers the tiny fixture
    assert scale_flex_kw(0.0, 3.0, 50.0) == 0.0
    assert scale_flex_kw(0.5, 2.0, 10.0) == 2 * scale_flex_kw(0.5, 1.0, 10.0)


def test_scale_acof():
    assert scale_acof(0.7, 0.5, 1.0, 1.0, NOMINAL, 1.0) == pytest.approx(0.7)
    # factor (1*2*1)/(0.5*0.5*1) = 8 applied to a nominal 0.5
    assert scale_acof(0.5, 1.0, 2.0, 0.5, NOMINAL, 1.0) == pytest.approx(4.0)
    # applying a published median factor multiplies the nominal result by it
    assert scale_acof(0.1, 0.5 * 11.37, 1.0, 1.0, NOMINAL, 1.0) == pytest.approx(1.137)


def test_scale_acof_dq():
    same = scale_acof_dq(0.2, 0.1, 0.5, 1.0, 1.0, 0.05, NOMINAL, 1.0)
    assert same == pytest.approx((0.2, 0.1))
    doubled_pi = scale_acof_dq(0.2, 0.1, 0.5, 1.0, 1.0, 0.10, NOMINAL, 1.0)
    assert doubled_pi == pytest.approx((0.2, 0.2))
    scaled = scale_acof_dq(0.0, 0.1, 0.5, 1.0, 1.0, 0.10, NOMINAL, 1.0)
    assert scaled == pytest.approx((0.0, 0.2))
    with pytest.raises(ValueError, match="energy price"):
        scale_acof_dq(0.2, 0.0, 0.5, 1.0, 1.0, 0.05, EconParams(energy_price=0.0), 1.0)


def _option(provider, model, speed, price, power_w, device="gpu", count=1.0):
    return CloudOption(provider=provider, device_type=device, model=model,
                       unit_count=count, unit_price=price, unit_power_w=power_w,
                       speed=speed)


def test_estimate_csf_worked_pair():
    table = CloudOptionTable([
        _option("p", "fast", speed=2.0, price=2.0, power_w=500.0),
        _option("p", "slow", speed=1.5, price=0.9, power_w=400.0),
    ])
    samples = estimate_csf_samples(table, NOMINAL, 1.0)
    assert len(samples) == 1
    s = samples[0]
    assert s.fast_option.model == "fast"
    assert s.price_reduction_coeff == pytest.approx(1.2, rel=1e-12)
    assert s.csf == pytest.approx(9.6, rel=1e-12)


def test_estimate_csf_filters():
    fast = _option("p", "fast", speed=2.0, price=2.0, power_w=500.0)
    pricier_slower = _option("p", "bad", speed=1.5, price=1.9, power_w=400.0)
    boundary = _option("p", "half", speed=1.0, price=0.5, power_w=300.0)
    too_slow = _option("p", "crawl", speed=0.99, price=0.1, power_w=300.0)
    table = CloudOptionTable([fast, pricier_slower, boundary, too_slow])
    samples = estimate_csf_samples(table, NOMINAL, 1.0)
    pairs = {(s.fast_option.model, s.slow_option.model) for s in samples}
    # fast->bad dropped (slower and more expensive: V 1.267 >= 1.0)
    assert ("fast", "bad") not in pairs
    # fast->half kept exactly at the 2x boundary
    assert ("fast", "half") in pairs
    # fast->crawl dropped (2.02x slower)
    assert ("fast", "crawl") not in pairs
    # bad->crawl and half->crawl survive on their own merits
    assert ("bad", "crawl") in pairs and ("half", "crawl") in pairs
    half = next(s for s in samples if s.slow_option.model == "half")
    assert half.price_reduction_coeff == pytest.approx(0.5, rel=1e-12)
    assert half.csf == pytest.approx(4.0, rel=1e-12)


def test_estimate_csf_dedup_and_groups():
    table = CloudOptionTable([
        _option("p", "fast", speed=2.0, price=2.0, power_w=500.0),
        _option("p", "fast", speed=2.0, price=2.0, power_w=500.0, count=4.0),
        _option("p", "slow", speed=1.5, price=0.9, power_w=400.0),
        _option("q", "lonely", speed=9.0, price=1.0, power_w=100.0),
        _option("p", "cpuish", speed=10.0, price=1.0, power_w=100.0, device="cpu"),
    ])
    assert len(dedup_same_machine(table.options)) == 4
    samples = estimate_csf_samples(table, NOMINAL, 1.0)
    assert len(samples) == 1  # duplicates merged, cross-provider/type never paired


def test_estimate_csf_errors():
    with pytest.raises(ValueError, match="empty"):
        estimate_csf_samples(CloudOptionTable([]), NOMINAL, 1.0)
    table = CloudOptionTable([_option("p", "only", 2.0, 2.0, 500.0)])
    with pytest.raises(ValueError, match="no comparable"):
        estimate_csf_samples(table, NOMINAL, 1.0)


def test_csf_fixture_file(tmp_path):
    options = parse_cloud_pricing(DATA / "pricing_six_options.csv")
    samples = estimate_csf_samples(options, NOMINAL, 1.0)
    got = {(s.provider, s.fast_option.model, s.slow_option.model):
           (s.price_reduction_coeff, s.csf) for s in samples}
    assert set(got) == {("alpha", "FastCard", "SlowCard"),
                        ("beta", "BigCard", "HalfSpeed")}
    a, csf = got[("alpha", "FastCard", "SlowCard")]
    assert a == pytest.approx(1.2, rel=1e-12) and csf == pytest.approx(9.6, rel=1e-12)
    a, csf = got[("beta", "BigCard", "HalfSpeed")]
    assert a == pytest.approx(0.5, rel=1e-12) and csf == pytest.approx(4.0, rel=1e-12)
    out = tmp_path / "samples.csv"
    write_csf_samples(samples, out)
    header, *rows = out.read_text().splitlines()
    assert header == "provider,device_type,fast_model,slow_model,A,csf"
    assert len(rows) == 2

    # a model name with a comma and a double quote reads back as written
    quoted = replace(samples[0], fast_option=replace(samples[0].fast_option,
                                                     model='Fast, "80GB"'))
    write_csf_samples([quoted], out)
    with read_rows(out, "samples") as (header, reader):
        assert tuple(header) == CSF_SAMPLE_COLUMNS
        assert list(reader) == [[quoted.provider, "gpu", 'Fast, "80GB"',
                                 quoted.slow_option.model, repr(quoted.price_reduction_coeff),
                                 repr(quoted.csf)]]


def test_percentile():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile([5.0], 30) == 5.0
    values = [3.0, 1.0, 4.0, 1.5]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 120)


def test_solve_scale_commutation():
    # with zero fixed power, re-solving at unit power G' scales the optimum by G'
    rng = np.random.default_rng(21)
    from dataclasses import replace

    checked = 0
    for _ in range(10):
        grid, jobs, spec, base = random_instance(rng)
        plan = random_plan(rng, grid)
        nominal = solve(build_flexmax(jobs, spec, base, plan))
        if not nominal.ok or nominal.mean_flex_kw < 1e-9:
            continue
        g_new = 2.5
        spec2 = replace(spec, unit_power_kw=g_new)
        base2 = baseline_profile(jobs, spec2, grid)
        scaled = solve(build_flexmax(jobs, spec2, base2, plan))
        assert scaled.mean_flex_kw == pytest.approx(g_new * nominal.mean_flex_kw, rel=1e-9)
        norm = nominal.mean_flex_kw / spec.max_power_kw
        assert scale_flex_kw(norm, g_new, spec.total_resources) == \
            pytest.approx(scaled.mean_flex_kw, rel=1e-9)
        checked += 1
    assert checked >= 5


def test_cost_scaling_factor_validation():
    with pytest.raises(ValueError):
        cost_scaling_factor(0.5, 1.0, 0.0, NOMINAL, 1.0)
    with pytest.raises(ValueError):
        cost_scaling_factor(0.5, 1.0, 1.0, EconParams(0.0, 1.0, 0.05), 1.0)
