import pytest
from hypothesis import given, strategies as st

from dcflex.model import (
    ActivationPlan,
    DataCenterSpec,
    JobTable,
    ServiceSpec,
    TimeGrid,
    activations_per_window,
    duration_to_steps,
    round_half_away,
)


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(0.0) == 0


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_round_half_away_integers_fixed(n):
    assert round_half_away(float(n)) == n


def test_default_grid():
    grid = TimeGrid()
    assert grid.step_minutes == 15
    assert grid.steps == 960
    assert grid.horizon_days == 10.0
    assert grid.steps_per_day == 96
    assert grid.step_hours == 0.25


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(step_minutes=0)
    with pytest.raises(ValueError):
        TimeGrid(steps=0)


def test_activations_per_window():
    assert activations_per_window(2920, 10) == 80
    assert activations_per_window(365, 10) == 10
    assert activations_per_window(36.5, 10) == 1
    # minimum clamps to one activation
    assert activations_per_window(1, 10) == 1
    with pytest.raises(ValueError):
        activations_per_window(0, 10)


def test_duration_to_steps():
    grid = TimeGrid(step_minutes=15.0, steps=960)
    assert duration_to_steps(0.25, grid) == 1
    assert duration_to_steps(2.0, grid) == 8
    assert duration_to_steps(0.2, grid) == 1  # 0.8 steps rounds up
    with pytest.raises(ValueError):
        duration_to_steps(0.0, grid)


def test_job_table_round_trip():
    table = JobTable(["a", "b"], [1, 5], [2, 3], [1.0, 0.5])
    assert (table.complete_step == [2, 7]).all()
    assert table.workload() == 2 * 1.0 + 3 * 0.5


def test_datacenter_spec_validation():
    with pytest.raises(ValueError):
        DataCenterSpec(total_resources=0)
    with pytest.raises(ValueError):
        DataCenterSpec(total_resources=1, preempt_budget_frac=0)
    with pytest.raises(ValueError):
        DataCenterSpec(total_resources=1, device_class="tpu")
    spec = DataCenterSpec(total_resources=10, unit_power_kw=2, fixed_power_kw=5)
    assert spec.max_power_kw == 25


def test_service_spec_from_requirements():
    grid = TimeGrid(15, 960)
    svc = ServiceSpec.from_requirements(2.0, 365, grid)
    assert svc.duration_steps == 8
    assert svc.window_count == 10
    svc = ServiceSpec.from_requirements(0.25, 2920, grid)
    assert svc.duration_steps == 1
    assert svc.window_count == 80
    with pytest.raises(ValueError):
        # 80 windows of 4 h exceed the 10-day horizon at 15-minute steps
        ServiceSpec.from_requirements(48.0, 2920, grid)


def test_activation_plan_validation():
    grid = TimeGrid(15, 10)
    plan = ActivationPlan(windows=((1, 2), (5, 6)), grid=grid)
    assert plan.count == 2
    assert plan.duration_steps == 2
    with pytest.raises(ValueError):
        ActivationPlan(windows=((1, 2), (2, 3)), grid=grid)  # overlap
    with pytest.raises(ValueError):
        ActivationPlan(windows=((0, 1),), grid=grid)  # out of range
    with pytest.raises(ValueError):
        ActivationPlan(windows=((1, 2), (5, 7)), grid=grid)  # unequal length
