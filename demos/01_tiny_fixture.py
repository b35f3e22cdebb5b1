# A two-job micro data center, small enough to check every number by hand.
#
# Two jobs submit at step 1 and need two 15-minute steps on one device each;
# the data center has two devices at 1 kW apiece. One service activation
# covers step 1. With a 100% delay allowance both jobs can vacate step 1
# entirely, so the sustained flexibility equals the full 2 kW baseline.

from pathlib import Path

from dcflex import (
    ActivationPlan,
    DataCenterSpec,
    EconParams,
    JobTable,
    TimeGrid,
    baseline_profile,
    build_costmin,
    build_flexmax,
    solve,
    tightening_bound,
    write_model,
)

grid = TimeGrid(step_minutes=15, steps=4)
jobs = JobTable(["a", "b"], submit_step=[1, 1], compute_steps=[2, 2], resources=[1, 1])
spec = DataCenterSpec(
    total_resources=2,
    unit_power_kw=1.0,
    preempt_overhead_min=0.5,
    max_delay_frac=1.0,
    device_class="cpu_general",
)
baseline = baseline_profile(jobs, spec, grid)
print("baseline power per step [kW]:", baseline.power_kw.tolist())

plan = ActivationPlan(windows=((1, 1),), grid=grid)
flex = solve(build_flexmax(jobs, spec, baseline, plan))
print("maximum sustained flexibility [kW]:", flex.mean_flex_kw)

# now the cheapest way to deliver the full 2 kW: both jobs slip one step,
# each paying half its delay-proportional price cut
econ = EconParams(price_reduction_coeff=0.5, hourly_unit_price=1.0, energy_price=0.05)
cost = solve(build_costmin(jobs, spec, econ, baseline, plan, target_kw=2.0))
print("minimum flexibility cost [USD]:", cost.total_cost)
print("analytic lower bound [USD]:", tightening_bound(econ, spec, plan, 2.0))

shifted_kwh = grid.step_hours * plan.count * plan.duration_steps * 2.0
print("average cost of flexibility [USD/kWh]:", cost.total_cost / shifted_kwh)

# the models export as LP or MPS files for inspection with external tools
lp_file = Path(__file__).parent / "out" / "tiny_flexmax.lp"
lp_file.parent.mkdir(exist_ok=True)
write_model(build_flexmax(jobs, spec, baseline, plan), lp_file)
print(f"\nfirst lines of {lp_file.name}:")
print("\n".join(lp_file.read_text().splitlines()[:6]))
