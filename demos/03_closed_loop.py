"""The closed loop: replaying prefixes pulls pass rates back to the center.

A hard-skewed task population wastes most fresh groups: around 43% come
back all-pass or all-fail and are thrown away before the loss ever sees
them. The loop fixes this without touching the task set. Fresh groups
that land in a controlled bucket donate one trajectory as a prefix; the
task is then rerolled out from a partial replay of that prefix, with the
replayed share steered per bucket so rerollout pass rates settle at 1/2.

This demo runs a short experiment per arm on matched seeds and reads the
traces back. Expect the two replay arms to clearly beat the baseline on
valid groups per step, and the adaptive arm's rerollout cohort to sit
near the half-pass line.

Run:  python3 demos/03_closed_loop.py        (a second or two)
"""

import numpy as np
from scipy.special import expit

from passband.config import Arm, parse_config
from passband.controller import PrefixOutcome
from passband.env import conditioned_pass_probability, make_task_population
from passband.harness import aggregate_run, compare_arms, run_experiment

CONFIG_TEXT = "steps = 80\nbatch_size = 64\n"

print("1. What the population looks like before any replay")
print()
population = parse_config(CONFIG_TEXT).population
tasks = make_task_population(population, rng_seed=0)
ps = expit(tasks.base_logit)
print(f"   {len(ps)} tasks, preset {population.preset!r}")
print(f"   fresh pass probability: median {np.median(ps):.3f}, "
      f"mean {ps.mean():.3f}")
print(f"   tasks below p=0.2: {(ps < 0.2).mean():.0%}, "
      f"above p=0.8: {(ps > 0.8).mean():.0%}")
print()

print("2. Why a partial replay can rescue such tasks")
print()
# argmin takes the first of equally close tasks, as min does.
i = int(np.argmin(np.abs(ps - 0.1)))
b, s = tasks.base_logit[i], tasks.prefix_sensitivity[i]
print(f"   take {tasks.task_id[i]}: fresh pass probability "
      f"{ps[i]:.3f}, sensitivity {s:.2f}")
print(f"   {'replayed share':>14} {'p(pass | success prefix)':>25}")
for share in (0.0, 0.25, 0.5, 0.75):
    p = conditioned_pass_probability(b, s, PrefixOutcome.SUCCESS, share)
    print(f"   {share:>14.2f} {p:>25.3f}")
print("   the replayed share is a knob on the child pass rate; the")
print("   controller turns it until observed rates sit at 1/2.")
print()

print("3. Matched-seed comparison across arms")
print()
rows = compare_arms(
    parse_config(CONFIG_TEXT),
    seeds=[0, 1, 2],
    arms=(Arm.BASELINE, Arm.PS_FIX, Arm.PS_ADA),
)
print(f"   {'arm':<12} {'valid/step':>11} {'fresh degen':>12} {'re degen':>9} "
      f"{'re band':>8}")
for arm in ("baseline", "ps-fix", "ps-ada"):
    picked = [r for r in rows if r["arm"] == arm]
    valid = np.mean([r["mean_valid_groups"] for r in picked])
    fresh_degen = np.mean([r["fresh_degenerate_share"] for r in picked])
    if any(r["rerollout_count"] for r in picked):
        re_degen_s = f"{np.nanmean([r['rerollout_degenerate_share'] for r in picked]):.3f}"
        re_band_s = f"{np.nanmean([r['rerollout_target_band_share'] for r in picked]):.3f}"
    else:
        re_degen_s = re_band_s = "--"
    print(f"   {arm:<12} {valid:>11.1f} {fresh_degen:>12.3f} {re_degen_s:>9} "
          f"{re_band_s:>8}")
print()
print("   valid/step counts groups with 0 < k < N, the only ones that")
print("   contribute gradient. Replay manufactures extra informative")
print("   groups from compute the baseline simply discards.")
print()

print("4. Where the adaptive controller settles")
print()
result = run_experiment(parse_config("steps = 200\nbatch_size = 64\nseed = 5\n"))
agg = aggregate_run(result)
print(f"   over 200 steps: {agg['mean_valid_groups']:.1f} valid groups/step")
for label, state in sorted(result.final_states.items()):
    print(f"   bucket {label}: r_b = {state.ratio:.2f}, "
          f"pass-rate ema = {state.ema:.3f}, updates = {state.updates_seen}")
print()
print("   every EMA should sit near 0.5: the loop holds rerollout pass")
print("   rates at the maximum-signal point regardless of which bucket")
print("   the prefix came from.")
