"""How a bucket's replay-share controller reacts to observed pass rates.

Each controlled bucket owns one scalar: the replay share r_b, the fraction
of a saved trajectory that reroll-outs replay before sampling fresh
continuations. The controller smooths observed child pass rates with an
EMA (alpha = 0.05), ignores wobble inside a deadzone around the 0.5
target, and otherwise nudges r_b by one step (0.05) in the direction that
moves future pass rates back toward the target, then holds still for a
cooldown (5 updates) so it never chases its own transient.

Hard buckets replay *successful* prefixes: replaying more of one raises
the child pass rate, so an EMA above target means r_b must come DOWN.
Easy buckets replay failing prefixes and invert the rule.

Run:  python3 demos/02_controller_dynamics.py
"""

import numpy as np
from scipy.special import expit, logit

from passband.controller import (
    BucketControllerState,
    ControllerParams,
    initial_controller_state,
    update_controller,
)
from passband.groups import classify_bucket

params = ControllerParams()
hard = classify_bucket(1, 8)

print("1. EMA memory: how long until the smoother crosses the half line?")
print()
state = BucketControllerState(kind=hard, ratio=0.5, ema=1.0)
updates = 0
while state.ema >= 0.5:
    state = update_controller(state, 0.0, params)
    updates += 1
print(f"   starting at ema=1.0 and feeding constant 0.0 observations,")
print(f"   the EMA first drops below 0.5 at update {updates}.")
print(f"   check: 0.95^13 = {0.95**13:.6f} > 0.5 > 0.95^14 = {0.95**14:.6f}")
print()

print("2. Open loop vs closed loop: only feedback anchors the ratio")
print()
# Open loop: the observations ignore r_b entirely, so even perfectly
# centered Binomial(8, 0.5)/8 noise lets the ratio random-walk. The EMA
# has a standard deviation near 0.028 against a deadzone of 0.03, and it
# stays on one side of the deadzone for ~1/alpha updates at a time, so
# excursions fire several correlated steps before decaying.
rng = np.random.default_rng(0)
state = initial_controller_state(hard, params)
for _ in range(200):
    state = update_controller(state, rng.binomial(8, 0.5) / 8, params)
print(f"   open loop, 200 centered draws: r_b drifted 0.50 -> {state.ratio:.2f}")
print()
# Closed loop: the child pass rate responds to the ratio, here through
# p(r) = expit(logit(0.1) + 4.4 r), which crosses 1/2 near r = 0.5. Any
# drift now shifts future observations against itself.
rng = np.random.default_rng(0)
state = initial_controller_state(hard, params)
ratios = []
for _ in range(200):
    p = expit(logit(0.1) + 4.4 * state.ratio)
    state = update_controller(state, rng.binomial(8, p) / 8, params)
    ratios.append(state.ratio)
print(f"   closed loop on p(r) = expit(logit(0.1) + 4.4 r):")
print(f"   final r_b = {state.ratio:.2f}, last-100 mean r_b = "
      f"{np.mean(ratios[-100:]):.3f}, final ema = {state.ema:.3f}")
print("   the deadzone and cooldown only slow the walk; the restoring")
print("   force comes from the observations depending on the ratio.")
print()

print("3. A hard bucket whose children pass far too often gets walked down:")
print()
state = initial_controller_state(hard, params)
print(f"   {'update':>6} {'observed':>9} {'ema':>7} {'r_b':>5} {'cooldown':>9}")
for i in range(1, 25):
    state = update_controller(state, 0.9, params)
    if i <= 8 or state.cooldown_remaining == params.cooldown or i == 24:
        print(
            f"   {i:>6} {0.9:>9.2f} {state.ema:>7.4f} {state.ratio:>5.2f} "
            f"{state.cooldown_remaining:>9}"
        )
print()
print("   each 0.05 cut is followed by a 5-update hold; the ratio floor")
print(f"   is {params.ratio_min}, so the walk can never reach zero replay.")
print()

print("4. Easy buckets invert the direction:")
print()
easy = classify_bucket(7, 8)
state = initial_controller_state(easy, params)
for _ in range(6):
    state = update_controller(state, 0.95, params)
print(f"   after six 0.95 observations an easy bucket has r_b = {state.ratio:.2f}")
print("   (raised: replaying MORE of a failing prefix lowers the child")
print("   pass rate toward target, so persistent over-passing raises r_b).")
