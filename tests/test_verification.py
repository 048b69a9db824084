"""The controller oracle rejects controllers that break one rule each."""

from dataclasses import replace

import pytest

from passband import verification
from passband.controller import update_controller


def ignore_cooldown(state, p, params):
    return update_controller(replace(state, cooldown_remaining=0), p, params)


def wrong_direction(state, p, params):
    new = update_controller(state, p, params)
    ratio = min(
        params.ratio_max,
        max(params.ratio_min, state.ratio - (new.ratio - state.ratio)),
    )
    return replace(new, ratio=ratio)


def offset_ema(state, p, params):
    new = update_controller(state, p, params)
    return replace(new, ema=new.ema + 1e-9)


def freeze_updates_seen(state, p, params):
    new = update_controller(state, p, params)
    return replace(new, updates_seen=state.updates_seen)


def skip_cooldown_rearm(state, p, params):
    new = update_controller(state, p, params)
    if new.ratio != state.ratio:
        return replace(new, cooldown_remaining=0)
    return new


def test_real_controller_passes():
    result = verification.check_controller(seed=0, sequences=20)
    assert result.passed
    assert result.detail == "half-crossing at update 14; 20 sequences per bucket clean"


@pytest.mark.parametrize(
    "mutant, problem",
    [
        (ignore_cooldown, "ratio changed during cooldown"),
        (wrong_direction, "ratio moved in the wrong direction"),
        (offset_ema, "ema update mismatch"),
        (freeze_updates_seen, "updates_seen did not increment"),
        (skip_cooldown_rearm, "cooldown not re-armed after a change"),
    ],
)
def test_broken_controller_fails(monkeypatch, mutant, problem):
    monkeypatch.setattr(verification, "update_controller", mutant)
    result = verification.check_controller(seed=0, sequences=20)
    assert not result.passed
    assert problem in result.detail
