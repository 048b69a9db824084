"""The controller oracle rejects controllers that break one rule each."""

import dataclasses
import hashlib

import pytest

from passband import verification
from passband.controller import update_controller


def ignore_cooldown(state, p, params):
    return update_controller(state._replace(cooldown_remaining=0), p, params)


def wrong_direction(state, p, params):
    new = update_controller(state, p, params)
    ratio = min(
        params.ratio_max,
        max(params.ratio_min, state.ratio - (new.ratio - state.ratio)),
    )
    return new._replace(ratio=ratio)


def offset_ema(state, p, params):
    new = update_controller(state, p, params)
    return new._replace(ema=new.ema + 1e-9)


def freeze_updates_seen(state, p, params):
    new = update_controller(state, p, params)
    return new._replace(updates_seen=state.updates_seen)


def skip_cooldown_rearm(state, p, params):
    new = update_controller(state, p, params)
    if new.ratio != state.ratio:
        return new._replace(cooldown_remaining=0)
    return new


def no_clamp(state, p, params):
    # Bounds just inside (0, 1) clamp nothing a run of 240 updates can reach.
    return update_controller(
        state, p, dataclasses.replace(params, ratio_min=1e-9, ratio_max=1.0 - 1e-9)
    )


def move_in_deadzone(state, p, params):
    return update_controller(state, p, dataclasses.replace(params, deadzone=0.0))


def test_real_controller_passes():
    result = verification.check_controller(seed=0, sequences=20)
    assert verification.CheckResult._fields == ("name", "passed", "detail")
    assert result.passed
    assert result.detail == "half-crossing at update 14; 20 sequences per bucket clean"


def test_oracle_holds_the_ratio_at_both_bounds(monkeypatch):
    ratios = []

    def recording(state, p, params):
        new = update_controller(state, p, params)
        ratios.append(new.ratio)
        return new

    monkeypatch.setattr(verification, "update_controller", recording)
    assert verification.check_controller(seed=0, sequences=20).passed
    # Each of the four buckets holds each bound for over 30 updates.
    assert ratios.count(0.05) > 4 * 30
    assert ratios.count(0.95) > 4 * 30


def test_oracle_feeds_the_pinned_stream(monkeypatch):
    # Every drawn observation reaches the controller, in order, on a passing
    # run. The oracle's fixed sequences feed only 0.0 and 1.0, and a drawn
    # rng.random() value lies in (0, 1) here, so the draws are told apart.
    observations = []

    def recording(state, p, params):
        observations.append(p)
        return update_controller(state, p, params)

    monkeypatch.setattr(verification, "update_controller", recording)
    assert verification.check_controller(seed=0, sequences=20).passed
    drawn = [p for p in observations if 0.0 < p < 1.0]
    digest = hashlib.sha256(" ".join(map(float.hex, drawn)).encode()).hexdigest()
    assert len(drawn) == 1535
    assert digest == "05b136313d42179fd67b6b0edd0aa14daf488950747e3b4549450f2fe2e2e920"


@pytest.mark.parametrize(
    "mutant, problem",
    [
        (ignore_cooldown, "ratio changed during cooldown"),
        (wrong_direction, "ratio moved in the wrong direction"),
        (offset_ema, "ema update mismatch"),
        (freeze_updates_seen, "updates_seen did not increment"),
        (skip_cooldown_rearm, "cooldown not re-armed after a change"),
        # The drawn sequences keep the ratio inside [0.25, 0.75]; only the
        # fixed run to both bounds can catch a missing clamp.
        (no_clamp, "escaped bounds"),
        (move_in_deadzone, "ratio changed inside the deadzone"),
    ],
)
def test_broken_controller_fails(monkeypatch, mutant, problem):
    monkeypatch.setattr(verification, "update_controller", mutant)
    result = verification.check_controller(seed=0, sequences=20)
    assert not result.passed
    assert problem in result.detail


@pytest.mark.parametrize(
    "mutant, detail",
    [
        (
            ignore_cooldown,
            "bucket 1/8, sequence 2: only 5 updates between ratio changes; "
            "bucket 2/8, sequence 0: only 2 updates between ratio changes; "
            "bucket 6/8, sequence 0: ratio changed during cooldown; "
            "bucket 7/8, sequence 0: ratio changed during cooldown",
        ),
        (
            wrong_direction,
            "bucket 1/8, sequence 2: ratio moved in the wrong direction; "
            "bucket 2/8, sequence 0: ratio moved in the wrong direction; "
            "bucket 6/8, sequence 0: ratio moved in the wrong direction; "
            "bucket 7/8, sequence 0: ratio moved in the wrong direction",
        ),
        (
            offset_ema,
            "bucket 1/8, sequence 0: ema update mismatch; "
            "bucket 2/8, sequence 0: ema update mismatch; "
            "bucket 6/8, sequence 0: ema update mismatch; "
            "bucket 7/8, sequence 0: ema update mismatch",
        ),
        (
            freeze_updates_seen,
            "bucket 1/8, sequence 0: updates_seen did not increment; "
            "bucket 2/8, sequence 0: updates_seen did not increment; "
            "bucket 6/8, sequence 0: updates_seen did not increment; "
            "bucket 7/8, sequence 0: updates_seen did not increment",
        ),
        (
            skip_cooldown_rearm,
            "bucket 1/8, sequence 2: cooldown not re-armed after a change; "
            "bucket 2/8, sequence 0: cooldown not re-armed after a change; "
            "bucket 6/8, sequence 0: cooldown not re-armed after a change; "
            "bucket 7/8, sequence 0: cooldown not re-armed after a change",
        ),
    ],
)
def test_broken_controller_verdicts_pinned(monkeypatch, mutant, detail):
    # The full verdict carries every failing bucket and sequence index, so
    # it pins both the oracle's checks and the observation stream it draws.
    monkeypatch.setattr(verification, "update_controller", mutant)
    assert verification.check_controller(seed=0, sequences=20).detail == detail
