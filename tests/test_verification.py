"""The controller oracle rejects controllers that break one rule each."""

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


def test_real_controller_passes():
    result = verification.check_controller(seed=0, sequences=20)
    assert verification.CheckResult._fields == ("name", "passed", "detail")
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
