"""The controller oracle rejects controllers that break one rule each; every
suite fails with its full list of failures when the code it checks is wrong;
the Monte Carlo oracle counts its draws a chunk at a time to the same verdict
as one draw of every group; every oracle size is an int >= 1, every seed an
int >= 0 and the enumerated group sizes reach at least 2."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from passband import verification
from passband.advantages import _group_losses, loss_gradient
from passband.controller import prefix_pool_memory_bound, update_controller
from passband.errors import DomainError
from passband.signals import (
    contrastive_pair_count,
    expected_pair_count,
    group_survival_probability,
    reward_entropy,
    rloo_advantage_energy,
)


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


def nan_ema(state, p, params):
    # A nan is above no bound: the EMA check must be written to fail on it.
    return update_controller(state, p, params)._replace(ema=float("nan"))


def table_zero_for_every_copy(group_trajectories, adv, tables, **options):
    # The batched loss with copy k's k*V token offset dropped: every copy of
    # the group reads the first perturbed table.
    return _group_losses(group_trajectories, adv, np.repeat(tables[:1], len(tables), 0), **options)


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
        (nan_ema, "ema update mismatch"),
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


def slow_ema(state, p, params):
    # An EMA rate of 0.1 crosses 0.5 at update 7 (0.9^7 < 0.5 < 0.9^6).
    return update_controller(state, p, dataclasses.replace(params, alpha=0.1))


@pytest.mark.parametrize(
    "target, mutant, check, detail",
    [
        (
            "reward_entropy", lambda p: reward_entropy(p) + 0.01,
            verification.check_landmarks,
            "H(0.5): got 1.01, want 1.0 +/- 1e-12; "
            "H(0.25): got 0.8212781244591328, want 0.8113 +/- 0.0001; "
            "H(0.125): got 0.5535644431995964, want 0.5436 +/- 0.0001; "
            "H(0): got 0.01, want 0.0 +/- 1e-12",
        ),
        (
            "contrastive_pair_count", lambda k, n: contrastive_pair_count(k, n) + 1,
            verification.check_landmarks,
            "pair counts: got [1, 8, 13, 16, 17, 16, 13, 8, 1]",
        ),
        (
            "rloo_advantage_energy", lambda k, n: 1.5 * rloo_advantage_energy(k, n),
            verification.check_advantage_oracles,
            "max |closed form - enumeration| = 5.000e-01 over N <= 12",
        ),
        (
            "loss_gradient", lambda *args, **options: loss_gradient(*args, **options) + 0.5,
            lambda: verification.check_gradients(0, 3),
            "instance 0: max gap 5.000e-01; instance 1: max gap 5.000e-01; "
            "instance 2: max gap 5.000e-01; prefix-only context rows are not exactly zero; "
            "zero advantages did not give an exactly zero gradient",
        ),
        (
            "update_controller", slow_ema, lambda: verification.check_controller(0, 20),
            "EMA crossed 0.5 at update 7, want 14; "
            "bucket 1/8, sequence 0: ema update mismatch; "
            "bucket 2/8, sequence 0: ema update mismatch; "
            "bucket 6/8, sequence 0: ema update mismatch; "
            "bucket 7/8, sequence 0: ema update mismatch",
        ),
        (
            "prefix_pool_memory_bound", lambda *args: 2 * prefix_pool_memory_bound(*args),
            verification.check_memory_bounds,
            "(128, 2048, 16384): got 17.2000 MiB, want 8.6; "
            "(64, 4096, 32768): got 17.2000 MiB, want 8.6; "
            "(64, 4096, 65536): got 32.4000 MiB, want 16.2",
        ),
        (
            "_group_losses", table_zero_for_every_copy, lambda: verification.check_gradients(0, 3),
            "instance 0: max gap 7.291e-02; instance 1: max gap 5.644e-02; "
            "instance 2: max gap 8.632e-02",
        ),
    ],
    ids=["landmark-entropy", "landmark-pairs", "advantage-oracles", "gradients", "controller",
         "memory-bounds", "gradients-batched-loss"],
)
def test_broken_suite_verdicts_pinned(monkeypatch, target, mutant, check, detail):
    # A suite that finds failures fails, and its detail lists every one of
    # them in the order checked, in place of what a passing run reports.
    monkeypatch.setattr(verification, target, mutant)
    result = check()
    assert result.passed is False
    assert result.detail == detail


@pytest.mark.parametrize(
    "target, check, nans",
    [
        ("rloo_advantage_energy", verification.check_advantage_oracles, 1),
        ("mean_centered_advantage_variance", verification.check_advantage_oracles, 1),
        ("group_survival_probability", verification.check_monte_carlo, 3),
        ("expected_pair_count", verification.check_monte_carlo, 3),
        ("prefix_pool_memory_bound", verification.check_memory_bounds, 3),
    ],
)
def test_a_nan_closed_form_fails_its_suite(monkeypatch, target, check, nans):
    # Each of these suites passed a nan: max(worst, gap) drops a nan gap, and
    # a nan gap is above no bound. Every comparison with a nan must fail.
    monkeypatch.setattr(verification, target, lambda *args: float("nan"))
    result = check()
    assert result.passed is False
    assert result.detail.count("nan") == nans


def one_shot_monte_carlo(seed, draws):
    """check_monte_carlo's statistics and verdict from one binomial call per
    rate and np.mean over every draw: the reference the counts must equal."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 777)))
    n, stats, failures, details = 8, [], [], []
    for p in (0.125, 0.25, 0.5):
        ks = rng.binomial(n, p, size=draws)
        survival = float(np.mean((ks > 0) & (ks < n)))
        pair_mean = float(np.mean(ks * (n - ks)))
        stats += [survival, pair_mean]
        expected = group_survival_probability(p, n)
        if abs(survival - expected) > 3.0 * np.sqrt(expected * (1.0 - expected) / draws):
            failures.append(f"survival at p={p}: |{survival:.6f} - {expected:.6f}| > 3se")
        pair_expected = expected_pair_count(p, n)
        if abs(pair_mean - pair_expected) > 0.05:
            failures.append(
                f"pair mean at p={p}: |{pair_mean:.4f} - {pair_expected:.4f}| > 0.05"
            )
        details.append(f"p={p}: surv {survival:.5f}, pairs {pair_mean:.3f}")
    result = verification.CheckResult(
        "monte carlo survival and pair count", not failures,
        "; ".join(failures if failures else details),
    )
    return result, stats


def counted_statistics(monkeypatch, seed, draws):
    """check_monte_carlo's result and the survival and pair-mean floats it
    compared, in rate order: each statistic passes through float() once."""
    stats = []

    def recorded(value):
        stats.append(float(value))
        return stats[-1]

    monkeypatch.setattr(verification, "float", recorded, raising=False)
    return verification.check_monte_carlo(seed, draws), stats


@pytest.mark.parametrize(
    "seed, draws, chunk",
    [(0, 10**5 + 7, 1000), (5, 10**5 + 7, 1000), (2101, 10**6, 2**14), (7, 999, 1000)],
    ids=["seed-0", "seed-5", "false-alarm-2101", "one-short-chunk"],
)
def test_monte_carlo_chunks_match_one_shot(monkeypatch, seed, draws, chunk):
    # Counts over chunks give the verdict, the detail and every raw float of
    # one draw of every group; 2101 is a known false alarm and keeps it.
    monkeypatch.setattr(verification, "_MC_CHUNK", chunk)
    result, stats = counted_statistics(monkeypatch, seed, draws)
    want, want_stats = one_shot_monte_carlo(seed, draws)
    assert result == want
    assert list(map(repr, stats)) == list(map(repr, want_stats))
    if seed == 2101:
        assert not result.passed
        assert result.detail == "survival at p=0.125: |0.657848 - 0.656391| > 3se"


def test_monte_carlo_memory_does_not_grow_with_draws():
    # One draw of every group held 7.6 MiB of int64 per rate, plus three
    # full-size temporaries: a tracemalloc peak of 15.3 MiB.
    tracemalloc.start()
    try:
        assert verification.check_monte_carlo(0, 10**6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "check, name",
    [
        (verification.check_monte_carlo, "draws"),
        (verification.check_gradients, "instances"),
        (verification.check_controller, "sequences"),
    ],
)
@pytest.mark.parametrize("value", [0, -1, 2.0, True])
def test_oracle_sizes_are_ints_of_at_least_one(check, name, value):
    # -1 instances or sequences checked nothing and passed; 0 draws gave nan
    # statistics, and the check passed.
    with pytest.raises(DomainError, match=f"^{name} must be an int >= 1, got {value!r}$"):
        check(0, **{name: value})


@pytest.mark.parametrize(
    "check",
    [verification.check_monte_carlo, verification.check_gradients,
     verification.check_controller],
)
@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_oracle_seeds_are_ints_of_at_least_zero(check, seed):
    # -1 failed inside numpy's SeedSequence with a bare ValueError, 1.5 with
    # a TypeError, and True ran as seed 1.
    want = re.escape(f"seed must be an int >= 0, got {seed!r}") + "$"
    with pytest.raises(DomainError, match=f"^{want}"):
        check(seed, 1)


@pytest.mark.parametrize("max_n", [1, -5, 2.5, True])
def test_advantage_oracle_needs_a_group_size_to_enumerate(max_n):
    # Below 2 the enumeration was empty and the check passed having checked
    # nothing; 2.5 failed inside range() with a bare TypeError.
    want = re.escape(f"max_n must be an int >= 2, got {max_n!r}") + "$"
    with pytest.raises(DomainError, match=f"^{want}"):
        verification.check_advantage_oracles(max_n)
    assert verification.check_advantage_oracles(2).passed
