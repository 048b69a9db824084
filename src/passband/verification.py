"""Independent oracle suites for the package's numerical claims.

Every check pits a closed form against a second route that does not share
code with it: explicit advantage enumeration, Monte Carlo sampling, or
central finite differences. The CLI `verify` subcommand runs these and
fails loudly; the test suite reuses them so the two entry points cannot
drift apart.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

# finite_difference_gradient scores the group through the batched loss;
# masked_grpo_loss, its one-policy form, stays importable from here for code
# that looks the loss up on this module.
from .advantages import (  # noqa: F401
    TokenTrajectory,
    ToyPolicy,
    _check_group,
    _group_losses,
    _log_softmax,
    loss_gradient,
    masked_grpo_loss,
    mean_centered_advantages,
    rloo_advantages,
)
from .controller import (
    BucketControllerState,
    ControllerParams,
    initial_controller_state,
    prefix_pool_memory_bound,
    update_controller,
)
from .errors import DomainError, check_int, is_real
from .groups import BucketKind, bucket_label, classify_bucket, controlled_buckets
from .signals import (
    contrastive_pair_count,
    expected_pair_count,
    group_survival_probability,
    mean_centered_advantage_variance,
    reward_entropy,
    rloo_advantage_energy,
)

__all__ = [
    "CheckResult",
    "check_landmarks",
    "check_advantage_oracles",
    "check_monte_carlo",
    "finite_difference_gradient",
    "check_gradients",
    "check_controller",
    "check_memory_bounds",
    "run_default_checks",
]

_MIB = 1024.0 * 1024.0
# Group pass counts drawn per binomial call of check_monte_carlo: 256 KiB of
# int64 at a time.
_MC_CHUNK = 2**15
# Floats of perturbed log-prob tables and their group copies' tokens scored
# per kernel call of finite_difference_gradient: 256 KiB at a time.
_FD_FLOATS = 2**15


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _verdict(name: str, failures: list[str], detail: str) -> CheckResult:
    """Passes when nothing failed; the detail lists the failures, or else says what held."""
    return CheckResult(name, not failures, "; ".join(failures) if failures else detail)


def check_landmarks() -> CheckResult:
    """Reference values of the signal quantities at N = 8.

    Rounded targets are held to 1e-4, exact rationals to 1e-12.
    """
    failures: list[str] = []

    def close(label: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            failures.append(f"{label}: got {got!r}, want {want} +/- {tol}")

    close("H(0.5)", reward_entropy(0.5), 1.0, 1e-12)
    close("H(0.25)", reward_entropy(0.25), 0.8113, 1e-4)
    close("H(0.125)", reward_entropy(0.125), 0.5436, 1e-4)
    close("H(0)", reward_entropy(0.0), 0.0, 1e-12)
    close("S_8(0.5)", group_survival_probability(0.5, 8), 0.9922, 1e-4)
    close("S_8(0.25)", group_survival_probability(0.25, 8), 0.8999, 1e-4)
    close("S_8(0.125)", group_survival_probability(0.125, 8), 0.6564, 1e-4)
    close("E(4,8)", rloo_advantage_energy(4, 8), 16.0 / 49.0, 1e-12)
    close("E(2,8)", rloo_advantage_energy(2, 8), 12.0 / 49.0, 1e-12)
    close("E(1,8)", rloo_advantage_energy(1, 8), 7.0 / 49.0, 1e-12)
    pairs = [contrastive_pair_count(k, 8) for k in range(9)]
    if pairs != [0, 7, 12, 15, 16, 15, 12, 7, 0]:
        failures.append(f"pair counts: got {pairs}")
    return _verdict("landmark values", failures, "all reference values match")


def check_advantage_oracles(max_n: int = 12) -> CheckResult:
    """Closed forms vs explicit enumeration for every (k, N) with N <= max_n.

    The energy oracle averages squared leave-one-out advantages; the
    variance oracle takes the population variance of mean-centered ones.
    Both must agree with the closed forms to 1e-12. max_n must be an int
    >= 2 (DomainError), so that at least one size is enumerated.
    """
    check_int(max_n, "max_n", 2)
    gaps = []
    for n in range(2, max_n + 1):
        for k in range(n + 1):
            rewards = [1] * k + [0] * (n - k)
            energy = float(np.mean(rloo_advantages(rewards) ** 2))
            gaps.append(abs(energy - rloo_advantage_energy(k, n)))
            variance = float(np.var(mean_centered_advantages(rewards)))
            gaps.append(abs(variance - mean_centered_advantage_variance(k, n)))
    worst = float(np.max(gaps))  # a nan gap stays nan, and fails
    detail = f"max |closed form - enumeration| = {worst:.3e} over N <= {max_n}"
    return _verdict("advantage oracles", [] if worst <= 1e-12 else [detail], detail)


def check_monte_carlo(seed: int = 0, draws: int = 10**6) -> CheckResult:
    """Sampled survival and pair-count means vs their closed forms.

    Survival must land within 3 standard errors, the pair-count mean
    within an absolute 0.05, at p in {0.125, 0.25, 0.5} and N = 8. A correct
    sampler misses a 3-SE bound with probability about 0.27 % per statistic,
    so some seeds are known false alarms: at 32, 63, 93, 121 and 2101 one of
    the three survival statistics falls outside its bound. The draws are
    counted by pass count a chunk at a time, so memory does not depend on
    draws. seed must be an int >= 0 and draws an int >= 1 (DomainError).
    """
    check_int(seed, "seed", 0)
    check_int(draws, "draws", 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 777)))
    n = 8
    pairs = np.arange(n + 1) * (n - np.arange(n + 1))
    failures: list[str] = []
    details: list[str] = []
    for p in (0.125, 0.25, 0.5):
        # Chunked calls draw what one call of size draws would, and each
        # statistic is the exact integer over draws that np.mean gave.
        counts = np.zeros(n + 1, np.int64)
        for start in range(0, draws, _MC_CHUNK):
            ks = rng.binomial(n, p, size=min(_MC_CHUNK, draws - start))
            counts += np.bincount(ks, minlength=n + 1)
        survival = float(counts[1:n].sum() / draws)
        expected = group_survival_probability(p, n)
        se = np.sqrt(expected * (1.0 - expected) / draws)
        if not abs(survival - expected) <= 3.0 * se:
            failures.append(
                f"survival at p={p}: |{survival:.6f} - {expected:.6f}| > 3se"
            )
        pair_mean = float(counts @ pairs / draws)
        pair_expected = expected_pair_count(p, n)
        if not abs(pair_mean - pair_expected) <= 0.05:
            failures.append(
                f"pair mean at p={p}: |{pair_mean:.4f} - {pair_expected:.4f}| > 0.05"
            )
        details.append(f"p={p}: surv {survival:.5f}, pairs {pair_mean:.3f}")
    return _verdict("monte carlo survival and pair count", failures, "; ".join(details))


def finite_difference_gradient(
    group_trajectories,
    advantages,
    policy: ToyPolicy,
    step: float = 1e-5,
    **loss_options,
) -> np.ndarray:
    """Central finite differences of the masked surrogate over every logit.

    Each of the 2*C*V perturbed losses has the bits masked_grpo_loss gives
    for its moved policy. The group is checked once; perturbation j < C*V
    moves logit j (in C order) up by step, C*V + j moves it down, and their
    log-softmax tables are scored by one masked_loss_kernel call per batch,
    as many tables as fit _FD_FLOATS floats with a copy of the group's
    tokens each (at least one), so memory does not grow as (C*V)**2. step
    must be a finite real > 0 (DomainError).
    """
    if not (is_real(step) and 0.0 < step < np.inf):
        raise DomainError(f"step must be a finite real > 0, got {step!r}")
    adv = _check_group(group_trajectories, advantages, policy)
    c, v = policy.logits.shape
    cells = c * v
    tokens = sum(len(t) - t.replay_boundary for t in group_trajectories)
    batch = max(1, _FD_FLOATS // (cells + tokens))
    losses = np.empty(2 * cells)
    for start in range(0, 2 * cells, batch):
        moves = np.arange(start, min(start + batch, 2 * cells))
        moved = np.tile(policy.logits.ravel(), (len(moves), 1))
        moved[np.arange(len(moves)), moves % cells] += np.where(moves < cells, step, -step)
        tables = _log_softmax(moved.reshape(-1, c, v))
        losses[moves] = _group_losses(group_trajectories, adv, tables, **loss_options)
    return ((losses[:cells] - losses[cells:]) / (2.0 * step)).reshape(c, v)


def _random_gradient_instance(rng):
    n_contexts = int(rng.integers(3, 7))
    vocab = int(rng.integers(4, 9))
    policy = ToyPolicy(rng.normal(size=(n_contexts, vocab)))
    n_traj = int(rng.integers(2, 7))
    trajectories = []
    rewards = []
    for _ in range(n_traj):
        length = int(rng.integers(3, 11))
        tokens = tuple(int(x) for x in rng.integers(0, vocab, size=length))
        boundary = int(rng.integers(0, length + 1))
        trajectories.append(TokenTrajectory(tokens, boundary))
        rewards.append(int(rng.integers(0, 2)))
    options = {
        "length_normalized": bool(rng.integers(0, 2)),
        "group_reduction": "mean" if rng.integers(0, 2) else "sum",
    }
    return policy, trajectories, rloo_advantages(rewards), options


def check_gradients(seed: int = 0, instances: int = 50) -> CheckResult:
    """Analytic gradient vs finite differences, plus the masking contract.

    Each randomized instance must match central differences (step 1e-5) at
    relative tolerance 1e-4; contexts touched only by prefix tokens must
    carry exactly zero gradient; all-zero advantages must give an exactly
    zero gradient. seed must be an int >= 0 and instances an int >= 1
    (DomainError).
    """
    check_int(seed, "seed", 0)
    check_int(instances, "instances", 1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 778)))
    failures: list[str] = []
    for i in range(instances):
        policy, trajectories, advantages, options = _random_gradient_instance(rng)
        analytic = loss_gradient(trajectories, advantages, policy, **options)
        numeric = finite_difference_gradient(
            trajectories, advantages, policy, **options
        )
        if not np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7):
            gap = float(np.max(np.abs(analytic - numeric)))
            failures.append(f"instance {i}: max gap {gap:.3e}")

    # Prefix-only contexts: with every boundary >= 2, positions 0 and 1
    # (and so contexts 0 and 1) are replayed everywhere.
    policy = ToyPolicy(np.linspace(-1.0, 1.0, 5 * 6).reshape(5, 6))
    trajectories = [
        TokenTrajectory(tuple(range(6)), 2),
        TokenTrajectory((5, 4, 3, 2, 1, 0, 1), 3),
    ]
    grad = loss_gradient(trajectories, np.array([1.0, -1.0]), policy)
    if not np.all(grad[:2] == 0.0):
        failures.append("prefix-only context rows are not exactly zero")
    zero_grad = loss_gradient(
        [TokenTrajectory((0, 1, 2), 0)], np.array([0.0]), policy
    )
    if not np.all(zero_grad == 0.0):
        failures.append("zero advantages did not give an exactly zero gradient")
    held = f"{instances} randomized instances matched finite differences"
    return _verdict("masking gradient contract", failures, held)


def _first_problem(initial, runs, params: ControllerParams) -> tuple[int, str] | None:
    """The index and problem of the first run that breaks an invariant from initial."""
    alpha, keep, cooldown = params.alpha, 1.0 - params.alpha, params.cooldown
    ratio_min, ratio_max = params.ratio_min, params.ratio_max
    low, high = params.target - params.deadzone, params.target + params.deadzone
    hard = initial.kind is BucketKind.HARD
    for i, observations in enumerate(runs):
        state, last_change_update = initial, -float("inf")
        for p_new in observations:
            _, ratio, ema, cooldown_left, seen = state
            state = update_controller(state, p_new, params)
            _, new_ratio, new_ema, new_cooldown_left, new_seen = state
            if not abs(new_ema - (keep * ema + alpha * p_new)) <= 1e-12:
                return i, "ema update mismatch"
            if not ratio_min <= new_ratio <= ratio_max:
                return i, f"ratio {new_ratio} escaped bounds"
            if new_ratio != ratio:
                if cooldown_left > 0:
                    return i, "ratio changed during cooldown"
                if low <= new_ema <= high:
                    return i, "ratio changed inside the deadzone"
                # hard lowers on above-target and raises below; easy inverted
                if (new_ratio > ratio) != ((new_ema > high) != hard):
                    return i, "ratio moved in the wrong direction"
                if new_cooldown_left != cooldown:
                    return i, "cooldown not re-armed after a change"
                gap = new_seen - last_change_update
                if gap < cooldown + 1:
                    return i, f"only {gap} updates between ratio changes"
                last_change_update = new_seen
            if new_seen != seen + 1:
                return i, "updates_seen did not increment"
    return None


def check_controller(seed: int = 0, sequences: int = 10**4) -> CheckResult:
    """EMA half-crossing plus feedback invariants per bucket.

    Starting from an EMA of 1.0 under a constant observation of 0.0, the
    EMA must cross 0.5 between updates 13 and 14 (0.95^13 > 0.5 >
    0.95^14). Randomized sequences then exercise bounds, deadzone,
    direction, cooldown spacing, and bookkeeping for every controlled
    bucket at N = 8, and a fixed run holds the ratio at both of its bounds.
    seed must be an int >= 0 and sequences an int >= 1 (DomainError).
    """
    check_int(seed, "seed", 0)
    check_int(sequences, "sequences", 1)
    params = ControllerParams()
    failures: list[str] = []
    state = BucketControllerState(kind=BucketKind.HARD, ratio=0.5, ema=1.0)
    crossing = None
    for update in range(1, 30):
        state = update_controller(state, 0.0, params)
        if crossing is None and state.ema < 0.5:
            crossing = update
    if crossing != 14:
        failures.append(f"EMA crossed 0.5 at update {crossing}, want 14")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 779)))
    for k in controlled_buckets(8):
        initial = initial_controller_state(classify_bucket(k, 8), params)
        # Drawn lazily, so a failing bucket stops drawing where it fails. Then
        # 1.0 holds the ratio at one bound by update 56, 0.0 at the other by 197.
        drawn = (rng.random(int(rng.integers(10, 31))).tolist() for _ in range(sequences))
        found = _first_problem(initial, chain(drawn, [[1.0] * 80 + [0.0] * 160]), params)
        if found:
            i, problem = found
            where = f"sequence {i}" if i < sequences else "the run to both bounds"
            failures.append(f"bucket {bucket_label(k, 8)}, {where}: {problem}")
    held = f"half-crossing at update 14; {sequences} sequences per bucket clean"
    return _verdict("controller unit behavior", failures, held)


def check_memory_bounds() -> CheckResult:
    """Prefix-pool worst cases against their reference sizes in MiB."""
    cases = [
        ((128, 2048, 16384), 8.6),
        ((64, 4096, 32768), 8.6),
        ((64, 4096, 65536), 16.2),
    ]
    failures: list[str] = []
    details: list[str] = []
    for args, want_mib in cases:
        got = prefix_pool_memory_bound(*args) / _MIB
        if not abs(got - want_mib) <= 0.05:
            failures.append(f"{args}: got {got:.4f} MiB, want {want_mib}")
        details.append(f"{args} -> {got:.2f} MiB")
    return _verdict("prefix pool memory bounds", failures, "; ".join(details))


def run_default_checks(seed: int = 0) -> list[CheckResult]:
    """The oracle suite behind the `verify` subcommand."""
    return [
        check_landmarks(),
        check_advantage_oracles(),
        check_monte_carlo(seed),
        check_gradients(seed),
        check_controller(seed),
        check_memory_bounds(),
    ]
