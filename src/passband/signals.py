"""Signal quantities of grouped binary-reward rollouts.

A group of N rollouts with binary rewards carries k successes. Every
training-signal notion used elsewhere in the package reduces to one of
four quantities of (k, N) or of the underlying pass probability p:

* reward entropy          H(p)   = -p log2 p - (1-p) log2 (1-p)
* group survival          S_N(p) = 1 - p^N - (1-p)^N
* RLOO advantage energy   E(k,N) = k (N-k) / (N-1)^2
* contrastive pair count  C(k,N) = k (N-k)

All four peak when the group is balanced (p = 0.5, or k = N/2), which is
what the rest of the package steers toward. Functions accept scalars or
numpy arrays and are pure; they also serve as oracles for the sampled
quantities produced downstream.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_int, listed_bool
from .special import per_element, xlogx

__all__ = [
    "SignalReport",
    "reward_entropy",
    "group_survival_probability",
    "rloo_advantage_energy",
    "contrastive_pair_count",
    "expected_pair_count",
    "mean_centered_advantage_variance",
    "max_pair_count",
    "signal_report",
]

_LN2 = float(np.log(2.0))


def _check_probability(p, name: str = "p") -> np.ndarray:
    arr = np.asarray(p)
    # numpy reads True as 1.0 and "0.5" as 0.5 when asked for floats, but
    # neither is a probability, in a list or not.
    if (arr.dtype.kind not in "iuf" or listed_bool(p)
            or np.any(arr < 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr))):
        raise DomainError(f"{name} must be a number in [0, 1], got {p!r}")
    return arr.astype(float)


def _check_pass_count(k, n: int, min_n: int = 1) -> np.ndarray:
    check_int(n, "group size N", min_n)
    arr = np.asarray(k)
    # numpy sums bools as ints, but True is no pass count, in a list or not.
    if (arr.dtype == bool or listed_bool(k)
            or np.any(arr < 0) or np.any(arr > n) or np.any(arr != np.floor(arr))):
        raise DomainError(f"pass count k must be a whole number in [0, {n}], got {k!r}")
    return arr


def _scalarize(value: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def reward_entropy(p) -> float | np.ndarray:
    """Entropy in bits of a Bernoulli(p) reward, with 0 log 0 = 0.

    Strictly concave on [0, 1] with its unique maximum of 1 bit at
    p = 0.5 and zeros at the degenerate endpoints. Each x log x is
    special.xlogx, through libm's log.
    """
    arr = _check_probability(p)
    bits = -(per_element(xlogx, arr) + per_element(xlogx, 1.0 - arr)) / _LN2
    # + 0.0 turns the -0.0 produced at the endpoints into +0.0.
    return _scalarize(bits + 0.0, p)


def group_survival_probability(p, n: int) -> float | np.ndarray:
    """Probability that a group of n Bernoulli(p) rollouts is non-degenerate.

    Degenerate means all-fail or all-pass, so survival is 1 - (1-p)^n - p^n,
    the chance the group contributes any contrast; n is an int >= 1.
    """
    arr = _check_probability(p)
    check_int(n, "group size N", 1)
    surv = 1.0 - (1.0 - arr) ** n - arr**n
    return _scalarize(surv, p)


def rloo_advantage_energy(k, n: int) -> float | np.ndarray:
    """Average squared leave-one-out advantage of a group with k successes.

    Equals k (n-k) / (n-1)^2; maximized at k = n/2 and zero for
    degenerate groups.
    """
    arr = _check_pass_count(k, n, min_n=2)
    energy = arr * (n - arr) / float((n - 1) ** 2)
    return _scalarize(energy, k)


def contrastive_pair_count(k, n: int) -> int | np.ndarray:
    """Number of success-failure pairs in a group: k (n-k)."""
    arr = _check_pass_count(k, n)
    pairs = arr * (n - arr)
    if np.ndim(k) == 0:
        return int(pairs)
    return pairs


def expected_pair_count(p, n: int) -> float | np.ndarray:
    """Expected contrastive pair count over K ~ Binomial(n, p).

    E[K (n-K)] = n (n-1) p (1-p), again maximized at p = 0.5; n is an int >= 2.
    """
    arr = _check_probability(p)
    check_int(n, "group size N", 2)
    mean = n * (n - 1) * arr * (1.0 - arr)
    return _scalarize(mean, p)


def mean_centered_advantage_variance(k, n: int) -> float | np.ndarray:
    """Population variance of mean-centered advantages r_i - k/n.

    Equals phat (1 - phat) with phat = k/n.
    """
    arr = _check_pass_count(k, n, min_n=1)
    phat = arr / float(n)
    return _scalarize(phat * (1.0 - phat), k)


def max_pair_count(n: int) -> int:
    """Largest achievable pair count over k in {0..n}: floor(n/2) ceil(n/2), n an int >= 1."""
    check_int(n, "group size N", 1)
    return (n // 2) * (n - n // 2)


class SignalReport(NamedTuple):
    """All signal quantities of one observed group, evaluated at phat = k/N."""

    pass_count: int
    group_size: int
    entropy_bits: float
    survival_prob: float
    rloo_energy: float
    pair_count: int
    pair_count_relative: float


def signal_report(k: int, n: int) -> SignalReport:
    """Bundle every signal quantity for a group with k of n successes.

    Entropy and survival are evaluated at the empirical rate phat = k/n,
    the only probability an observed group exposes.
    """
    _check_pass_count(k, n, min_n=2)
    phat = k / n
    pairs = contrastive_pair_count(k, n)
    return SignalReport(
        pass_count=int(k),
        group_size=int(n),
        entropy_bits=reward_entropy(phat),
        survival_prob=group_survival_probability(phat, n),
        rloo_energy=rloo_advantage_energy(k, n),
        pair_count=pairs,
        pair_count_relative=pairs / max_pair_count(n),
    )
