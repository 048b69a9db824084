"""The libm formulas of passband.special against scipy.special, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from passband import env
from passband.env import PopulationSpec, make_task_population
from passband.special import expit, logit, per_element, xlogx

# The edges of logit's log1p band and their float neighbours.
BAND_EDGES = [
    edge for bound in (0.3, 0.65)
    for edge in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0))
]


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal float64 bits (so -0.0 is not 0.0), any nan matching any nan:
    scipy's logit of ±inf is a nan with its sign bit set."""
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and got[~nan].tobytes() == want[~nan].tobytes())


@settings(max_examples=200)
@given(values=st.lists(st.floats(), max_size=20))
@example(values=BAND_EDGES)
@example(values=[0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53, -1.0, 2.0, np.inf, -np.inf, np.nan])
def test_logit_equals_scipy(values):
    x = np.array(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = scipy_special.logit(x)
    assert same_bits(per_element(logit, x), want)


@settings(max_examples=200)
@given(values=st.lists(st.floats(0.0, 1.0), max_size=20))
@example(values=BAND_EDGES)
def test_logit_on_probabilities_equals_scipy(values):
    x = np.array(values, dtype=float)
    assert per_element(logit, x).tobytes() == scipy_special.logit(x).tobytes()


def test_logit_band_edges_take_log1p():
    # scipy 1.17 switches to log(p / (1 - p)) outside [0.3, 0.65] only; the
    # edges themselves are in its log1p band, and the two branches differ there.
    for p in (0.3, 0.65):
        s = 2.0 * (p - 0.5)
        assert logit(p) == math.log1p(s) - math.log1p(-s) == scipy_special.logit(p)
        assert logit(p) != math.log(p / (1.0 - p))


@settings(max_examples=200)
@given(values=st.lists(st.floats(), max_size=20))
@example(values=[-709.78, -709.79, -710.0, -745.13, -746.0, -1e308, -np.inf])
@example(values=[np.inf, np.nan, -0.0, 0.0, 5e-324, 36.0, 37.0, 710.0, 1e308])
def test_expit_equals_scipy(values):
    x = np.array(values, dtype=float)
    assert same_bits(per_element(expit, x), scipy_special.expit(x))


@pytest.mark.parametrize("x", [-709.79, -710.0, -746.0, -1e308, -np.inf])
def test_expit_overflow_tail_is_zero(x):
    # exp(-x) overflows below about -709.78; expit's 1 / inf there is 0.0.
    assert expit(x) == 0.0 == scipy_special.expit(x)
    assert not np.signbit(expit(x))


@settings(max_examples=200)
@given(values=st.lists(st.floats(0.0, 1.0), max_size=20))
@example(values=[0.0, -0.0, 1.0, 5e-324, 0.5, 1.0 - 2**-53])
def test_xlogx_equals_scipy_xlogy(values):
    x = np.array(values, dtype=float)
    assert per_element(xlogx, x).tobytes() == scipy_special.xlogy(x, x).tobytes()


def test_xlogx_at_0_and_1_is_positive_zero():
    for x in (0.0, -0.0, 1.0):
        assert xlogx(x) == 0.0 and not np.signbit(xlogx(x))


def test_per_element_keeps_the_shape():
    assert per_element(expit, 0.0).shape == ()
    assert per_element(expit, np.zeros((2, 3))).shape == (2, 3)
    assert per_element(expit, []).shape == (0,)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("preset", ["single", "uniform", "hard_skewed"])
def test_population_logits_equal_scipy(preset, mirror, monkeypatch):
    # A population's base logits and the run's fresh pass probabilities are
    # scipy's bit for bit. Every single-preset task and about 38 % of uniform
    # ones fall in logit's log1p band.
    calls = []

    def recording(f, x):
        calls.append((f, np.array(x)))
        return per_element(f, x)

    monkeypatch.setattr(env, "per_element", recording)
    tasks = make_task_population(PopulationSpec(preset=preset, size=20_000, mirror=mirror), 5)
    [(f, p0)] = calls
    assert f is logit
    assert tasks.base_logit.tobytes() == scipy_special.logit(p0).tobytes()
    in_band = np.mean((0.3 <= p0) & (p0 <= 0.65))
    assert in_band == 1.0 if preset == "single" else 0.0 < in_band < 1.0
    fresh_p = per_element(expit, tasks.base_logit)
    assert fresh_p.tobytes() == scipy_special.expit(tasks.base_logit).tobytes()
