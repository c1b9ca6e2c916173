import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import frontlab as fl
from frontlab import habitat


def test_logistic_closed_form_values():
    prof = fl.logistic(A=0.5, L=1.0)
    assert prof.alpha(0.0) == pytest.approx(0.25, abs=1e-15)
    assert prof.alpha(60.0) == pytest.approx(1.0, abs=1e-12)
    assert prof.alpha(-60.0) == pytest.approx(-0.5, abs=1e-12)


def test_constant_one_profile():
    prof = fl.constant_one()
    assert prof.alpha(-1e6) == 1.0
    assert prof.alpha(3.7) == 1.0
    assert prof.alpha_bar == 1.0


def test_piecewise_linear_ramp():
    prof = fl.piecewise_linear(A=0.5, L=2.0)
    assert prof.alpha(-2.0) == pytest.approx(-0.5)
    assert prof.alpha(2.0) == pytest.approx(1.0)
    assert prof.alpha(0.0) == pytest.approx(0.25)
    assert prof.slope_bound() == pytest.approx(1.5 / 4.0)


def test_alpha_shifted_zero_shift_and_midpoint():
    prof = fl.logistic(A=0.5, L=1.0)
    x = np.linspace(-3, 3, 7)
    assert np.allclose(prof.alpha_shifted(x, t=13.0, s=0.0), prof.alpha(x))
    # the midpoint value travels with the shift
    assert prof.alpha_shifted(0.7 * 5.0, t=5.0, s=0.7) == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=st.floats(-30, 30), t=st.floats(0, 50), delta=st.floats(0, 20))
def test_alpha_shifted_constant_along_characteristics(x, t, delta):
    prof = fl.logistic(A=2.0, L=1.5)
    s = 0.37
    a0 = prof.alpha_shifted(x, t, s)
    a1 = prof.alpha_shifted(x + s * delta, t + delta, s)
    assert a1 == pytest.approx(a0, abs=1e-12)


def test_validate_logistic_reports_bound_and_alpha_bar():
    prof = fl.logistic(A=0.5, L=1.0)
    rep = fl.validate_habitat(prof)
    assert rep.ok and rep.failures == ()
    assert rep.margin == 0.5
    assert prof.alpha_bar == 1.0
    assert prof.slope_bound() == 0.375


def test_validate_alpha_bar_deep_unfavorable():
    prof = fl.logistic(A=2.0, L=1.0)
    rep = fl.validate_habitat(prof)
    assert rep.ok
    assert rep.margin == 2.0
    assert prof.alpha_bar == 2.0


def test_validate_piecewise_linear():
    rep = fl.validate_habitat(fl.piecewise_linear(A=0.5, L=2.0))
    assert rep.ok, rep.failures
    assert rep.margin == 0.5


def test_validate_constant_one_flags_left_limit():
    rep = fl.validate_habitat(fl.constant_one())
    assert not rep.ok
    assert rep.failures == ("alpha2_left_negative",)
    assert rep.margin == -1.0


@pytest.mark.parametrize("prof", [
    fl.logistic(A=0.5, L=2.0), fl.logistic(A=2.0, L=0.3), fl.logistic(A=0.1, L=5.0),
    fl.piecewise_linear(A=0.5, L=2.0), fl.piecewise_linear(A=3.0, L=0.3),
    fl.constant_one(),
], ids=lambda p: f"{p.family}-{p.A:g}-{p.L:g}")
def test_family_closed_form_facts_hold_on_samples(prof):
    # what validate() takes from the closed form: nondecreasing, alpha(+inf) = 1,
    # alpha(-inf) = -A, and no finite-difference slope above slope_bound()
    xi = np.linspace(-40.0, 40.0, 80_001) * prof.L
    vals = prof.alpha(xi)
    assert np.all(np.diff(vals) >= 0.0)
    assert prof.alpha(1e6 * prof.L) == pytest.approx(1.0, abs=1e-15)
    assert prof.alpha(-1e6 * prof.L) == pytest.approx(-prof.A, abs=1e-15)
    assert vals[-1] == pytest.approx(1.0, abs=1e-15)
    assert vals[0] == pytest.approx(-prof.A, abs=1e-15)
    slope = np.max(np.diff(vals) / np.diff(xi))
    bound = prof.slope_bound()
    assert slope <= bound * (1.0 + 1e-9)
    # the bound is the supremum, which the samples come within 0.1% of
    assert slope >= 0.999 * bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(xi=st.floats(-1e4, 1e4), A=st.floats(0.1, 5.0), L=st.floats(0.1, 10.0))
def test_alpha_stays_in_band(xi, A, L):
    prof = fl.logistic(A=A, L=L)
    val = prof.alpha(xi)
    assert -A - 1e-6 <= val <= 1.0 + 1e-6
    assert abs(val) <= prof.alpha_bar + 1e-6


@pytest.mark.parametrize("A, L", [(0.5, 2.0), (2.0, 1.5), (0.1, 0.3)])
def test_logistic_matches_expit_without_warnings(A, L):
    # numpy's exp may differ from the C library's by 1 ulp, and 1 + exp(-z) near
    # 2**53 can stretch that to 4 ulps of the sigmoid: at most 2 ulps of 1 + A here
    xi = np.linspace(-800.0, 800.0, 1_600_001) * L
    prof = fl.logistic(A=A, L=L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = prof.alpha(xi)
        ends = [prof.alpha(x) for x in (-800.0 * L, -1e6, 800.0 * L, 1e6)]
    ref = -A + (1.0 + A) * expit(xi / L)
    assert np.max(np.abs(vals - ref)) <= 2 * np.spacing(1.0 + A)
    assert vals.min() >= -A and vals.max() <= 1.0
    assert ends == [-A, -A, 1.0, 1.0]


def test_factories_reject_bad_shapes():
    with pytest.raises(ValueError):
        fl.logistic(A=0.0, L=1.0)
    with pytest.raises(ValueError):
        fl.logistic(A=0.5, L=0.0)
    with pytest.raises(ValueError):
        habitat.piecewise_linear(A=-1.0, L=1.0)
