import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontlab as fl

from conftest import mgf


def _ok(rep) -> dict:
    """Each clause's ``ok`` as ``hypotheses.csv`` prints it."""
    return {clause: ok for clause, _, ok in rep.rows()}


def test_worked_margins(bench_params, unit_kernel):
    prof = fl.logistic(A=0.5, L=1.0)
    rep = fl.check_hypotheses(bench_params, prof, unit_kernel, unit_kernel)
    # d1 - (r1*abar + r1*a/2 + r2*b*(b-1)/2) with abar = 1
    assert rep.k1 == pytest.approx(1.0 - 0.775, abs=1e-12)
    assert rep.k2 == pytest.approx(1.0 - 0.475, abs=1e-12)
    assert rep.k == pytest.approx(min(rep.k1, rep.k2))
    assert list(_ok(rep).values()) == [True] * 6
    assert rep.alpha_margin == 0.5  # A, the depth of the unfavorable limit
    assert rep.all_ok


def test_h1_boundary(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=0.5, r2=0.4, a=0.5, b=1.0, s=0.0)
    rep = fl.check_hypotheses(params, fl.logistic(0.5, 1.0), unit_kernel, unit_kernel)
    assert rep.rows()[0] == ("h1_b_gt_1", 0.0, False)
    assert rep.speeds.s_star > 0.0
    assert math.isnan(rep.speeds.s_lower_star) and math.isnan(rep.speeds.s_underline)
    # no predator speed: the shift margin is NaN, and NaN is not positive
    clause, margin, ok = rep.rows()[3]
    assert clause == "shift_below_speeds" and math.isnan(margin) and ok is False
    assert not rep.all_ok


def test_shift_too_fast(bench_params, bench_speeds, unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=0.5, r2=0.4, a=0.5, b=1.5,
                       s=2.0 * bench_speeds.s_underline)
    rep = fl.check_hypotheses(params, fl.logistic(0.5, 1.0), unit_kernel, unit_kernel)
    assert not _ok(rep)["shift_below_speeds"]
    assert rep.s_margin < 0.0


def test_shift_margin_subtracts_the_quadrature_error_bound(bench_speeds, unit_kernel):
    # each speed is (d*(M - 1) + r*k)/lam with M certified to relative 1e-10,
    # so a shift 1e-6 below s_underline still passes
    sp = bench_speeds
    s = sp.s_underline - 1e-6
    params = fl.Params(d1=1, d2=1, r1=0.5, r2=0.4, a=0.5, b=1.5, s=s)
    rep = fl.check_hypotheses(params, fl.logistic(0.5, 1.0), unit_kernel, unit_kernel)
    tol = 1e-10 * max(mgf(unit_kernel, sp.rate1) / sp.rate1,
                      mgf(unit_kernel, sp.rate2) / sp.rate2)
    assert 0.0 < tol < 1e-9
    assert rep.s_margin == pytest.approx(sp.s_underline - s - tol, rel=0.0, abs=1e-15)
    assert _ok(rep)["shift_below_speeds"]


def test_alpha_bar_uses_habitat_depth(unit_kernel):
    params = fl.Params(d1=2, d2=2, r1=0.5, r2=0.4, a=0.5, b=1.5, s=0.0)
    shallow = fl.check_hypotheses(params, fl.logistic(0.5, 1.0), unit_kernel, unit_kernel)
    deep = fl.check_hypotheses(params, fl.logistic(3.0, 1.0), unit_kernel, unit_kernel)
    assert deep.k1 == pytest.approx(shallow.k1 - 0.5 * (3.0 - 1.0), abs=1e-12)


def test_constant_one_flagged_but_reported(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=0.5, r2=0.4, a=0.5, b=1.5, s=0.0)
    rep = fl.check_hypotheses(params, fl.constant_one(), unit_kernel, unit_kernel)
    assert not _ok(rep)["habitat_assumptions"]
    assert rep.alpha_margin == -1.0
    assert rep.k1 == pytest.approx(0.225, abs=1e-12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(d1=st.floats(0.2, 3.0), d2=st.floats(0.2, 3.0),
       r1=st.floats(0.1, 1.0), r2=st.floats(0.1, 1.0),
       a=st.floats(0.1, 1.0), b=st.floats(1.05, 2.0))
def test_k_positive_iff_both_inequalities(d1, d2, r1, r2, a, b):
    kernel = fl.raised_cosine(1.0)
    params = fl.Params(d1=d1, d2=d2, r1=r1, r2=r2, a=a, b=b, s=0.0)
    rep = fl.check_hypotheses(params, fl.logistic(0.5, 1.0), kernel, kernel)
    ok = _ok(rep)
    assert ok["k_min_constant"] == (ok["d1_inequality"] and ok["d2_inequality"])
    # the reported inequality margins are exactly the two decay constants
    assert [row[1] for row in rep.rows()[1:3]] == [rep.k1, rep.k2]


def test_report_rows_fixed_order(bench_params, unit_kernel):
    rep = fl.check_hypotheses(bench_params, fl.logistic(0.5, 1.0),
                              unit_kernel, unit_kernel)
    names = [row[0] for row in rep.rows()]
    assert names == ["h1_b_gt_1", "d1_inequality", "d2_inequality",
                     "shift_below_speeds", "habitat_assumptions", "k_min_constant"]
    for _, margin, ok in rep.rows():
        assert ok is (margin > 0.0)


def test_report_deterministic(bench_params, unit_kernel):
    prof = fl.logistic(0.5, 1.0)
    a = fl.check_hypotheses(bench_params, prof, unit_kernel, unit_kernel)
    b = fl.check_hypotheses(bench_params, prof, unit_kernel, unit_kernel)
    assert a.rows() == b.rows()
    assert (a.h1_margin, a.s_margin, a.alpha_margin) == (b.h1_margin, b.s_margin, b.alpha_margin)
