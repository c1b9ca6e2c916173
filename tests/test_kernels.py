import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import frontlab as fl
from frontlab import subsolution
from frontlab.errors import InvalidKernelError, NumericFailureError, ResolutionError
from frontlab.kernels import _checked_panels, _panel_sums, _split_rule, exp_integral, quad

from conftest import mgf, raised_cosine_mgf_closed


def test_raised_cosine_peak_and_support(unit_kernel):
    assert unit_kernel.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert unit_kernel.evaluate(2.0) == 0.0
    assert unit_kernel.evaluate(-2.0) == 0.0
    # closed form at the half-way point: 0.5*(1 + cos(pi/2)) = 0.5
    assert unit_kernel.evaluate(0.5) == pytest.approx(0.5, abs=1e-15)


def _edge_slope_jump(kernel):
    """Largest jump between one-sided difference slopes across +-R."""
    r = kernel.support_radius
    h = 1e-7 * max(r, 1.0)
    ev = kernel.evaluate
    return max(abs((ev(r) - ev(r - h)) / h - (ev(r + h) - ev(r)) / h),
               abs((ev(-r + h) - ev(-r)) / h - (ev(-r) - ev(-r - h)) / h))


def test_validation_report_raised_cosine(unit_kernel):
    # C1 across the support edge, and the rule integrates it to unit mass
    assert _edge_slope_jump(unit_kernel) <= 1e-6
    assert quad(unit_kernel) == pytest.approx(1.0, abs=1e-10)


def test_validation_report_smooth_bump():
    k = fl.smooth_bump(2.0)
    assert _edge_slope_jump(k) <= 1e-6
    assert quad(k) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kernel", [fl.raised_cosine(1.0), fl.raised_cosine(2.5),
                                    fl.smooth_bump(1.0), fl.smooth_bump(0.4)],
                         ids=lambda k: f"{k.family}-{k.support_radius:g}")
def test_analytic_family_closed_form_facts_hold_on_samples(kernel):
    # what the Kernel docstring takes from the closed form: symmetric,
    # nonnegative, unit mass (by scipy's quad) and zero outside [-R, R]
    r = kernel.support_radius
    xs = np.linspace(-1.5 * r, 1.5 * r, 6001)
    vals = kernel.evaluate(xs)
    assert np.array_equal(vals, kernel.evaluate(-xs))
    assert vals.min() >= 0.0
    assert np.all(vals[np.abs(xs) >= r] == 0.0)
    mass, _ = integrate.quad(kernel.evaluate, -r, r, epsabs=0.0, epsrel=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_mgf_unit_mass_at_zero(unit_kernel):
    assert mgf(unit_kernel, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert mgf(fl.smooth_bump(1.5), 0.0) == pytest.approx(1.0, abs=1e-10)


def test_mgf_matches_closed_form(unit_kernel):
    got = mgf(unit_kernel, 1.0)
    assert got == pytest.approx(raised_cosine_mgf_closed(1.0), rel=1e-10)
    assert got == pytest.approx(1.0671, abs=1e-4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lam=st.floats(min_value=-5.0, max_value=5.0))
def test_mgf_even_and_at_least_one(lam):
    kernel = fl.raised_cosine(1.0)
    m = mgf(kernel, lam)
    assert m >= 1.0 - 1e-12
    assert m == pytest.approx(mgf(kernel, -lam), rel=1e-10)


def test_mgf_convexity_sampled(unit_kernel):
    lams = np.linspace(-5.0, 5.0, 41)
    vals = np.array([mgf(unit_kernel, l) for l in lams])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert second.min() >= -1e-9


@pytest.mark.parametrize("make", [
    lambda: fl.raised_cosine(0.7),
    lambda: fl.smooth_bump(1.3),
    lambda: fl.tabulated(*_rc_table()),
])
def test_mgf_at_least_one_all_families(make):
    kernel = make()
    for lam in (-5.0, -1.5, 0.0, 0.8, 3.0, 5.0):
        assert mgf(kernel, lam) >= 1.0 - 1e-12


def test_discretize_halfwidth_and_mass(unit_kernel):
    # 17 samples at k/8, k = -8..8, less the zeros at the support ends
    st_ = unit_kernel.discretize(0.125)
    assert st_.halfwidth == 7
    assert st_.weights.size == 15
    assert st_.weights[0] > 0.0
    assert st_.weights.sum() * st_.dx == pytest.approx(1.0, abs=1e-15)
    assert np.all(st_.weights >= 0.0)
    assert np.allclose(st_.weights, st_.weights[::-1], atol=0.0)


@pytest.mark.parametrize("end, halfwidth", [(0.0, 7), (1e-13, 8)])
def test_discretize_drops_only_exact_zero_end_taps(end, halfwidth):
    # a table keeps the taps at its support ends unless its density there is 0
    x, d = _rc_table(n=201)
    d[[0, -1]] = end
    st_ = fl.tabulated(x, d).discretize(0.125)
    assert st_.halfwidth == halfwidth and st_.weights.size == 2 * halfwidth + 1
    assert st_.weights[0] > 0.0 and st_.weights[-1] > 0.0


def test_discretize_rejects_coarse_spacing(unit_kernel):
    with pytest.raises(ResolutionError):
        unit_kernel.discretize(0.5)
    with pytest.raises(ResolutionError):
        unit_kernel.discretize(0.25)  # above the R/8 floor
    with pytest.raises(ResolutionError):
        unit_kernel.discretize(-0.1)


def test_discretize_constant_field_reproduction(unit_kernel):
    st_ = unit_kernel.discretize(1.0 / 16.0)
    ones = np.ones(200)
    out = fl.nonlocal_apply(st_, ones)
    h = st_.halfwidth
    assert np.max(np.abs(out[h:-h])) <= 1e-12


def _rc_table(n=401, radius=1.0, scale=1.0):
    x = np.linspace(-radius, radius, n)
    d = (1.0 + np.cos(np.pi * x / radius)) / (2.0 * radius) * scale
    return x, d


def test_tabulated_renormalizes_small_drift():
    x, d = _rc_table(scale=1.005)
    k = fl.tabulated(x, d)
    assert quad(k) == pytest.approx(1.0, abs=1e-8)
    xs = np.linspace(-1.5, 1.5, 3001)
    assert np.allclose(k.evaluate(xs), k.evaluate(-xs), rtol=0.0, atol=1e-12)
    assert np.all(k.evaluate(xs[np.abs(xs) > 1.0]) == 0.0)
    # piecewise-linear interpolation of the raised cosine stays close to it
    assert k.evaluate(0.5) == pytest.approx(0.5, abs=1e-4)


def test_tabulated_rejects_large_drift():
    x, d = _rc_table(scale=1.02)
    with pytest.raises(InvalidKernelError):
        fl.tabulated(x, d)


def test_tabulated_rejects_unsorted():
    x, d = _rc_table()
    x2 = x.copy()
    x2[10], x2[11] = x2[11], x2[10]
    with pytest.raises(InvalidKernelError):
        fl.tabulated(x2, d)


def test_tabulated_rejects_asymmetric():
    x, d = _rc_table()
    d2 = d.copy()
    d2[50] += 1e-3
    with pytest.raises(InvalidKernelError):
        fl.tabulated(x, d2)


def test_tabulated_mgf_even_and_normalized():
    x, d = _rc_table()
    k = fl.tabulated(x, d)
    assert mgf(k, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert mgf(k, 1.3) == pytest.approx(mgf(k, -1.3), rel=1e-12)
    assert mgf(k, 1.3) >= 1.0


def test_load_tabulated_file(tmp_path):
    x, d = _rc_table(n=201)
    path = tmp_path / "kernel.txt"
    lines = ["# sampled dispersal kernel", "# x density"]
    lines += [f"{xi} {di}" for xi, di in zip(x, d)]
    path.write_text("\n".join(lines))
    k = fl.load_tabulated(path)
    assert k.support_radius == pytest.approx(1.0)
    assert quad(k) == pytest.approx(1.0, abs=1e-10)
    assert k.evaluate(0.5) == k.evaluate(-0.5)


@pytest.mark.parametrize("bad", ["np.float64(-1.0) np.float64(0.0)", "0.5", "0.1 0.2 0.3"])
def test_load_tabulated_names_file_and_line_of_a_bad_row(tmp_path, bad):
    path = tmp_path / "kernel.txt"
    path.write_text(f"# x density\n-1.0 0.0\n{bad}\n1.0 0.0\n")
    with pytest.raises(InvalidKernelError, match=r"kernel\.txt, line 3: expected two numbers"):
        fl.load_tabulated(path)


def _bump_mgf_reference(lam: float) -> float:
    """Smooth-bump MGF on radius 1 by tight adaptive quadrature."""
    body = lambda u: math.exp(-1.0 / (1.0 - u * u))
    tight = dict(epsabs=1e-17, epsrel=1e-13, limit=200)
    mass = integrate.quad(body, -1.0, 1.0, **tight)[0]
    return integrate.quad(lambda u: body(u) * math.exp(lam * u), -1.0, 1.0, **tight)[0] / mass


def test_smooth_bump_mgf_against_adaptive_reference():
    kernel = fl.smooth_bump(1.0)
    for lam in np.linspace(-5.0, 5.0, 21):
        assert mgf(kernel, lam) == pytest.approx(_bump_mgf_reference(lam), rel=1e-12)


def test_smooth_bump_speed_at_steep_tilt():
    # With small diffusion the minimizer sits near lam = 6.9.  At lam = 16.4
    # the bump's tilted mass sits in a thin layer at the support edge, and
    # the quadrature must still match the reference there.
    problem = fl.SpeedProblem(d=0.02, r=1.0, k=1.0, kernel=fl.smooth_bump(1.0))
    res = fl.min_speed(problem)
    assert mgf(fl.smooth_bump(1.0), 16.4) == pytest.approx(_bump_mgf_reference(16.4), rel=1e-12)
    ref = (problem.d * (_bump_mgf_reference(res.rate) - 1.0) + problem.r) / res.rate
    assert res.speed == pytest.approx(ref, rel=1e-12)


def test_quad_clipped_limits_broadcast_against_closed_form():
    kernel = fl.raised_cosine(2.0)
    cdf = lambda y: 0.5 + (y + 2.0 / np.pi * np.sin(np.pi * y / 2.0)) / 4.0
    lo = np.array([[-3.0], [-1.2], [0.4]])
    hi = np.array([-2.5, 0.3, 1.7, 5.0])
    got = quad(kernel, lo=lo, hi=hi)
    assert got.shape == (3, 4)
    a, b = np.clip(lo, -2.0, 2.0), np.clip(hi, -2.0, 2.0)
    np.testing.assert_allclose(got, np.maximum(cdf(b) - cdf(a), 0.0), rtol=0.0, atol=1e-15)
    assert quad(kernel, lambda s: s * s, lo=0.5, hi=-0.5) == 0.0
    assert isinstance(quad(kernel), float)


def test_quad_split_panel_check_raises():
    # A tilt beyond the rule's resolution, and a kink inside a panel: the
    # panels and their halves disagree far above relative 1e-10.
    with pytest.raises(NumericFailureError):
        exp_integral(fl.smooth_bump(1.0), 600.0)
    kernel, kink = fl.raised_cosine(1.0), lambda s: np.abs(s - 0.3)
    with pytest.raises(NumericFailureError):
        quad(kernel, kink)
    # Clipped, the check covers only what the limits keep: hi = 0.2 drops the
    # kink's panel, hi = 0.9 keeps it whole and hi = 0.35 cuts it.
    ref = integrate.quad(lambda s: kernel.evaluate(s) * kink(s), -1.0, 0.2, epsrel=1e-13)[0]
    assert quad(kernel, kink, lo=-1.0, hi=0.2) == pytest.approx(ref, rel=1e-12)
    for hi in (0.9, 0.35):
        with pytest.raises(NumericFailureError):
            quad(kernel, kink, lo=-1.0, hi=hi)
    with pytest.raises(NumericFailureError):
        quad(kernel, lo=[0.1, np.nan], hi=0.5)


@pytest.mark.parametrize("make", [lambda: fl.raised_cosine(1.0), lambda: fl.smooth_bump(1.0),
                                  lambda: fl.tabulated(*_rc_table(n=201))],
                         ids=["raised_cosine", "smooth_bump", "tabulated"])
def test_whole_support_rule_gives_the_bits_of_explicit_limits(make):
    # Without limits quad reads the kernel's cached rule; with the limits set to
    # the support ends it builds the same panels afresh.  Same bits either way.
    # The tilt pass multiplies the same terms in another order: it agrees with
    # quad to 1e-15 of the integral of |J * integrand|.
    kernel = make()
    r = kernel.support_radius
    for lam in (-5.0, 0.0, 0.5, 2.3, 16.4, 128.0 / r):
        powers = [lambda s, k=k: np.exp(lam * s) * s ** k for k in range(3)]
        ref = [quad(kernel, f) for f in powers]
        assert ref == [quad(kernel, f, lo=-r, hi=r) for f in powers]
        size = [quad(kernel, lambda s, f=f: np.abs(f(s))) for f in powers]
        got = np.array(exp_integral(kernel, lam))
        assert np.all(np.abs(got - ref) <= 1e-15 * np.array(size)), lam
    wave = lambda s: np.exp((1 + 2j) * s)
    assert quad(kernel, wave) == quad(kernel, wave, lo=-r, hi=r)
    assert quad(kernel) == quad(kernel, lo=-r, hi=r)


def test_whole_support_rule_evaluates_the_kernel_once(monkeypatch):
    calls = []
    evaluate = fl.Kernel.evaluate

    def counting(self, x):
        calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(fl.Kernel, "evaluate", counting)
    kernels = [fl.raised_cosine(1.0), fl.smooth_bump(2.0)]
    for kernel in kernels:
        for lam in np.linspace(-3.0, 3.0, 20):
            mgf(kernel, lam)
    assert [sum(c is k for c in calls) for k in kernels] == [1, 1]


def test_failed_quadrature_leaves_the_rule_intact():
    kernel = fl.smooth_bump(1.0)
    with pytest.raises(NumericFailureError):
        exp_integral(kernel, 600.0)
    with pytest.raises(ValueError, match="read-only"):
        quad(kernel, lambda s: np.multiply(s, 2.0, out=s))
    assert mgf(kernel, 1.0) == pytest.approx(_bump_mgf_reference(1.0), rel=1e-12)


def _clipped_reference(kernel, integrand, lo, hi):
    """The clipped integral with every row's panels built afresh: the rule on
    the support clipped to each row, then the same checked sum.  Rows go one
    at a time, so a reference for many rows of a long table stays small."""
    edges = kernel._edges
    lo, hi = np.broadcast_arrays(np.asarray(edges[0] if lo is None else lo, dtype=float),
                                 np.asarray(edges[-1] if hi is None else hi, dtype=float))
    sums = []
    for a, b in zip(np.maximum(lo.reshape(-1, 1, 1), edges[0]),
                    np.minimum(hi.reshape(-1, 1, 1), edges[-1])):
        nodes, weights = _split_rule(np.clip(edges[:-1], a, b), np.clip(edges[1:], a, b))
        f = kernel.evaluate(nodes)
        f = f if integrand is None else f * integrand(nodes)
        sums.append(_checked_panels(*_panel_sums(f * weights, edges.size - 1)))
    return np.concatenate(sums).reshape(lo.shape)


def _limits(kernel):
    """(lo, hi) pairs that put the limits on every kind of place."""
    e, r = kernel._edges, kernel.support_radius
    inner = lambda t: e[6] + t * (e[7] - e[6])
    z = np.linspace(-2.0 * r, 2.0 * r, 514)[1:-1]  # the window convolution's grid
    return [
        (e[4], e[-5]),                                # on panel edges
        (0.5 * (e[4] + e[5]), 0.5 * (e[-6] + e[-5])),  # on split midpoints
        (inner(0.25), inner(0.7)),                    # both inside one panel
        (inner(0.5), inner(0.5)),                     # lo == hi
        (inner(0.7), inner(0.25)),                    # lo > hi
        (-3.0 * r, 0.3 * r), (-0.4 * r, 2.0 * r),     # beyond the support
        (-3.0 * r, 3.0 * r),                          # covering it
        (None, 0.3 * r), (-0.4 * r, None),            # one-sided
        (np.array([[-3.0], [-0.6], [0.1]]) * r, np.array([-0.5, 0.2, 0.9, 4.0]) * r),
        # a window sliding across the support: 512 rows in one pass, half cut
        (z - 2.0 * r, z + 2.0 * r),
    ]


@pytest.mark.parametrize("integrand", [None, lambda s: np.exp((1.5 - 2j) * s)],
                         ids=["density", "complex"])
@pytest.mark.parametrize("make", [lambda: fl.raised_cosine(1.3), lambda: fl.smooth_bump(0.8),
                                  lambda: fl.tabulated(*_rc_table(n=201))],
                         ids=["raised_cosine", "smooth_bump", "tabulated"])
def test_clipped_quad_gives_the_bits_of_fresh_panels(make, integrand):
    # Panels the limits keep whole are copied from the whole-support terms,
    # dropped ones are zero and cut ones are evaluated afresh: every row holds
    # the terms the fresh rule would, so every sum keeps its bits.
    kernel = make()
    for lo, hi in _limits(kernel):
        got = np.asarray(quad(kernel, integrand, lo=lo, hi=hi))
        ref = _clipped_reference(kernel, integrand, lo, hi)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes(), (lo, hi)


def test_window_convolution_evaluates_only_the_cut_panels(monkeypatch):
    # Two integrand calls: the whole-support rule, then every cut panel of
    # every cut row, at most two per row with their halves.
    sizes = []

    def counting_quad(kernel, integrand, lo, hi):
        def counted(s):
            sizes.append(s.size)
            return integrand(s)
        return quad(kernel, counted, lo=lo, hi=hi)

    monkeypatch.setattr(subsolution, "quad", counting_quad)
    base = dict(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5)
    for kernel in fl.raised_cosine(1.0), fl.smooth_bump(1.0), fl.tabulated(*_rc_table(n=201)):
        s_under = fl.system_speeds(fl.Params(**base), kernel, kernel).s_underline
        params = fl.Params(**base, s=0.5 * s_under)
        p = fl.construct_subsolution(params, 0.5 * (params.s + s_under), kernel=kernel)
        R, r = p.window, kernel.support_radius
        dz = 2.0 * R / 513
        z = np.linspace(-R + dz, R - dz, 512)
        sizes.clear()
        subsolution._window_convolution(kernel, p, z)
        cutting = np.count_nonzero((z - R > -r) | (z + R < r))
        assert 0 < cutting < z.size
        assert len(sizes) == 2 and sizes[0] == 48 * (kernel._edges.size - 1), kernel.family
        assert 0 < sizes[1] <= 96 * cutting
