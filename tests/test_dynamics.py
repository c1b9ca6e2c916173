import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import frontlab as fl
from frontlab import dynamics
from frontlab.dynamics import _tally, sample_bump, step_count
from frontlab.errors import (BoundaryContaminationError, InstabilityError,
                             InvariantViolationError, NumericFailureError,
                             ResolutionError)


@pytest.fixture(scope="module")
def stencil(unit_kernel):
    return unit_kernel.discretize(1.0 / 8.0)


def nonlocal_op(stencil, field_values, index):
    """Reference (J*w - w) at one grid index, with zero extension outside the grid."""
    h = stencil.halfwidth
    n = field_values.size
    lo = index - h
    hi = index + h + 1
    seg = np.zeros(2 * h + 1)
    seg[max(0, -lo):(2 * h + 1) - max(0, hi - n)] = field_values[max(lo, 0):min(hi, n)]
    return float(stencil.weights @ seg * stencil.dx - field_values[index])


def test_params_validation():
    with pytest.raises(ValueError):
        fl.Params(d1=0.0, d2=1, r1=1, r2=1, a=1, b=2)
    with pytest.raises(ValueError):
        fl.Params(d1=1, d2=1, r1=1, r2=1, a=1, b=2, s=-0.1)
    p = fl.Params(d1=1, d2=1, r1=1, r2=1, a=1, b=2)
    assert p.s == 0.0 and p.v_cap == 1.0


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_predator_cap_is_zero_for_b_at_most_one(b):
    # the predator box degenerates to {0}: no positive predator height fits
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=1, b=b)
    assert params.v_cap == 0.0
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    with pytest.raises(InvariantViolationError, match="exceeds the invariant box cap 0"):
        fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.1), grid, params)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0), grid, params)
    assert not init.v.any()


def test_nonlocal_op_zero_field(stencil):
    field = np.zeros(50)
    assert nonlocal_op(stencil, field, 25) == 0.0


def test_nonlocal_op_constant_interior(stencil):
    field = np.full(64, 0.7)
    h = stencil.halfwidth
    for idx in (h, 32, 63 - h):
        assert abs(nonlocal_op(stencil, field, idx)) <= 1e-12


def test_nonlocal_op_indicator_bump_against_direct_sum(stencil):
    n = 80
    field = np.zeros(n)
    field[38:43] = 1.0
    h, w, dx = stencil.halfwidth, stencil.weights, stencil.dx

    def direct(i):
        acc = 0.0
        for j in range(-h, h + 1):
            if 0 <= i + j < n:
                acc += w[j + h] * field[i + j] * dx
        return acc - field[i]

    peak, halo_left, halo_right = 40, 36, 44
    for idx in (peak, halo_left, halo_right):
        assert nonlocal_op(stencil, field, idx) == pytest.approx(direct(idx), abs=1e-14)
    assert nonlocal_op(stencil, field, peak) < 0.0
    assert nonlocal_op(stencil, field, halo_left) > 0.0
    assert nonlocal_op(stencil, field, halo_right) > 0.0


def test_nonlocal_apply_matches_pointwise(stencil):
    rng = np.random.default_rng(7)
    field = rng.random(41)
    out = fl.nonlocal_apply(stencil, field)
    for idx in (0, 3, 20, 38, 40):
        assert out[idx] == pytest.approx(nonlocal_op(stencil, field, idx), abs=1e-13)
    assert fl.nonlocal_apply(stencil, np.zeros(0)).shape == (0,)


def _tent(radius):
    x = np.linspace(-radius, radius, 9)
    return fl.tabulated(x, np.maximum(0.0, 1.0 - np.abs(x) / radius) / radius)


# (kernel, radius, dx): half-widths 7, 15 and 79 > BLOCK for each family, named
# by R/dx (the zero taps at +-R are dropped).
_BLOCKED_STENCILS = {f"{family}_h{h}": (make, radius, dx)
                     for family, make in (("raised_cosine", fl.raised_cosine),
                                          ("smooth_bump", fl.smooth_bump), ("tabulated", _tent))
                     for h, radius, dx in ((8, 1.0, 1 / 8), (16, 1.0, 1 / 16), (80, 5.0, 1 / 16))}


def _blocked_stencil(name):
    make, radius, dx = _BLOCKED_STENCILS[name]
    return make(radius).discretize(dx)


def _mixed_field(rng, n):
    """Values in [0, 1), a third of them scaled to near TAIL_FLOOR and a fifth zero."""
    w = rng.random(n)
    w[rng.random(n) < 1 / 3] *= dynamics.TAIL_FLOOR * 10.0 ** rng.uniform(0, 3)
    w[rng.random(n) < 1 / 5] = 0.0
    return w


@pytest.mark.parametrize("name", sorted(_BLOCKED_STENCILS))
def test_nonlocal_apply_bits_do_not_depend_on_position(name):
    # every cell sums its taps in the same order wherever it falls in a block,
    # which is what keeps simulate's active window bit-identical to the full grid
    st = _blocked_stencil(name)
    block = dynamics.BLOCK
    rng = np.random.default_rng(11)
    for n in (block + 5, 3 * block + 7):
        w = _mixed_field(rng, n)
        ref = fl.nonlocal_apply(st, w)
        for left in range(2 * block + 2):
            for right in (0, 1, block - 3):
                padded = np.concatenate([np.zeros(left), w, np.zeros(right)])
                out = fl.nonlocal_apply(st, padded)[left:left + n]
                assert out.tobytes() == ref.tobytes(), (n, left, right)


@pytest.mark.parametrize("name", sorted(_BLOCKED_STENCILS))
def test_nonlocal_apply_agrees_with_pointwise_reference(name):
    # both sum the 2h + 1 taps and subtract the cell in float64, each within
    # gamma_(2h+3) of the exact value relative to the sum of the terms' magnitudes
    st = _blocked_stencil(name)
    h = st.halfwidth
    eps = np.finfo(float).eps
    rng = np.random.default_rng(12)
    for n in (3, 2 * h + 1, 150):
        w = _mixed_field(rng, n)
        out = fl.nonlocal_apply(st, w)
        magnitude = np.convolve(w, st.weights)[h:h + n] * st.dx + w
        for i in range(n):
            err = abs(out[i] - nonlocal_op(st, w, i))
            assert err <= (2 * h + 3) * eps * magnitude[i], (n, i, err)


def _rhs_on(u, v, params, profile, grid, unit_kernel, t=0.0):
    st1 = unit_kernel.discretize(grid.dx)
    return fl.rhs(np.stack((u, v)), profile.alpha_shifted(grid.x, t, params.s), params, st1, st1)


def test_rhs_extinction_fixed_point(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    du, dv = _rhs_on(np.zeros(grid.n), np.zeros(grid.n), params,
                     fl.constant_one(), grid, unit_kernel)
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_rhs_carrying_capacity_interior(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    du, dv = _rhs_on(np.ones(grid.n), np.zeros(grid.n), params,
                     fl.constant_one(), grid, unit_kernel)
    h = unit_kernel.discretize(grid.dx).halfwidth
    assert np.max(np.abs(du[h:-h])) <= 1e-12
    assert np.all(dv == 0.0)


def test_rhs_saturated_predator_interior(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.ones(grid.n)
    v = np.full(grid.n, params.b - 1.0)
    du, dv = _rhs_on(u, v, params, fl.constant_one(), grid, unit_kernel)
    h = unit_kernel.discretize(grid.dx).halfwidth
    expected_du = -params.r1 * params.a * (params.b - 1.0)
    assert du[h:-h] == pytest.approx(expected_du, abs=1e-12)
    assert np.max(np.abs(dv[h:-h])) <= 1e-12


def test_step_zero_state_stays_zero(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)
    zeros, ones = np.zeros((2, grid.n)), np.ones(grid.n)
    y, err, k_last = fl.step(zeros, 0.01, (ones,) * 12, params, st1, st1,
                             fl.rhs(zeros, ones, params, st1, st1))
    assert np.all(y == 0.0) and np.all(err == 0.0) and np.all(k_last == 0.0)


def test_step_leaves_out_an_absent_species_exactly(unit_kernel):
    # an identically zero species only adds and multiplies exact zeros, so
    # stepping the other one alone changes no bit of its solution, error or last stage
    params = fl.Params(d1=1, d2=0.7, r1=1, r2=0.5, a=0.5, b=2)
    grid = fl.grid_from_spacing(-10, 10, 1 / 8)
    st1, st2 = unit_kernel.discretize(grid.dx), fl.smooth_bump(1.5).discretize(grid.dx)
    dt = 0.1
    alphas = tuple(fl.logistic(A=0.5, L=1.0).alpha_shifted(grid.x, c * dt, 0.3)
                   for c in dynamics._NODES)
    bump = sample_bump(fl.BumpSpec(0.0, 3.0, 0.6), grid.x)
    for i in (0, 1):
        y = np.zeros((2, grid.n))
        y[i] = bump
        both = fl.step(y, dt, alphas, params, st1, st2,
                       fl.rhs(y, alphas[0], params, st1, st2))
        rates = fl.rhs(y[i:i + 1], alphas[0], params, st1, st2, live=(i,))
        assert rates.shape == (1, grid.n)
        alone = fl.step(y[i:i + 1], dt, alphas, params, st1, st2, rates, live=(i,))
        for full, part in zip(both, alone):
            # the error estimates are stacked along a leading axis
            full, part = full.reshape(-1, 2, grid.n), part.reshape(-1, 1, grid.n)
            assert part.shape[0] == full.shape[0]
            assert full[:, i].tobytes() == part[:, 0].tobytes() and not full[:, 1 - i].any()


# The stepping formulas per species, as a bit-for-bit reference: each species
# convolved with its own unpadded block of d * (J*w - w), and every stage sum
# accumulated term by term from zero, each term added as one fused
# multiply-add (rounded once), zero coefficients included.  The tableau is the
# module's, which the test below checks against the published DOP853
# coefficients.
_REF_A = dynamics._A
_REF_E = (dynamics._E5, dynamics._E3)


def test_tableau_is_the_published_dop853():
    # a mistyped digit fails here instead of moving a front speed; scipy's copy
    # of Hairer's coefficients is a private module, so its absence skips the test
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = dop853.N_STAGES
    assert len(dynamics._A) == n and dynamics._NODES == tuple(dop853.C[:n])
    for i, row in enumerate(dynamics._A[:-1], start=1):
        assert row == tuple(dop853.A[i, :i]), i
    assert dynamics._A[-1] == tuple(dop853.B)
    assert dynamics._E5 == tuple(dop853.E5[:n]) and dop853.E5[n] == 0.0
    assert dynamics._E3 == tuple(dop853.E3[:n]) and dop853.E3[n] == 0.0
    # each stage's node is its row sum, the weights sum to 1, and the error
    # weights, differences of consistent weights, to 0
    for c, row in zip(dynamics._NODES[1:] + (1.0,), dynamics._A):
        assert abs(math.fsum(row) - c) <= 1e-15 * math.fsum(map(abs, row)), row
    for row in (dynamics._E5, dynamics._E3):
        assert abs(math.fsum(row)) <= 1e-15 * math.fsum(map(abs, row)), row


def _reference_nonlocal(stencil, w, d=1.0):
    h, n = stencil.halfwidth, w.size
    taps = stencil.weights[::-1] * stencil.dx
    taps[h] -= 1.0
    taps *= d
    padded = np.zeros(n + 2 * h)
    padded[h:h + n] = w
    acc = np.zeros(n)
    for t, tap in enumerate(taps):
        acc = _fma(tap, padded[t:t + n], acc)
    return acc


def _reference_rhs(y, alpha, params, st1, st2, live):
    fields = [None, None]
    for i, w in zip(live, y):
        fields[i] = w
    u, v = fields
    rates = [None, None]
    if u is not None:
        pressure = alpha - u if v is None else alpha - u - params.a * v
        rates[0] = _reference_nonlocal(st1, u, params.d1) + params.r1 * u * pressure
    if v is not None:
        pressure = -1.0 - v if u is None else -1.0 + params.b * u - v
        rates[1] = _reference_nonlocal(st2, v, params.d2) + params.r2 * v * pressure
    return np.array([rates[i] for i in live])


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a, b):
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fma(c, k, acc):
    """``acc + c * k`` rounded once, elementwise, in float64 arithmetic alone:
    Boldo & Melquiond's (2008) emulation, the exact product and sum split into
    float64 pairs and their low parts added with rounding to odd."""
    uh, ul = _two_product(c, k)
    th, tl = _two_sum(acc, uh)
    v, e = _two_sum(tl, ul)
    inexact_even = (e != 0.0) & ((v.view(np.int64) & 1) == 0)
    v = np.where(inexact_even, np.nextafter(v, np.copysign(np.inf, e)), v)
    return th + v


def test_reference_fma_is_rounded_once():
    # against exact rational arithmetic, on random terms, near-cancellations
    # and exact ties between two floats
    rng = np.random.default_rng(5)
    n = 3000
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2, n)
    k = rng.standard_normal(n) * 10.0 ** rng.integers(-250, 3, n)
    acc = rng.standard_normal(n) * 10.0 ** rng.integers(-250, 3, n)
    near = rng.random(n) < 0.3
    acc[near] = -(c[near] * k[near]) * (1.0 + rng.integers(-4, 5, near.sum()) * 2.0 ** -52)
    tie = rng.random(n) < 0.2
    c[tie] = rng.integers(1, 2 ** 26, tie.sum())
    k[tie] = rng.integers(1, 2 ** 27, tie.sum()) + 0.5
    acc[tie] = rng.integers(1, 2 ** 53, tie.sum()) * 2.0 ** rng.integers(-3, 4, tie.sum())
    got = _fma(c, k, acc)
    want = np.array([float(Fraction(a) + Fraction(x) * Fraction(y))
                     for a, x, y in zip(acc.tolist(), c.tolist(), k.tolist())])
    assert got.tobytes() == want.tobytes()


def _reference_combine(coefs, ks):
    acc = np.zeros(ks[0].shape)
    for c, k in zip(coefs, ks):
        acc = _fma(c, k, acc)
    return acc


def _reference_step(y, dt, alphas, params, st1, st2, live):
    # each stage state weighs y with 1 and k_j with dt * a_ij; the error
    # estimates weigh y with 0
    ks = [_reference_rhs(y, alphas[0], params, st1, st2, live)]
    for row, alpha in zip(_REF_A, alphas[1:] + alphas[-1:]):
        stage = _reference_combine([1.0] + [dt * a for a in row], [y] + ks)
        ks.append(_reference_rhs(stage, alpha, params, st1, st2, live))
    errors = [_reference_combine([0.0] + [dt * c for c in e], [y] + ks[:-1]) for e in _REF_E]
    return stage, np.stack(errors), ks[-1]


@pytest.mark.parametrize("live", [(0, 1), (0,), (1,)])
@pytest.mark.parametrize("wider", ["v", "u"])
def test_step_and_rhs_match_the_per_species_reference_bit_for_bit(live, wider):
    # the stage sums as matrix products and the one convolution of both species,
    # the narrower stencil zero-padded to the wider half-width, on window slices
    # at every offset mod BLOCK, growing and shrinking, with and without a
    # workspace kept across calls as simulate keeps it
    params = fl.Params(d1=1, d2=0.7, r1=1, r2=0.5, a=0.5, b=2)
    narrow, wide = fl.raised_cosine(1.0).discretize(1 / 8), fl.smooth_bump(1.5).discretize(1 / 8)
    assert (narrow.halfwidth, wide.halfwidth) == (7, 11)
    st1, st2 = (narrow, wide) if wider == "v" else (wide, narrow)
    block = dynamics.BLOCK
    n = 4 * block + 9
    x = np.linspace(-8.0, 8.0, n)
    dt = 0.05
    alphas = tuple(fl.logistic(A=0.5, L=1.0).alpha_shifted(x, c * dt, 0.3)
                   for c in dynamics._NODES)
    rng = np.random.default_rng(21)
    y = np.stack([_mixed_field(rng, n) for _ in live])
    work = dynamics._workspace(live, st1, st2, n)
    for offset in range(block):
        win = slice(offset, n - (5 * offset) % (2 * block + 3))
        yw, aw = y[:, win], tuple(a[win] for a in alphas)
        ref = _reference_step(yw, dt, aw, params, st1, st2, live)
        k1 = _reference_rhs(yw, aw[0], params, st1, st2, live)
        for shared in (None, work):
            rates = fl.rhs(yw, aw[0], params, st1, st2, live, None, shared)
            assert rates.tobytes() == k1.tobytes(), (offset, shared)
            out = fl.step(yw, dt, aw, params, st1, st2, k1, live, shared)
            for got, want in zip(out, ref):
                assert got.tobytes() == want.tobytes(), (offset, shared)


@pytest.mark.parametrize("live", [(0, 1), (0,), (1,)])
def test_step_bits_do_not_depend_on_window_offset_or_length(live):
    # one random nonzero patch, with zero margins wider than a step's reach,
    # stepped in windows at every offset mod BLOCK and every length mod 8:
    # every cell gets the same bits, and each stage sum, recomputed from the
    # step's own stages as fused multiply-adds in slot order, gives the stage
    # that follows it (a one-row product, a gemv, sums in another order)
    params = fl.Params(d1=1, d2=0.7, r1=1, r2=0.5, a=0.5, b=2)
    st1, st2 = fl.raised_cosine(1.0).discretize(1 / 8), fl.smooth_bump(1.5).discretize(1 / 8)
    margin = (len(dynamics._A) + 1) * st2.halfwidth
    rng = np.random.default_rng(23)
    patch = rng.random((len(live), 45)) + 0.05
    habitat = rng.random((len(dynamics._NODES), 45)) - 0.2
    span = patch.shape[1] + 2 * margin
    dt = 0.3
    want = None
    for offset in range(dynamics.BLOCK):
        for extra in range(8):
            cells = (margin + offset, margin + extra)
            y = np.pad(patch, ((0, 0), cells))
            alphas = tuple(np.pad(a, cells, constant_values=0.5) for a in habitat)
            work = dynamics._workspace(live, st1, st2, y.shape[1])
            k1 = fl.rhs(y, alphas[0], params, st1, st2, live)
            out = fl.step(y, dt, alphas, params, st1, st2, k1, live, work)
            got = [part[..., offset:offset + span].tobytes() for part in (k1, *out)]
            want = want or got
            assert got == want, (offset, extra)
            if extra == 0:
                ks = [y] + list(work.layout(y.shape[1]).ks[1:, :, :y.shape[1]])
                for j, (row, alpha) in enumerate(zip(dynamics._A, alphas[1:] + alphas[-1:])):
                    stage = _reference_combine([1.0] + [dt * a for a in row], ks[:j + 2])
                    rates = fl.rhs(stage, alpha, params, st1, st2, live)
                    assert rates.tobytes() == ks[j + 2].tobytes(), (offset, j)
                assert stage.tobytes() == out[0].tobytes()


def _simulate_from(unit_kernel, u0, dt, grid):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    return fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       fl.State(u=u0, v=np.zeros(grid.n)), dt=dt, t_final=0.1,
                       boundary_monitor="none")


def test_simulate_runs_above_dt_max(unit_kernel):
    # dt is the snapshot clock and the first trial step, not a bound on steps
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    dt = 1.5 * fl.dt_max(params, 1.0)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, init,
                       dt=dt, t_final=2.0, snapshot_stride=5, boundary_monitor="none")
    n_ticks = step_count(2.0, dt)
    tick = traj.diagnostics["dt_used"]
    assert tick == 2.0 / n_ticks and tick > fl.dt_max(params, 1.0)
    ticks = [row * 5 * tick for row in range(traj.times.size - 1)] + [2.0]
    assert traj.times.tolist() == ticks
    assert traj.diagnostics["h_invariant_ok"]


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_simulate_rejects_nonpositive_dt(unit_kernel, dt):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    with pytest.raises(ValueError, match="dt must be positive"):
        _simulate_from(unit_kernel, np.zeros(grid.n), dt, grid)


@pytest.mark.parametrize("stride", [0, -3, 2.7])
def test_simulate_rejects_bad_snapshot_stride(unit_kernel, stride):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    init = fl.State(u=np.zeros(grid.n), v=np.zeros(grid.n))
    with pytest.raises(ValueError, match="snapshot_stride"):
        fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, init,
                    dt=0.01, t_final=0.1, snapshot_stride=stride, boundary_monitor="none")


def test_simulate_aborts_on_real_undershoot(unit_kernel):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    with pytest.raises(InstabilityError, match="undershoot"):
        _simulate_from(unit_kernel, np.full(grid.n, -5e-10), 0.01, grid)


def test_clamp_undershoot_thresholds():
    # roundoff negatives and the tail below the floor become +0.0; the floor
    # itself and everything above stay; the minimum before the floor is returned,
    # with the maximum and the extent of the cells that stay nonzero
    floor = dynamics.TAIL_FLOOR
    arr = np.array([[0.2, -5e-13, 0.0, -0.0, 5e-324, 1e-300, 0.999 * floor, floor, 1.001 * floor,
                     0.0]])
    lows, highs, extent = _tally(arr)
    assert lows.tolist() == [-5e-13] and highs.tolist() == [0.2]
    assert arr.tolist() == [[0.2] + [0.0] * 6 + [floor, 1.001 * floor, 0.0]]
    assert not np.signbit(arr).any()
    assert extent == (0, 9)
    # without the floor the cells are left as they are, and every nonzero one counts
    raw = np.array([[0.0, -0.0, 5e-324, 0.0], [0.0, 0.0, -1e-300, 0.0]])
    before = raw.tobytes()
    lows, highs, extent = _tally(raw, floor=False)
    assert raw.tobytes() == before
    assert lows.tolist() == [-0.0, -1e-300] and highs.tolist() == [5e-324, 0.0]
    assert extent == (2, 3)
    assert _tally(np.zeros((2, 5)))[2] is None
    assert _tally(np.full((1, 4), floor))[2] == (0, 4)


def test_simulate_rejects_nan_state(unit_kernel):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.zeros(grid.n)
    u[3] = np.nan
    with pytest.raises(NumericFailureError):
        _simulate_from(unit_kernel, u, 0.01, grid)


def test_simulate_h_worst_records_pre_clamp_minimum(unit_kernel):
    # an isolated roundoff-scale negative grows for one step before the clamp removes it
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.zeros(grid.n)
    u[40] = -1e-12
    traj = _simulate_from(unit_kernel, u, 0.01, grid)
    assert traj.diagnostics["h_worst"]["u_min"] < -1e-12
    assert traj.diagnostics["h_invariant_ok"]
    assert np.all(traj.u[1:] >= 0.0)


def test_step_uniform_logistic_matches_closed_form(unit_kernel):
    # spatially uniform field away from the boundary follows the logistic ODE
    params = fl.Params(d1=1, d2=1, r1=1, r2=0.5, a=0.5, b=2)
    grid = fl.grid_from_spacing(-30, 30, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)
    u0 = 0.2
    y = np.stack((np.full(grid.n, u0), np.zeros(grid.n)))
    ones = np.ones(grid.n)
    dt, k1 = 0.03, fl.rhs(y, ones, params, st1, st1)
    for _ in range(100):
        y, _, k1 = fl.step(y, dt, (ones,) * 12, params, st1, st1, k1)
    t = 100 * dt
    exact = u0 / (u0 + (1.0 - u0) * np.exp(-params.r1 * t))
    mid = grid.n // 2
    assert y[0, mid] == pytest.approx(exact, abs=1e-9)
    assert np.all(y[1] == 0.0)


def test_simulate_uniform_logistic_matches_closed_form(unit_kernel):
    # the controller's 12 steps, clipped to the snapshot times, follow the logistic
    # ODE (1.8e-13 off here)
    params = fl.Params(d1=1, d2=1, r1=1, r2=0.5, a=0.5, b=2)
    grid = fl.grid_from_spacing(-30, 30, 1 / 8)
    u0 = 0.2
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       fl.State(u=np.full(grid.n, u0), v=np.zeros(grid.n)), dt=0.02,
                       t_final=3.0, snapshot_stride=15, boundary_monitor="none")
    assert traj.diagnostics["n_steps"] < step_count(3.0, 0.02)
    exact = u0 / (u0 + (1.0 - u0) * np.exp(-params.r1 * traj.times))
    mid = grid.n // 2
    assert np.max(np.abs(traj.u[:, mid] - exact)) <= 1e-7


def test_step_richardson_order(unit_kernel):
    # DOP853: halving dt cuts the error of the solution over an interval by about
    # 2^8 (the measured order is 7.67 and 7.97 at dt = 0.8, 0.4, 0.2 and at 0.4,
    # 0.2, 0.1; smaller steps reach roundoff), and the one-step error estimates,
    # of the embedded 5th- and 3rd-order solutions, by 2^6 and 2^4
    params = fl.Params(d1=1, d2=1, r1=1, r2=0.5, a=0.5, b=2, s=0.3)
    profile = fl.logistic(A=0.5, L=1.0)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)

    def alphas_at(t, dt):
        return tuple(profile.alpha_shifted(grid.x, t + c * dt, params.s)
                     for c in dynamics._NODES)

    def one_step(y, t, dt):
        alphas = alphas_at(t, dt)
        k1 = fl.rhs(y, alphas[0], params, st1, st1)
        return fl.step(y, dt, alphas, params, st1, st1, k1)

    def advance(y, t0, dt, n):
        for k in range(n):
            y = one_step(y, t0 + k * dt, dt)[0]
        return y

    # warm up so the field is smooth and generic
    y = advance(np.stack((sample_bump(fl.BumpSpec(0.0, 3.0, 0.6), grid.x),
                          sample_bump(fl.BumpSpec(0.0, 2.0, 0.3), grid.x))), 0.0, 0.02, 10)
    coarse, medium, fine = (advance(y, 0.2, 1.6 / n, n) for n in (4, 8, 16))
    order = np.log2(np.max(np.abs(coarse - medium)) / np.max(np.abs(medium - fine)))
    assert 7.7 <= order <= 8.3
    errs = [one_step(y, 0.2, dt)[1] for dt in (0.1, 0.05, 0.025)]
    for big, small in zip(errs, errs[1:]):
        e5, e3 = (np.max(np.abs(big[i])) / np.max(np.abs(small[i])) for i in (0, 1))
        assert 58.0 <= e5 <= 70.0 and 14.0 <= e3 <= 17.5


def test_make_initial_bump_geometry():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    state = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                            grid, params)
    positive = int((state.u > 0.0).sum())
    assert 39 <= positive <= 41
    assert state.u.max() == pytest.approx(0.5, abs=1e-12)
    assert np.all(state.v == 0.0)


def test_make_initial_height_limits():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    ok = fl.make_initial(fl.BumpSpec(0.0, 2.0, 1.0), fl.BumpSpec(0.0, 2.0, 0.0),
                         grid, params)
    assert ok.u.max() <= 1.0
    with pytest.raises(InvariantViolationError):
        fl.make_initial(fl.BumpSpec(0.0, 2.0, 1.5), fl.BumpSpec(0.0, 2.0, 0.0),
                        grid, params)


def test_make_initial_rejects_nan_array():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    zeros, nans = np.zeros(grid.n), np.full(grid.n, np.nan)
    for u0, v0 in ((nans, zeros), (zeros, nans)):
        with pytest.raises(InvariantViolationError):
            fl.make_initial(u0, v0, grid, params)


def test_make_initial_empty_support():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    with pytest.raises(ResolutionError):
        fl.make_initial(fl.BumpSpec(0.051, 0.02, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                        grid, params)


def test_simulate_predator_dies_without_prey(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.0), fl.BumpSpec(0.0, 3.0, 0.8),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=10.0, snapshot_stride=20,
                       boundary_monitor="both")
    sups = traj.v.max(axis=1)
    # dispersal redistributes mass, but the peak can only decay
    assert np.all(np.diff(sups) < 0.0)
    assert np.all(traj.u == 0.0)
    assert sups[-1] < sups[0] * 1e-3


def test_simulate_comparison_of_ordered_prey_data(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-25, 25, 1 / 8)
    zero_v = fl.BumpSpec(0.0, 2.0, 0.0)
    small = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.3), zero_v, grid, params)
    large = fl.make_initial(fl.BumpSpec(0.0, 3.0, 0.6), zero_v, grid, params)
    kw = dict(dt=0.02, t_final=5.0, snapshot_stride=10, boundary_monitor="none")
    ta = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, small, **kw)
    tb = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, large, **kw)
    assert np.all(ta.u <= tb.u + 1e-12)


def test_simulate_translation_equivariance(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    base = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    shifted = fl.State(u=np.roll(base.u, 1), v=np.roll(base.v, 1))
    kw = dict(dt=0.02, t_final=3.0, snapshot_stride=25, boundary_monitor="none")
    ta = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, base, **kw)
    tb = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, shifted, **kw)
    sl = slice(30, -30)
    assert np.max(np.abs(tb.u[-1][1:][sl] - ta.u[-1][:-1][sl])) <= 1e-10
    assert np.max(np.abs(tb.v[-1][1:][sl] - ta.v[-1][:-1][sl])) <= 1e-10


def test_simulate_front_position_refinement(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    zero_v = fl.BumpSpec(0.0, 2.0, 0.0)
    positions = {}
    for dx in (1 / 8, 1 / 16):
        grid = fl.grid_from_spacing(-30, 40, dx)
        init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), zero_v, grid, params)
        traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                           init, dt=0.02, t_final=20.0, snapshot_stride=10 ** 9,
                           boundary_monitor="none")
        positions[dx] = fl.level_set_position(grid.x, traj.u[-1], 0.1, "right")
    assert abs(positions[1 / 8] - positions[1 / 16]) < 1 / 8


def test_simulate_h_invariance_diagnostics(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-25, 25, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 3.0, 1.0), fl.BumpSpec(0.0, 2.0, 1.0),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=8.0, snapshot_stride=20,
                       boundary_monitor="none")
    assert traj.diagnostics["h_invariant_ok"]
    worst = traj.diagnostics["h_worst"]
    assert worst["u_max"] <= 1.0 + 1e-8 and worst["v_max"] <= params.v_cap + 1e-8
    assert worst["u_min"] >= 0.0 and worst["v_min"] >= 0.0


def test_simulate_boundary_contamination_error(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-6, 6, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    with pytest.raises(BoundaryContaminationError):
        fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                    init, dt=0.02, t_final=30.0, snapshot_stride=5,
                    boundary_monitor="both")


def test_simulate_boundary_warning_flag(unit_kernel):
    # deliberately snug box: the tail grazes the wall but stays below 1e-3
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-14, 14, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=17.0, snapshot_stride=5,
                       boundary_monitor="both")
    assert traj.diagnostics["boundary_warning"]
    assert traj.diagnostics["max_boundary_fraction"] < 1e-3


# "predator_dies_right": with no prey the predator dies while it spreads
# toward the right wall; against its falling peak it would abort at t = 4.5.
_MONITOR_STARTS = {"prey_only": ((0.0, 2.0, 0.5), (0.0, 2.0, 0.0)),
                   "u_left_v_right": ((-3.0, 2.0, 0.5), (4.0, 2.0, 0.4)),
                   "u_right_v_left": ((3.0, 2.0, 0.5), (-4.0, 2.0, 0.4)),
                   "predator_dies_right": ((0.0, 2.0, 0.0), (10.0, 2.0, 0.4))}


@pytest.mark.parametrize("side", ["both", "left", "right", "none"])
@pytest.mark.parametrize("start", sorted(_MONITOR_STARTS))
def test_simulate_boundary_monitor_reads_the_selected_walls(unit_kernel, start, side):
    # the reference divides by the running maximum of the full-row maxima of
    # the stored snapshots of an unmonitored run, u before v, as the monitor must
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-14, 14, 1 / 8)
    u_bump, v_bump = _MONITOR_STARTS[start]
    init = fl.make_initial(fl.BumpSpec(*u_bump), fl.BumpSpec(*v_bump), grid, params)

    def run(monitor):
        return fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, init,
                           dt=0.02, t_final=17.0, snapshot_stride=5, boundary_monitor=monitor)

    ref = run("none")
    ends = {"both": [0, -1], "left": [0], "right": [-1], "none": []}[side]
    warning, largest, abort = False, 0.0, None
    tops = {"u": 0.0, "v": 0.0}
    for t, u_row, v_row in zip(ref.times.tolist(), ref.u, ref.v):
        for name, row in (("u", u_row), ("v", v_row)):
            peak = tops[name] = max(tops[name], float(row.max()))
            if peak <= 1e-8:
                continue
            frac = max([0.0] + [float(row[c]) for c in ends]) / peak
            largest = max(largest, frac)
            warning = warning or frac > 1e-6
            if frac > 1e-3 and abort is None:
                abort = f"{name} reached {frac:.2e} of its peak at the domain edge (t={t:g})"
        if abort is not None:
            break
    if abort is not None:
        with pytest.raises(BoundaryContaminationError) as info:
            run(side)
        assert str(info.value).startswith(abort)
        return
    diag = run(side).diagnostics
    assert diag["boundary_warning"] is warning
    assert type(diag["max_boundary_fraction"]) is float
    assert diag["max_boundary_fraction"] == largest
    assert (largest == 0.0) is (side == "none")


@pytest.mark.parametrize("stride", [7, 165, 1000])
def test_simulate_snapshot_rows_for_any_stride(unit_kernel, stride):
    # t_final = 3.3 in 165 ticks of 0.02: 165 * (3.3 / 165) != 3.3 in floating point;
    # the shifting habitat makes every row depend on the stage times
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    cases = ((fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2), fl.constant_one()),
             (fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3), fl.logistic(A=0.5, L=1.0)))
    n_ticks = step_count(3.3, 0.02)
    assert n_ticks == 165
    for params, profile in cases:
        init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                               grid, params)
        kw = dict(dt=0.02, t_final=3.3, boundary_monitor="none")
        every = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                            snapshot_stride=1, **kw)
        seen = []
        traj = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                           snapshot_stride=stride,
                           on_snapshot=lambda t, u, v: seen.append((t, u, v, u.copy())), **kw)
        rows = 1 + -(-n_ticks // stride)
        # on_snapshot gets every stored row, row 0 included, when it is stored
        assert [t for t, *_ in seen] == traj.times.tolist()
        for i, (_, u, v, u_then) in enumerate(seen):
            assert np.shares_memory(u, traj.u[i]) and np.shares_memory(v, traj.v[i])
            assert np.array_equal(u_then, traj.u[i])
        assert traj.times.shape == (rows,)
        assert traj.u.shape == traj.v.shape == (rows, grid.n)
        assert traj.times[-1] == 3.3 and traj.t_final == 3.3
        # every row is taken at the time of the same tick as with stride 1; clipping
        # the steps to other snapshot times moves it (2.3e-10 at most here)
        ticks = list(range(0, n_ticks, stride)) + [n_ticks]
        assert np.array_equal(traj.times, every.times[ticks])
        gap = max(np.max(np.abs(traj.u - every.u[ticks])),
                  np.max(np.abs(traj.v - every.v[ticks])))
        assert gap <= 1e-7


def test_simulate_reads_habitat_once_per_stage_time(unit_kernel, monkeypatch):
    # every entry of the time array of each read, and the number of entries per read
    times, reads = [], []
    alpha_shifted = fl.HabitatProfile.alpha_shifted

    def counting(self, x, t, s):
        times.extend(np.ravel(t).tolist())
        reads.append(np.size(t))
        return alpha_shifted(self, x, t, s)

    rhs_calls = []
    rhs = dynamics.rhs

    def counting_rhs(*args):
        rhs_calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(fl.HabitatProfile, "alpha_shifted", counting)
    monkeypatch.setattr(dynamics, "rhs", counting_rhs)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    # the default tolerances, then tight ones that reject steps, then a floor
    # raised to 1e-20, below which the default run holds values
    runs = []
    for rtol, atol, floor in ((dynamics.RTOL, dynamics.ATOL, dynamics.TAIL_FLOOR),
                              (1e-10, 1e-13, dynamics.TAIL_FLOOR),
                              (dynamics.RTOL, dynamics.ATOL, 1e-20)):
        monkeypatch.setattr(dynamics, "RTOL", rtol)
        monkeypatch.setattr(dynamics, "ATOL", atol)
        monkeypatch.setattr(dynamics, "TAIL_FLOOR", floor)
        times.clear()
        reads.clear()
        rhs_calls.clear()
        traj = fl.simulate(params, fl.logistic(A=0.5, L=1.0), unit_kernel, unit_kernel,
                           grid, init, dt=0.02, t_final=3.3, snapshot_stride=10,
                           boundary_monitor="none")
        runs.append(traj)
        accepted, rejected = traj.diagnostics["n_steps"], traj.diagnostics["n_rejected"]
        assert rejected > 0 or rtol == dynamics.RTOL
        if floor == 1e-20:
            fired = [((w > 0.0) & (w < floor)).any() for w in (runs[0].u, traj.u)]
            assert fired == [True, False]
        # no negative is clamped, and a flushed tail keeps the last stage, so the
        # last stage of each accepted step, extended by zeros where the window
        # grows, is the first stage of the next
        assert traj.diagnostics["h_worst"]["u_min"] == traj.diagnostics["h_worst"]["v_min"] == 0.0
        assert len(rhs_calls) == 1 + 12 * (accepted + rejected)
        # t = 0 once, then the eleven new stage times of each attempt in one read;
        # the start of an attempt is the end of the last accepted one and is not
        # read again
        assert reads == [1] + [11] * (accepted + rejected)
        assert times[0] == 0.0 and len(times) == 1 + 11 * (accepted + rejected)
        assert len(set(times)) == len(times)
        start, ends = 0.0, []
        for i, stage in enumerate(np.reshape(times[1:], (-1, 11))):
            dt = stage[-1] - start
            assert dt > 0.0
            assert np.allclose(stage, start + dt * np.array(dynamics._NODES[1:]),
                               rtol=0.0, atol=1e-12)
            if i + 1 == accepted + rejected or times[1 + 11 * (i + 1)] > stage[-1]:
                start = stage[-1]
                ends.append(start)
        assert len(ends) == accepted
        # every snapshot after t = 0 is the exact end of an accepted step
        assert set(traj.times[1:].tolist()) <= set(ends) and ends[-1] == 3.3


@pytest.mark.parametrize("dip, fresh", [(-5e-324, 0), (-1e-200, 1)])
def test_simulate_fresh_first_stage_only_after_a_clamp_past_the_floor(
        unit_kernel, monkeypatch, dip, fresh):
    # one cell of u dips to `dip` just before the floor of the second attempt, which
    # is accepted; the floor zeroes it either way, but only a dip to -TAIL_FLOOR or
    # below moves the state far enough to cost a fresh first stage
    tally = dynamics._tally
    floors = []

    def dipping(y, floor=True):
        floors.append(floor)
        if floors.count(True) == 2:  # one call per attempt, after the one at t = 0
            y[0, 0] = dip
        return tally(y, floor)

    rhs_calls = []
    rhs = dynamics.rhs

    def counting_rhs(*args):
        rhs_calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(dynamics, "_tally", dipping)
    monkeypatch.setattr(dynamics, "rhs", counting_rhs)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    traj = fl.simulate(params, fl.logistic(A=0.5, L=1.0), unit_kernel, unit_kernel,
                       grid, init, dt=0.02, t_final=3.3, snapshot_stride=10,
                       boundary_monitor="none")
    attempts = traj.diagnostics["n_steps"] + traj.diagnostics["n_rejected"]
    assert floors == [False] + [True] * attempts
    assert traj.diagnostics["h_worst"]["u_min"] == dip
    assert len(rhs_calls) == 1 + fresh + 12 * attempts


def test_simulate_reads_static_habitat_once(unit_kernel, monkeypatch):
    calls = []
    alpha_shifted = fl.HabitatProfile.alpha_shifted

    def counting(self, x, t, s):
        calls.append(t)
        return alpha_shifted(self, x, t, s)

    monkeypatch.setattr(fl.HabitatProfile, "alpha_shifted", counting)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    cases = ((fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2), fl.logistic(A=0.5, L=1.0)),
             (fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3), fl.constant_one()))
    for params, profile in cases:
        calls.clear()
        init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                               grid, params)
        fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init, dt=0.02,
                    t_final=3.3, snapshot_stride=10, boundary_monitor="none")
        assert calls == [0.0]


_B = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
_WINDOW_CASES = {
    # (params, profile, kernel2 radius or None, x range, u bump, v bump, t_final);
    # the tail floor, not the kernel radius, bounds the nonzero extent
    "front_inside": (_B, fl.constant_one(), None, 100, (0.0, 2.0, 0.5), (0.0, 1.5, 0.4), 0.5),
    "fills_both_sides": (_B, fl.constant_one(), None, 12, (0.0, 2.0, 0.5), (0.0, 1.5, 0.4), 4.0),
    "v_zero": (_B, fl.constant_one(), None, 30, (3.0, 2.0, 0.5), (0.0, 1.5, 0.0), 3.0),
    "moving_habitat": (fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3),
                       fl.logistic(A=0.5, L=1.0), None, 25, (0.0, 2.0, 0.5),
                       (1.0, 1.5, 0.4), 3.0),
    "unequal_taps": (_B, fl.logistic(A=0.5, L=1.0), 1.5, 30, (-2.0, 2.0, 0.5),
                     (2.0, 1.5, 0.4), 3.0),
    "both_absent": (_B, fl.constant_one(), None, 20, (0.0, 2.0, 0.0), (0.0, 1.5, 0.0), 1.0),
    # the stencils keep no zero end taps, so each of a step's 13 stages widens
    # the nonzero set by h cells; a reach of 12h fails here (h = 15), as it
    # fails four of the cases above
    "wide_stencil": (_B, fl.constant_one(), 2.0, 100, (0.0, 2.0, 0.5), (0.0, 1.5, 0.4), 0.5),
}


def _step_the_whole_grid(monkeypatch):
    """Make the runs that follow step the whole grid: the first window is the grid."""
    tally = dynamics._tally
    monkeypatch.setattr(dynamics, "_tally",
                        lambda y, floor=True: (*tally(y, floor)[:2], (0, y.shape[1])))


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_simulate_window_is_bit_identical_to_full_grid(unit_kernel, case, monkeypatch):
    params, profile, radius2, half, u_bump, v_bump, t_final = _WINDOW_CASES[case]
    kernel2 = unit_kernel if radius2 is None else fl.smooth_bump(radius2)
    grid = fl.grid_from_spacing(-half, half, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(*u_bump), fl.BumpSpec(*v_bump), grid, params)

    def run():
        return fl.simulate(params, profile, unit_kernel, kernel2, grid, init, dt=0.02,
                           t_final=t_final, snapshot_stride=7, boundary_monitor="none")

    traj = run()
    _step_the_whole_grid(monkeypatch)
    ref = run()
    assert np.array_equal(traj.times, ref.times)
    assert traj.u.tobytes() == ref.u.tobytes() and traj.v.tobytes() == ref.v.tobytes()
    assert traj.diagnostics == ref.diagnostics
    ends = traj.u[-1, [0, -1]] + traj.v[-1, [0, -1]]
    if case == "front_inside":
        assert np.all(ends == 0.0)
    if case == "fills_both_sides":
        assert np.all(ends > 0.0)


def test_simulate_window_starts_from_positive_zeros(unit_kernel, monkeypatch):
    # initial zeros given as -0.0: the full grid floors them to +0.0 at the first
    # step, and the window, which reaches them later, must hold +0.0 there too
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-30, 30, 1 / 8)
    u = sample_bump(fl.BumpSpec(0.0, 2.0, 0.5), grid.x)
    u[u == 0.0] = -0.0
    init = fl.State(u=u, v=np.zeros(grid.n))

    def run():
        return fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, init,
                           dt=0.02, t_final=1.0, snapshot_stride=10, boundary_monitor="none")

    traj = run()
    _step_the_whole_grid(monkeypatch)
    ref = run()
    assert traj.u[1:].tobytes() == ref.u[1:].tobytes()
    assert not np.signbit(traj.u[1:]).any()


def test_simulate_error_against_tight_tolerance_on_shifting_front(unit_kernel, monkeypatch):
    # both species spread behind a moving habitat edge; the run at 1e-4 times the
    # tolerances stands in for the exact solution (4.8e-8 apart here, mostly in u)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.2)
    grid = fl.grid_from_spacing(-20, 40, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 3.0, 0.6), fl.BumpSpec(0.0, 2.0, 0.3),
                           grid, params)

    def run():
        return fl.simulate(params, fl.logistic(A=0.5, L=1.0), unit_kernel, unit_kernel,
                           grid, init, dt=0.02, t_final=20.0, snapshot_stride=50,
                           boundary_monitor="both")

    base = run()
    monkeypatch.setattr(dynamics, "RTOL", 1e-4 * dynamics.RTOL)
    monkeypatch.setattr(dynamics, "ATOL", 1e-4 * dynamics.ATOL)
    tight = run()
    # an 8th-order pair takes about 1e4**(1/8) = 3.2 times as many steps at 1e-4
    # times the tolerances, fewer where steps are clipped to the 20 snapshot times
    # (43 and 104 steps here)
    assert tight.diagnostics["n_steps"] > 2 * base.diagnostics["n_steps"]
    assert base.v[-1].max() > 0.1
    assert np.array_equal(base.times, tight.times)
    gap = max(np.max(np.abs(base.u - tight.u)), np.max(np.abs(base.v - tight.v)))
    assert gap <= 2e-6


def test_simulate_leaves_initial_state_untouched(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    u0, v0 = init.u.copy(), init.v.copy()
    fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, init,
                dt=0.02, t_final=2.0, snapshot_stride=10, boundary_monitor="none")
    assert init.u.tobytes() == u0.tobytes() and init.v.tobytes() == v0.tobytes()


def test_simulate_aborts_on_undershoot_inside_narrow_window(unit_kernel):
    # the active window is narrower than the grid; its isolated negative
    # cell trips the check on the initial data at t = 0, before any step
    grid = fl.grid_from_spacing(-30, 30, 1 / 8)
    u = sample_bump(fl.BumpSpec(0.0, 2.0, 0.5), grid.x)
    u[np.searchsorted(grid.x, 10.0)] = -5e-10
    with pytest.raises(InstabilityError, match="undershoot"):
        _simulate_from(unit_kernel, u, 0.01, grid)


_HEIGHT = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(r1=st.floats(0.1, 1.0), r2=st.floats(0.1, 1.0), a=st.floats(0.1, 1.0),
       b=st.floats(1.05, 2.0), slack1=st.floats(0.05, 1.0), slack2=st.floats(0.05, 1.0),
       s_frac=st.floats(0.0, 0.9), u_height=_HEIGHT, v_frac=_HEIGHT,
       v_center=st.floats(-3.0, 3.0))
def test_simulate_keeps_the_box_the_floor_and_absent_species(
        unit_kernel, r1, r2, a, b, slack1, slack2, s_frac, u_height, v_frac, v_center):
    # parameters that satisfy the standing hypotheses: both diffusion
    # inequalities with the drawn slack, b > 1, and s below both speeds
    profile = fl.logistic(A=0.5, L=1.0)
    d1 = r1 * profile.alpha_bar + r1 * a / 2 + r2 * b * (b - 1) / 2 + slack1
    d2 = r2 * (b - 1) + r2 * b * (b - 1) / 2 + a * r1 / 2 + slack2
    params = fl.Params(d1=d1, d2=d2, r1=r1, r2=r2, a=a, b=b)
    s_under = fl.system_speeds(params, unit_kernel, unit_kernel).s_underline
    params = fl.Params(d1=d1, d2=d2, r1=r1, r2=r2, a=a, b=b, s=s_frac * s_under)
    assert fl.check_hypotheses(params, profile, unit_kernel, unit_kernel).all_ok
    # wide enough that the leading edges fall below the floor in most examples
    grid = fl.grid_from_spacing(-100, 100, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, u_height),
                           fl.BumpSpec(v_center, 1.5, v_frac * (b - 1)), grid, params)
    traj = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                       dt=fl.dt_max(params, profile.alpha_bar), t_final=4.0,
                       snapshot_stride=8, boundary_monitor="none")
    for w, cap, height in ((traj.u, 1.0, u_height), (traj.v, b - 1, v_frac)):
        assert w.min() >= 0.0 and w.max() <= cap + 1e-8
        assert not ((w > 0.0) & (w < dynamics.TAIL_FLOOR)).any()
        if height == 0.0:
            assert w.tobytes() == bytes(w.nbytes)


def _reference_solution(x, u0, v0, radii, params, A, L, times):
    """The model on the grid with zero extension, from its equations alone:
    du/dt = d1 (J1*u - u) + r1 u (alpha(x - s t) - u - a v),
    dv/dt = d2 (J2*v - v) + r2 v (-1 + b u - v),
    J the raised cosine sampled and normalized to unit sum, alpha logistic."""
    p, dx, n = params, x[1] - x[0], x.size
    taps = []
    for r in radii:
        y = dx * np.arange(-round(r / dx), round(r / dx) + 1)
        j = (1.0 + np.cos(np.pi * y / r)) / (2.0 * r)
        taps.append(j / j.sum())

    def f(t, w):
        u, v = w[:n], w[n:]
        alpha = -A + (1.0 + A) / (1.0 + np.exp(-(x - p.s * t) / L))
        du = p.d1 * (np.convolve(u, taps[0], mode="same") - u) + p.r1 * u * (alpha - u - p.a * v)
        dv = p.d2 * (np.convolve(v, taps[1], mode="same") - v) + p.r2 * v * (-1.0 + p.b * u - v)
        return np.concatenate([du, dv])

    sol = solve_ivp(f, (0.0, times[-1]), np.concatenate([u0, v0]), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=times)
    assert sol.success
    return sol.y[:n].T, sol.y[n:].T


# (radii, bump center, predator height, s, gap in u, gap in v).  The gaps are
# max |simulate - reference| over the 7 snapshots with simulate at RTOL 1e-9
# and ATOL 1e-12 (87 to 89 steps), measured on x86-64 with numpy 2.4 and scipy 1.17.
# The reference itself moves by at most 9e-11 in u and 1.2e-13 in v when its
# tolerances are tightened to 1e-13 and 1e-16.
# In every case the active window grows from the bump to both walls by t = 2.
_REFERENCE_CASES = {
    "both_alive": ((1.0, 1.0), 5.0, 0.2, 0.15, 1.70e-9, 9.54e-14),
    "prey_only": ((1.0, 1.5), 5.0, 0.0, 0.15, 1.79e-9, 0.0),
    "unequal_halfwidths": ((1.0, 1.5), 5.0, 0.2, 0.15, 1.67e-9, 1.85e-12),
    # the window starts against the right wall and the prey front runs into it
    "front_at_wall": ((1.0, 1.5), 40.0, 0.2, 0.15, 1.47e-9, 2.23e-12),
    "static_habitat": ((1.0, 1.5), 5.0, 0.2, 0.0, 1.64e-9, 2.07e-12),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_simulate_matches_an_independent_reference(case, monkeypatch):
    radii, center, v_height, s, gap_u, gap_v = _REFERENCE_CASES[case]
    params = fl.Params(d1=1.0, d2=0.7, r1=0.5, r2=0.4, a=0.5, b=1.5, s=s)
    grid = fl.Grid(-30.0, 50.0, 641)
    init = fl.make_initial(fl.BumpSpec(center, 5.0, 0.8), fl.BumpSpec(center, 5.0, v_height),
                           grid, params)
    monkeypatch.setattr(dynamics, "RTOL", 1e-9)
    monkeypatch.setattr(dynamics, "ATOL", 1e-12)
    traj = fl.simulate(params, fl.logistic(A=0.5, L=2.0), fl.raised_cosine(radii[0]),
                       fl.raised_cosine(radii[1]), grid, init, dt=1.0, t_final=60.0,
                       snapshot_stride=10, boundary_monitor="none")
    ref_u, ref_v = _reference_solution(grid.x, init.u, init.v, radii, params, 0.5, 2.0,
                                       traj.times)
    # Each bound is 10 times the measured gap: room for another platform's
    # roundoff to move a step, far below what a wrong stage time, sign, stencil
    # offset or coefficient does (1e-5 and up).
    assert np.max(np.abs(traj.u - ref_u)) <= 10.0 * gap_u
    assert np.max(np.abs(traj.v - ref_v)) <= 10.0 * gap_v
    if case == "front_at_wall":
        assert traj.u[-1, -1] > 0.4
