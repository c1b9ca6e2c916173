"""Time integration of the coupled nonlocal predator-prey system.

The system on a truncated uniform grid, with zero extension outside:

    du/dt = d1*(J1*u - u) + r1*u*(alpha(x - s*t) - u - a*v)
    dv/dt = d2*(J2*v - v) + r2*v*(-1 + b*u - v)

Integration is the Dormand-Prince 5(4) pair (Dormand & Prince 1980) with
first-same-as-last stages: each step gives a 5th-order solution and an
embedded error estimate, and the last stage of an accepted step is the
first stage of the next.  One test in ``simulate`` judges each attempted
step.  It rejects the step when the error norm
``max |err| / (ATOL + RTOL * max(|y_old|, |y_new|))`` over both fields
exceeds 1 (``RTOL = 1e-6``, ``ATOL = 1e-9``), or when a cell of the new
state lies below ``_ABORT_FLOOR``.  The next attempt is the step times
``min(5, max(0.2, 0.9 * norm**(-1/5)))``, or times 0.2 after an
undershoot.  ``dt``, shortened to ``t_final / step_count(t_final, dt)``,
is the snapshot clock and the first trial step: snapshots fall at
``k * stride * dt`` and at ``t_final`` exactly, steps are clipped to land
on them, and after a clipped step the unclipped proposal resumes.  Only
``simulate`` knows time: the habitat is read once per attempted step, as
one ``(5, n)`` array at the five new stage times (the first is the end of
the last accepted step), or once per run when it does not move (``s == 0``
or the constant profile).  One min and one max per row of each attempt's
new state feed the undershoot test, the record of the invariant box
0 <= u <= 1, 0 <= v <= max(b-1, 0) and the boundary monitor, and one
comparison sets every cell below ``TAIL_FLOOR`` to +0.0: roundoff
negatives, and the leading edge of a front where it falls below 1e-250.

The floor keeps the arithmetic off subnormal numbers (below 2.2e-308),
which x86 processes in microcode, many times slower than normal ones.  No
observer looks anywhere near it (the smallest threshold is ``ATOL``), and
a cutoff at level eps moves a pulled front's speed by O(1/ln^2 eps)
(Brunet & Derrida 1997); float64 underflow already imposes one near
5e-324.  It sits at 1e-250, not at the subnormal limit, because the
stages multiply an edge value by stencil weights and ``dt`` up to six
times beyond the support, and from a floor of 1e-300 that still makes
subnormals.  The carried last stage survives the flooring of cells above
``-TAIL_FLOOR``, positive or negative: it was evaluated at the unfloored
state, which differs from the stored one by less than ``TAIL_FLOOR`` per
cell, so the first stage is off by less than ``TAIL_FLOOR * (d + r)`` per
cell.  A clamped negative at or below ``-TAIL_FLOOR`` still forces a
fresh first stage.

A species that is identically zero at t = 0 has an identically zero
right-hand side and stays +0.0, so ``simulate`` leaves it out: stage
combinations, error norms, the minima, maxima and floor run over the
live species' rows only, and ``rhs`` drops the absent one's terms, which
would add and multiply exact zeros.  The error norm and the steps are
those of stepping both, since a zero row adds 0 to the norm.  When both
species are absent, u's zero row is stepped to keep the step sequence.
Snapshot rows after the first are written for the live species only; an
absent one's rows are zero pages that are never written.

The live species are stepped as one stacked ``(live, n)`` array through
one workspace per run: the seven stages in one ``(7, live, n)`` buffer,
the stage state, the error estimate and the convolution's padded input,
row and product buffers, all allocated once and indexed from the window's
first cell.  Each stage state ``y + dt * sum_j a_ij k_j`` and the error
estimate are one ``einsum`` over the stage buffer and, for the stage
state, one addition.  The ``einsum`` sums each cell's products in tableau
order, multiplying and adding separately, so it gives the bits of
accumulating ``(dt * a_ij) * k_j`` one term at a time.  A zero tableau
entry, skipped there, adds a zero product here, which leaves a partial sum
as it is up to the sign of an exact zero, and the floor turns every stored
zero to +0.0.  One ``rhs`` per stage evaluates both species, with one
``nonlocal_apply``.

``simulate`` steps only an active window of the grid.  The kernels have
compact support, so one stage widens the nonzero set of u and v by at most
``h`` cells (the larger stencil half-width) and one step by ``6h``; every
cell outside stays exactly +0.0.  The window is the nonzero extent padded
by ``7h`` cells: ``6h`` for the growth within the step, and ``h`` more so
that the stencils truncated at the window edges read only zeros.  After
the floor, the nonzero cells are those at or above ``TAIL_FLOOR``.  Every
cell inside the window then gets the same bits as in a full-grid step.
``nonlocal_apply`` forms ``J*w`` of both species as one batched matrix
product of rows of ``BLOCK + 2h`` cells with one Toeplitz block per
species (``Stencil.padded_block``), the narrower stencil's padded with
zero rows to the wider half-width ``h``: a cell at offset ``j`` of its row
meets ``j`` exact-zero block entries (and the padding's), then its taps in
ascending order, then zeros again, and adding a zero product leaves a
partial sum as it is.  A cell's bits therefore depend neither on its
offset in a row, nor on the padding, nor on where the window starts or
how long it is, as long as the BLAS sums each output in one pass over its
row.  OpenBLAS does while ``BLOCK + 2h`` fits its inner block (384 on its
SkylakeX kernels, so ``h <= 176`` for the wider stencil); past that, runs
stay deterministic, but the window may differ from the full grid at
roundoff.  The error norm
over the window equals the full-grid one, so the result is bit-identical
to stepping the whole grid.  The window only grows, to the nonzero cells
that the floor's comparison marks, until it covers the grid.  When it
grows, the cells it gains are +0.0 and read only zeros, so the carried
last stage is extended by zeros, not recomputed.  The boundary monitor
divides the wall cells by each row's maximum over the window, which is
the grid's wherever it clears the monitor's peak floor of 1e-8.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (BoundaryContaminationError, InstabilityError,
                     InvariantViolationError, NumericFailureError, ResolutionError)
from .habitat import CONSTANT_ONE, HabitatProfile
from .kernels import BLOCK, Kernel, Stencil

# Undershoot threshold: a step that leaves a cell below it is rejected, and
# initial data below it, which no step can lift, aborts the run.
_ABORT_FLOOR = -1e-10

# After each accepted step, every cell below this becomes +0.0 (see the
# module docstring for why 1e-250).
TAIL_FLOOR = 1e-250

# Step controller tolerances: a step is accepted when
# max |err| / (ATOL + RTOL * max(|y_old|, |y_new|)) <= 1 over both fields.
RTOL = 1e-6
ATOL = 1e-9

# Dormand & Prince (1980) 5(4) pair: the distinct stage nodes, the rows of
# the stage matrix for stages 2..7 (the last row is the 5th-order weights,
# so stage 7 is the right-hand side at the solution and the next step's
# first stage), and the error weights (5th minus embedded 4th order).
_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class Params:
    """Model constants: diffusion, growth, interaction, and shift speed."""

    d1: float
    d2: float
    r1: float
    r2: float
    a: float
    b: float
    s: float = 0.0

    def __post_init__(self):
        for name in ("d1", "d2", "r1", "r2", "a", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be positive")
        if self.s < 0.0:
            raise ValueError("shift speed s must be nonnegative")

    @property
    def v_cap(self) -> float:
        """Upper edge of the predator box, ``max(b - 1, 0)``: for b <= 1 the box is {0}."""
        return max(self.b - 1.0, 0.0)


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on [x_min, x_max] with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.x_max > self.x_min:
            raise ValueError("grid interval is empty")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


def grid_from_spacing(x_min: float, x_max: float, dx: float) -> Grid:
    """Grid with spacing as close to ``dx`` as the interval allows."""
    n = int(round((x_max - x_min) / dx)) + 1
    return Grid(x_min=float(x_min), x_max=float(x_min) + (n - 1) * float(dx), n=n)


@dataclass
class State:
    """Grid-sampled initial densities; ``simulate`` starts them at t = 0."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class BumpSpec:
    """A compactly supported cosine-squared bump: height * cos^2(pi*(x-c)/(2w))."""

    center: float
    half_width: float
    height: float


def sample_bump(spec: BumpSpec, x: np.ndarray) -> np.ndarray:
    z = (x - spec.center) / spec.half_width
    inside = np.abs(z) < 1.0
    vals = np.where(inside, spec.height * np.cos(0.5 * np.pi * np.clip(z, -1, 1)) ** 2, 0.0)
    return vals


def make_initial(u_spec, v_spec, grid: Grid, params: Params) -> State:
    """Sample initial data onto the grid and enforce the invariant box.

    Each spec is a :class:`BumpSpec` or a ready array.  A zero-height bump
    stands for an intentionally absent species; a positive bump must hit
    at least one grid point.
    """
    x = grid.x
    fields = []
    for spec, cap, name in ((u_spec, 1.0, "u"), (v_spec, params.v_cap, "v")):
        if isinstance(spec, BumpSpec):
            if spec.height < 0.0:
                raise InvariantViolationError(f"{name}0 height must be nonnegative")
            if spec.height > 0.0 and spec.height > cap + 1e-12:
                raise InvariantViolationError(
                    f"{name}0 height {spec.height:g} exceeds the invariant box cap {cap:g}")
            if spec.height > 0.0 and spec.half_width <= 0.0:
                raise InvariantViolationError(f"{name}0 half-width must be positive")
            vals = sample_bump(spec, x) if spec.height > 0.0 else np.zeros_like(x)
            if spec.height > 0.0 and not (vals > 0.0).any():
                raise ResolutionError(
                    f"{name}0 bump has empty support on the grid (half-width {spec.half_width:g}, dx {grid.dx:g})")
        else:
            vals = np.asarray(spec, dtype=float).copy()
            if vals.shape != x.shape:
                raise InvariantViolationError(f"{name}0 array does not match the grid")
            if not (vals.min() >= 0.0 and vals.max() <= cap + 1e-12):
                raise InvariantViolationError(f"{name}0 array leaves the invariant box")
        fields.append(vals)
    return State(u=fields[0], v=fields[1])


class _Workspace:
    """Buffers for stepping the stacked rows of the live species on up to ``n`` cells.

    ``simulate`` makes one per run; ``step``, ``rhs`` and ``nonlocal_apply``
    make a throwaway one when called without it.  Every buffer is indexed
    from the first cell of the window being stepped.  ``stencils`` holds one
    stencil per row; ``blocks`` stacks their Toeplitz blocks, zero-padded to
    the widest half-width ``h``, and ``windows`` is the strided view that
    cuts the zero-padded rows in ``pad`` into rows of ``BLOCK + 2h`` cells.
    """

    def __init__(self, stencils: tuple[Stencil, ...], n: int):
        self.stencil = max(stencils, key=lambda st: st.halfwidth)
        h = self.stencil.halfwidth
        m, n_rows = len(stencils), -(-n // BLOCK)
        self.blocks = np.stack([st.padded_block(h) for st in stencils])
        self.pad = np.zeros((m, n_rows * BLOCK + 2 * h))
        cell = self.pad.itemsize
        self.windows = as_strided(self.pad, (m, n_rows, BLOCK + 2 * h),
                                  (self.pad.strides[0], BLOCK * cell, cell), writeable=False)
        self.rows = np.empty(self.windows.shape)
        self.conv = np.empty((m, n_rows * BLOCK))
        self.conv_blocks = self.conv.reshape(m, n_rows, BLOCK)
        self.filled = 0  # cells of ``pad`` past its first h that may be nonzero
        self.stages = np.empty((7, m, n))
        self.state, self.err, self.press, self.tmp = np.empty((4, m, n))
        self.rates = (None, None, None, None)  # params, live, d column, r column

    def nonlocal_part(self, values: np.ndarray) -> np.ndarray:
        """``J*w - w`` for the stacked rows ``values``, in ``conv``."""
        h, w = self.stencil.halfwidth, values.shape[-1]
        if w < self.filled:
            self.pad[:, h + w:h + self.filled] = 0.0
        self.filled = w
        self.pad[:, h:h + w] = values
        n_rows = -(-w // BLOCK)
        rows = self.rows[:, :n_rows]
        np.copyto(rows, self.windows[:, :n_rows])
        np.matmul(rows, self.blocks, out=self.conv_blocks[:, :n_rows])
        out = self.conv[:, :w]
        return np.subtract(out, values, out=out)

    def columns(self, params: Params, live: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The dispersal rates ``d`` and growth rates ``r`` of the ``live`` rows, as columns."""
        if self.rates[0] is not params or self.rates[1] != live:
            d = np.array([[params.d1], [params.d2]])[list(live)]
            r = np.array([[params.r1], [params.r2]])[list(live)]
            self.rates = (params, live, d, r)
        return self.rates[2], self.rates[3]

    def error_norm(self, y_old: np.ndarray, y_new: np.ndarray, err: np.ndarray) -> float:
        """``max |err| / (ATOL + RTOL * max(|y_old|, |y_new|))``; overwrites ``err``."""
        w = y_old.shape[-1]
        scale, tmp = self.press[:, :w], self.tmp[:, :w]
        np.abs(y_old, out=scale)
        np.abs(y_new, out=tmp)
        np.maximum(scale, tmp, out=scale)
        np.multiply(RTOL, scale, out=scale)
        np.add(ATOL, scale, out=scale)
        np.abs(err, out=err)
        np.divide(err, scale, out=err)
        return float(err.max())


def nonlocal_apply(stencil: Stencil, field_values: np.ndarray,
                   work: _Workspace | None = None) -> np.ndarray:
    """Vectorized (J*w - w) over ``field_values`` with zero extension past its ends.

    ``field_values`` is one field or a stack of rows.  One matrix product
    serves them all: each row, padded with ``h`` zeros on each side and up
    to a whole number of blocks, is cut into rows of ``BLOCK + 2h`` cells
    that start every ``BLOCK`` cells, and each of those times the block
    gives ``J*w`` on its middle ``BLOCK`` cells, with bits that do not
    depend on where a cell sits (see the module docstring).  ``simulate``
    passes its active window, whose outer ``h`` cells are zero at every
    stage, so the result equals the full-grid one cell for cell.  A
    non-finite value turns the rows that read it to NaN (``0 * inf``).

    With ``work`` (see ``simulate``), the rows are those of the live
    species, each convolved with its own stencil zero-padded to the widest
    half-width, which must be ``stencil``'s; the result is a view into
    ``work`` that the next call overwrites.
    """
    if work is None:
        values = np.asarray(field_values, dtype=float)
        rows = np.atleast_2d(values)
        work = _Workspace((stencil,) * rows.shape[0], rows.shape[1])
        return work.nonlocal_part(rows).reshape(values.shape)
    return work.nonlocal_part(field_values)


def _workspace(live: tuple[int, ...], st1: Stencil, st2: Stencil, n: int) -> _Workspace:
    return _Workspace(tuple((st1, st2)[i] for i in live), n)


def rhs(y: np.ndarray, alpha: np.ndarray, params: Params, st1: Stencil, st2: Stencil,
        live: tuple[int, ...] = (0, 1), out: np.ndarray | None = None,
        work: _Workspace | None = None) -> np.ndarray:
    """Right-hand side of the coupled system at the stacked rows ``y = (u, v)``.

    ``alpha`` is the habitat on the cells of ``y``.  ``y`` holds only the
    rows of the species in ``live`` (0 for u, 1 for v); the others are
    absent, identically zero, and their terms drop out, which is exact.
    The rates of the live rows are written to ``out`` (a new array when it
    is None) and returned.  ``work`` is ``simulate``'s workspace, made for
    ``live``, ``st1`` and ``st2``: both species share one convolution.
    """
    w = y.shape[-1]
    if work is None:
        work = _workspace(live, st1, st2, w)
    if out is None:
        out = np.empty(y.shape)
    press = work.press[:, :w]
    if live == (0, 1):
        u, v = y
        tmp = work.tmp[0, :w]
        np.subtract(alpha, u, out=press[0])
        np.subtract(press[0], np.multiply(params.a, v, out=tmp), out=press[0])
        np.multiply(params.b, u, out=press[1])
        np.add(press[1], -1.0, out=press[1])
        np.subtract(press[1], v, out=press[1])
    elif live == (0,):
        np.subtract(alpha, y[0], out=press[0])
    else:
        np.subtract(-1.0, y[0], out=press[0])
    d, r = work.columns(params, live)
    growth = np.multiply(r, y, out=work.tmp[:, :w])
    np.multiply(growth, press, out=growth)
    np.multiply(d, nonlocal_apply(work.stencil, y, work), out=out)
    return np.add(out, growth, out=out)


def dt_max(params: Params, alpha_bar: float) -> float:
    """Default snapshot tick and first trial step: a fifth of the fastest rate's time scale.

    ``0.2 / (max(d1, d2) + r1 * (alpha_bar + 1 + a * v_cap) + 2 * r2 * b)``, with
    ``v_cap = max(b - 1, 0)``.  It bounds no step; the step controller picks those.
    """
    denom = (max(params.d1, params.d2)
             + params.r1 * (alpha_bar + 1.0 + params.a * params.v_cap)
             + params.r2 * 2.0 * params.b)
    return 0.2 / denom


def step(y: np.ndarray, dt: float, alphas, params: Params, st1: Stencil, st2: Stencil,
         k1: np.ndarray, live: tuple[int, ...] = (0, 1),
         work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Dormand-Prince 5(4) step of the stacked state ``y = (u, v)``.

    ``alphas`` is the habitat on the cells of ``y`` at the six distinct
    stage times ``t + c*dt``, ``c`` in ``(0, 1/5, 3/10, 4/5, 8/9, 1)``, and
    ``k1`` the stacked right-hand side at ``y`` and ``alphas[0]``.  Returns
    the 5th-order solution, its error estimate (5th minus embedded 4th
    order) and the right-hand side at the solution and ``alphas[-1]``,
    which is the next step's ``k1``.  ``y`` and ``k1`` hold only the rows
    of the species in ``live`` (0 for u, 1 for v); the others are absent.
    The results are views into ``work`` (``simulate``'s workspace, made for
    ``live``, ``st1`` and ``st2``), which the next step overwrites.
    """
    w = y.shape[-1]
    if work is None:
        work = _workspace(live, st1, st2, w)
    ks = work.stages[:, :, :w]
    np.copyto(ks[0], k1)
    stage = work.state[:, :w]
    for j, row in enumerate(_A, start=1):
        # y + dt * sum(a_ij k_j): each cell sums the products in tableau order.
        np.einsum("j,jlw->lw", np.multiply(dt, row), ks[:j], out=stage)
        np.add(y, stage, out=stage)
        rhs(stage, alphas[min(j, 5)], params, st1, st2, live, ks[j], work)
    # The last row of _A holds the 5th-order weights: the last stage state is the solution.
    err = np.einsum("j,jlw->lw", np.multiply(dt, _E), ks, out=work.err[:, :w])
    return stage, err, ks[6]


def step_count(t_final: float, dt: float) -> int:
    """Number of equal ticks, none longer than ``dt`` up to roundoff, that reach ``t_final``.

    ``simulate`` takes a snapshot every ``snapshot_stride`` ticks and at ``t_final``.
    """
    return max(1, int(math.ceil(t_final / dt - 1e-9)))


@dataclass
class Trajectory:
    """Snapshots of one simulation plus run diagnostics."""

    times: np.ndarray
    u: np.ndarray  # shape (n_snapshots, n_grid)
    v: np.ndarray
    grid: Grid
    params: Params
    diagnostics: dict = field(default_factory=dict)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])


# Below this peak a species is in global decay: no front exists, so the
# edge-to-peak ratio stops meaning anything.
_MONITOR_PEAK_FLOOR = 1e-8


def _tally(y: np.ndarray,
           floor: bool = True) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """Each row's min and max, then, after setting cells below ``TAIL_FLOOR`` to
    +0.0 when ``floor``, the first and one-past-last column where a row is
    nonzero (None when none is)."""
    lows, highs = y.min(axis=1), y.max(axis=1)
    if lows.min() >= TAIL_FLOOR:
        return lows, highs, (0, y.shape[1])
    zero = y < TAIL_FLOOR if floor else y == 0.0
    if floor:
        np.copyto(y, 0.0, where=zero)
    nonzero = ~zero.all(axis=0)
    first = int(nonzero.argmax())
    if not nonzero[first]:
        return lows, highs, None
    return lows, highs, (first, nonzero.size - int(nonzero[::-1].argmax()))


def simulate(params: Params, profile: HabitatProfile, kernel1: Kernel, kernel2: Kernel,
             grid: Grid, initial: State, dt: float, t_final: float,
             snapshot_stride: int = 1,
             boundary_monitor: str = "both",
             on_snapshot=None) -> Trajectory:
    """Integrate to ``t_final`` with snapshots every ``snapshot_stride`` ticks of ``dt``.

    ``dt`` is shortened to ``t_final / step_count(t_final, dt)``; it is the
    snapshot clock and the first trial step, after which the controller
    picks the steps and clips them to land on every snapshot time.  The
    boundary monitor watches the outermost grid cells of the selected
    sides ("both", "left", "right", or "none"): density above 1e-6 of the
    species peak records a domain-too-small warning, above 1e-3 the run
    aborts because a front has reached the wall.  ``initial`` is not modified.

    ``on_snapshot(t, u_row, v_row)``, when given, is called once for every
    stored snapshot, in order and as soon as it is stored, starting with
    row 0 at ``t = 0``; ``u_row`` and ``v_row`` are the rows of the
    returned ``Trajectory.u`` and ``.v``, which the callback must not
    modify.  An exception it raises ends the run.
    """
    if boundary_monitor not in ("both", "left", "right", "none"):
        raise ValueError("boundary_monitor must be both/left/right/none")
    ends = [c for c, side in ((0, "left"), (-1, "right")) if boundary_monitor in (side, "both")]
    st1 = kernel1.discretize(grid.dx)
    st2 = kernel2.discretize(grid.dx)
    x = grid.x
    if not (t_final > 0.0 and dt > 0.0):
        raise ValueError("t_final and dt must be positive")
    n_ticks = step_count(t_final, dt)
    dt_used = t_final / n_ticks
    if not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {snapshot_stride!r}")
    stride = int(snapshot_stride)

    times = np.zeros(1 + (n_ticks + stride - 1) // stride)
    # Rows past 0 are written for the live species only (see below); an absent
    # species' rows stay zero pages that nothing writes.
    snaps = (np.zeros((times.size, grid.n)), np.zeros((times.size, grid.n)))
    us, vs = snaps
    us[0], vs[0] = initial.u, initial.v
    y = np.array((initial.u, initial.v), dtype=float)
    lows, peaks, extent = _tally(y, floor=False)
    h_worst = {"u_min": float(lows[0]), "u_max": float(peaks[0]),
               "v_min": float(lows[1]), "v_max": float(peaks[1])}
    start_min = min(h_worst["u_min"], h_worst["v_min"])
    if start_min < _ABORT_FLOOR:
        raise InstabilityError(f"undershoot {start_min:.3e} below {_ABORT_FLOOR:g} at t=0")

    # Active window [lo, hi): the nonzero extent [first, last) padded by
    # `reach` cells (see the module docstring); cells outside are set to +0.0,
    # an initial -0.0 included, and stay so.
    # Only the live species are stepped: one that is identically zero at
    # t = 0 stays +0.0.  With none live, u's zero row keeps the step sequence.
    n = grid.n
    live = tuple(i for i in (0, 1) if lows[i] != 0.0 or peaks[i] != 0.0) or (0,)
    names = tuple("uv"[i] for i in live)
    reach = 7 * max(st1.halfwidth, st2.halfwidth)
    first, last = extent or (0, 0)
    lo, hi = max(first - reach, 0), min(last + reach, n)
    y[:, :lo] = y[:, hi:] = 0.0
    ys = y[live[0]:live[-1] + 1]  # the live rows, a view
    peaks = peaks[live[0]:live[-1] + 1]  # each live row's latest maximum
    # The first stage of the next step: the last stage of the accepted one,
    # zero outside the window, which is exact where the window grows.
    k1 = np.zeros(ys.shape)
    have_k1 = False
    work = _workspace(live, st1, st2, n)

    boundary_warning = False
    max_boundary_fraction = 0.0

    def check_boundary(t: float):
        nonlocal boundary_warning, max_boundary_fraction
        for w, peak, name in zip(ys, peaks.tolist(), names):
            if peak <= _MONITOR_PEAK_FLOOR:
                continue
            frac = float(w[ends].max(initial=0.0)) / peak
            max_boundary_fraction = max(max_boundary_fraction, frac)
            if frac > 1e-3:
                raise BoundaryContaminationError(
                    f"{name} reached {frac:.2e} of its peak at the domain edge "
                    f"(t={t:g}); enlarge the grid")
            if frac > 1e-6:
                boundary_warning = True

    check_boundary(0.0)
    if on_snapshot is not None:
        on_snapshot(0.0, us[0], vs[0])

    # The habitat at the five new stage times of an attempt, one row each,
    # in one read; a static one is read once.
    static = params.s == 0.0 or profile.family == CONSTANT_ONE
    alpha0 = profile.alpha_shifted(x, 0.0, params.s)
    ahead = alpha0[None]

    t, h, a_start = 0.0, dt_used, alpha0
    n_steps = n_rejected = 0
    max_error_norm = 0.0
    for row in range(1, times.size):
        target = t_final if row * stride >= n_ticks else row * stride * dt_used
        while t < target:
            clipped = t + h >= target
            h_try = target - t if clipped else h
            t_end = target if clipped else t + h
            win = slice(lo, hi)
            if static:
                alphas = (alpha0[win],) * 6
            else:
                stage_times = [t + c * h_try for c in _NODES[1:-1]] + [t_end]
                ahead = profile.alpha_shifted(x, np.array(stage_times)[:, None], params.s)
                alphas = (a_start[win], *ahead[:, win])
            y_old = ys[:, win]
            if not have_k1:
                rhs(y_old, alphas[0], params, st1, st2, live, k1[:, win], work)
                have_k1 = True
            y_new, err, k7 = step(y_old, h_try, alphas, params, st1, st2, k1[:, win],
                                  live, work)
            norm = work.error_norm(y_old, y_new, err)
            if not math.isfinite(norm):
                raise NumericFailureError(f"non-finite values in u or v at t={t:g}")
            factor = min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
            lows, highs, extent = _tally(y_new)
            undershoot = float(lows.min()) < _ABORT_FLOOR
            if norm > 1.0 or undershoot:
                n_rejected += 1
                h = h_try * (0.2 if undershoot else factor)
                continue
            for w_min, w_max, name in zip(lows.tolist(), highs.tolist(), names):
                if not math.isfinite(w_min + w_max):
                    raise NumericFailureError(f"non-finite values in {name} at t={t_end:g}")
                # A floor that moves no cell by TAIL_FLOOR or more keeps the last
                # stage, to TAIL_FLOOR * (d + r) per cell; a larger clamp does not.
                have_k1 = have_k1 and w_min > -TAIL_FLOOR
                h_worst[name + "_min"] = min(h_worst[name + "_min"], w_min)
                h_worst[name + "_max"] = max(h_worst[name + "_max"], w_max)
            ys[:, win], k1[:, win] = y_new, k7
            peaks = highs
            t, a_start = t_end, ahead[-1]
            n_steps += 1
            max_error_norm = max(max_error_norm, norm)
            if not clipped:
                # After a clipped step the unclipped proposal h stands.
                h = h_try * factor
            if hi - lo < n and extent is not None:
                first, last = min(first, lo + extent[0]), max(last, lo + extent[1])
                lo, hi = max(first - reach, 0), min(last + reach, n)
        check_boundary(t)
        times[row] = t
        for i in live:
            snaps[i][row] = y[i]
        if on_snapshot is not None:
            on_snapshot(t, us[row], vs[row])

    h_violation = max(h_worst["u_max"] - 1.0, h_worst["v_max"] - params.v_cap,
                      -h_worst["u_min"], -h_worst["v_min"])
    diagnostics = {
        "dt_used": dt_used,
        "n_steps": n_steps,
        "n_rejected": n_rejected,
        "max_error_norm": max_error_norm,
        "h_worst": h_worst,
        "h_invariant_ok": h_violation <= 1e-8,
        "boundary_warning": boundary_warning,
        "max_boundary_fraction": max_boundary_fraction,
        "boundary_monitor": boundary_monitor,
    }
    return Trajectory(times=times, u=us, v=vs,
                      grid=grid, params=params, diagnostics=diagnostics)
