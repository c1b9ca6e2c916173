"""Time integration of the coupled nonlocal predator-prey system.

The system on a truncated uniform grid, with zero extension outside:

    du/dt = d1*(J1*u - u) + r1*u*(alpha(x - s*t) - u - a*v)
    dv/dt = d2*(J2*v - v) + r2*v*(-1 + b*u - v)

Integration is the Prince-Dormand 8(5,3) pair (Prince & Dormand 1981),
DOP853 in Hairer, Norsett & Wanner (1993, section II.10), with
first-same-as-last stages: each step evaluates twelve right-hand sides and
gives an 8th-order solution with two embedded error estimates, of 5th and
3rd order.  The last right-hand side is at the solution, and that stage of
an accepted step is the first stage of the next.  One test in
``simulate`` judges each attempted step.  It rejects the step when the
error norm exceeds 1, or when a cell of the new state lies below
``_ABORT_FLOOR``.  The norm is Hairer's combined estimate
``e5**2 / sqrt(e5**2 + 0.01 * e3**2)``, where ``e5`` and ``e3`` are
``max |err| / (ATOL + RTOL * max(|y_old|, |y_new|))`` over both fields for
the 5th- and 3rd-order estimates (``RTOL = 1e-7``, ``ATOL = 1e-10``).  The
next attempt is the step times ``min(5, max(0.2, 0.9 * norm**(-1/8)))``,
or times 0.2 after an undershoot.  ``dt``, shortened to
``t_final / step_count(t_final, dt)``, is the snapshot clock and the first
trial step: snapshots fall at ``k * stride * dt`` and at ``t_final``
exactly, steps are clipped to land on them, and after a clipped step the
unclipped proposal resumes.  Only ``simulate`` knows time: the habitat is
read once per attempted step, as one ``(11, n)`` array at the eleven new
stage times (the first is the end of the last accepted step, and the last
two stages share the end of the step), or once per run when it does not
move (``s == 0`` or the constant profile).  One min and one max per row of
each attempt's new state feed the undershoot test, the record of the
invariant box 0 <= u <= 1, 0 <= v <= max(b-1, 0) and the boundary
monitor, and one comparison sets every cell below ``TAIL_FLOOR`` to +0.0:
roundoff negatives, and the leading edge of a front where it falls below
1e-250.

The floor stops the leading edge, and with it the window, from spreading
to every cell the stencils reach.  No observer looks anywhere near it (the
smallest threshold is ``ATOL``), and a cutoff at level eps moves a pulled
front's speed by O(1/ln^2 eps) (Brunet & Derrida 1997); float64 underflow
already imposes one near 5e-324.  It does not keep the arithmetic off
subnormal numbers (below 2.2e-308), which x86 processes in microcode, many
times slower than normal ones: the stages multiply an edge value by
stencil weights, rates and ``dt`` up to twelve times beyond the support,
which takes 1e-250 below 2.2e-308.  Counted after each step, the stage
buffers of the benchmark's band run (seed 1) held 113,773 subnormal values
over its 410 steps, all but 240 in v's rows, and those of its kpp run 858
over 611 steps.  A floor of 1e-200 leaves 68,648 on band, and one of
1e-150 still 5,465.  The carried last stage survives the flooring of cells
above ``-TAIL_FLOOR``, positive or negative: it was evaluated at the
unfloored state, which differs from the stored one by less than
``TAIL_FLOOR`` per cell, so the first stage is off by less than
``TAIL_FLOOR * (d + r)`` per cell.  A clamped negative at or below
``-TAIL_FLOOR`` still forces a fresh first stage.

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
one workspace per run, whose buffers are allocated once and cut for each
window width ``w`` (``_Layout``): in every row a species takes ``period``
cells, the window's ``w`` and then zeros, ``period`` being the fewest whole
blocks of ``BLOCK`` cells that hold ``w + h``.  The stage buffer has 14
such rows: ``y`` in slot 0, then the thirteen stages.  Each stage state
``1 * y + sum_j (dt * a_ij) k_j`` is one matrix product of a coefficient
block with the buffer's first ``j + 1`` slots, written straight into the
convolution's input row, and one more product gives the 8th-order
solution and both error estimates.  OpenBLAS's ``gemm`` sums each output
as one chain of fused multiply-adds in slot order, starting from zero, so
every cell gets the bits of adding ``(dt * a_ij) * k_j`` one term at a
time, each rounded once; exact rational sums confirm it on OpenBLAS's
SkylakeX and Haswell kernels.  It holds under two rules.  No product has
one row: a one-row product goes to ``gemv``, which sums in another order,
so a stage state's block carries a zero second row, and the last block a
zero fourth row after the solution and the two estimates (Haswell's
kernel sums a lone third row in another order too).  And every row is a
whole number of blocks long, so no cell falls in a kernel's tail loop:
with 16 terms or more, the tail cells of a row whose length is not a
multiple of 8 took other bits on the SkylakeX kernels.  Zero
coefficients add zero products, which leave a partial sum as it is, and
the floor turns every stored zero to +0.0.  One ``rhs`` per stage
evaluates both species, with one ``nonlocal_apply``.

``simulate`` steps only an active window of the grid.  The kernels have
compact support, so one stage widens the nonzero set of u and v by at most
``h`` cells (the larger stencil half-width, whose end taps are nonzero,
see ``Kernel.discretize``) and one step, through its twelve stage states,
by ``12h``; every cell outside stays exactly +0.0.
The window is the nonzero extent padded by ``13h`` cells: ``12h`` for the
growth within the step, and ``h`` more so that the stencils truncated at
the window edges read only zeros.  After the floor, the nonzero cells are
those at or above ``TAIL_FLOOR``.  Every cell inside the window then gets
the same bits as in a full-grid step.
``nonlocal_apply`` forms ``d * (J*w - w)`` of both species as one batched
matrix product of rows of ``BLOCK + 2h`` cells with one Toeplitz block per
species (``Stencil.padded_block``).  A block holds the taps
``d * (weights * dx)``, with ``d * (weights[h] * dx - 1)`` on its diagonal,
so the ``-w`` term and the dispersal rate take no pass of their own.  The
narrower stencil's block is padded with zero rows to the wider half-width
``h``: a cell at offset ``j`` of its row meets ``j`` exact-zero block
entries (and the padding's), then its taps in ascending order, then zeros
again, and adding a zero product leaves a partial sum as it is.  The
product has a multiple of 8 rows, so on the Haswell kernels no row falls
in a tail loop either.  A cell's bits therefore depend neither on its
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
divides the wall cells by each row's largest snapshot maximum so far over
the window, the grid's wherever it clears the monitor's peak floor of 1e-8.
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
# module docstring).
TAIL_FLOOR = 1e-250

# Step controller tolerances: a step is accepted when the combined error norm
# of the scaled errors max |err| / (ATOL + RTOL * max(|y_old|, |y_new|)) is at
# most 1 (see ``_Workspace.error_norm``).
RTOL = 1e-7
ATOL = 1e-10

# Prince & Dormand (1981) 8(5,3) pair, DOP853 in Hairer, Norsett & Wanner
# (1993, section II.10): the twelve distinct stage nodes, the rows of the
# stage matrix for stages 2..13 (the last row is the 8th-order weights, so
# stage 13 is the right-hand side at the solution and the next step's first
# stage), and the weights of the 5th- and 3rd-order error estimates.
_NODES = (0.0,
          0.526001519587677318785587544488e-01,
          0.789002279381515978178381316732e-01,
          0.118350341907227396726757197510,
          0.281649658092772603273242802490,
          0.333333333333333333333333333333,
          0.25,
          0.307692307692307692307692307692,
          0.651282051282051282051282051282,
          0.6,
          0.857142857142857142857142857142,
          1.0)
_A = ((5.26001519587677318785587544488e-2,),
      (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
      (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
      (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
       9.24834003261792003115737966543e-1),
      (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
       1.25467687566822425016691814123e-1),
      (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
       6.02165389804559606850219397283e-2, -1.7578125e-2),
      (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
       1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
       8.27378916381402288758473766002e-3),
      (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
       -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
       2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
      (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
       -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
       1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
       -2.03312017085086261358222928593e-2),
      (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
       1.09143734899672957818500254654, -8.14978701074692612513997267357,
       -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
       2.49360555267965238987089396762, -3.0467644718982195003823669022),
      (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
       -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
       2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
       -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
       6.43392746015763530355970484046e-1),
      (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
       4.45031289275240888144113950566, 1.89151789931450038304281599044,
       -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
       -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
       4.47106157277725905176885569043e-2))
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
# The 8th-order weights minus the published 3rd-order ones (bhh1, bhh2, bhh3).
_E3 = tuple(b - c for b, c in zip(_A[-1], (0.244094488188976377952755905512, 0.0, 0.0, 0.0,
                                           0.0, 0.0, 0.0, 0.0, 0.733846688281611857341361741547,
                                           0.0, 0.0, 0.220588235294117647058823529412e-1)))


# The stage sums as matrix products over the stage buffer's slots (y, k_1,
# ..., k_13).  Block j - 1, for j = 1..11, holds in row 0 the weights of stage
# state j + 1 over (y, k_1, ..., k_j); block 11 holds those of the solution
# and of the 5th- and 3rd-order error estimates over (y, k_1, ..., k_12).
# ``_Workspace.coefficients`` scales them by dt and sets the weight of y.
_TABLEAU = np.zeros((len(_A), 4, len(_A) + 1))
for _j, _row in enumerate(_A):
    _TABLEAU[_j, 0, 1:_j + 2] = _row
_TABLEAU[-1, 1:3, 1:] = _E5, _E3


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


class _Layout:
    """Views of a workspace's buffers for one window width ``w``.

    Each species takes ``period`` cells of a stage slot and of the
    convolution's input row: its ``w`` cells, then zeros.  ``slots`` is the
    stage buffer as ``(14, live * period)``, one row per slot, and ``ks``
    the same as ``(14, live, period)``; ``out`` is the convolution's input
    row, the two error rows and a spare row as ``(4, live * period)``;
    ``state`` is each species' ``w`` cells of the input row and ``err``
    those of the error rows, ``(2, live, w)``.
    """

    def __init__(self, work: _Workspace, w: int):
        m, h = len(work.stencils), work.stencil.halfwidth
        self.w = w
        self.period = period = BLOCK * -(-(w + h) // BLOCK)
        self.slots = work.stage_cells[:len(_A) + 2, :m * period]
        self.ks = self.slots.reshape(len(_A) + 2, m, period)
        self.out = work.pad[:, h:h + m * period]
        rows = self.out.reshape(4, m, period)
        self.state, self.err = rows[0, :, :w], rows[1:3, :, :w]
        # Rows of the convolution, a multiple of 8 of them (see the module docstring).
        n_rows = 8 * -(-max(w, 1) // (8 * BLOCK))
        cell = work.pad.itemsize
        self.windows = as_strided(work.pad[0], (m, n_rows, BLOCK + 2 * h),
                                  (period * cell, BLOCK * cell, cell), writeable=False)
        self.rows = work.rows[:, :n_rows]
        self.conv = work.conv[:, :n_rows * BLOCK]

    def clear(self, pad: np.ndarray, h: int) -> None:
        """Zero the cells past ``w`` of each species in the stage slots and the
        input row, and the ``h`` cells past the input row's last species."""
        self.ks[:, :, self.w:] = 0.0
        self.out[0].reshape(-1, self.period)[:, self.w:] = 0.0
        end = h + self.out.shape[1]
        pad[0, end:end + h] = 0.0


class _Workspace:
    """Buffers for stepping the stacked rows of the live species on up to ``n`` cells.

    ``simulate`` makes one per run; ``step``, ``rhs`` and ``nonlocal_apply``
    make a throwaway one when called without it.  ``stencils`` holds one
    stencil per row; ``blocks`` stacks their Toeplitz blocks of
    ``d * (J*w - w)``, zero-padded to the widest half-width ``h``, with the
    dispersal rates ``d`` of the last ``params`` given to :meth:`rates`
    (1 before).  ``stage_cells`` holds the stage buffer's 14 slots, ``pad``
    the convolution's input row, zero on its first ``h`` cells, the two
    error rows and a spare row; :meth:`layout` cuts them for a window width.
    """

    def __init__(self, stencils: tuple[Stencil, ...], n: int):
        self.stencils = stencils
        self.stencil = max(stencils, key=lambda st: st.halfwidth)
        h = self.stencil.halfwidth
        m = len(stencils)
        period = BLOCK * -(-(n + h) // BLOCK)
        self.stage_cells = np.zeros((len(_A) + 2, m * period))
        self.pad = np.zeros((4, m * period + 8 * BLOCK + 2 * h))
        n_rows = 8 * -(-max(n, 1) // (8 * BLOCK))
        self.rows = np.empty((m, n_rows, BLOCK + 2 * h))
        self.conv = np.empty((m, n_rows * BLOCK))
        self.press, self.tmp = np.empty((2, m, n))
        self.coefs = np.empty(_TABLEAU.shape)
        self.blocks = np.stack([st.padded_block(h) for st in stencils])
        self.params = self.growth = None
        self.current = None

    def layout(self, w: int) -> _Layout:
        """The views for window width ``w``; a new period or a narrower window
        zeroes the cells past ``w`` that earlier windows left."""
        lay = self.current
        if lay is None or lay.w != w:
            new = _Layout(self, w)
            if lay is None or new.period != lay.period or w < lay.w:
                new.clear(self.pad, self.stencil.halfwidth)
            self.current = lay = new
        return lay

    def rates(self, params: Params, live: tuple[int, ...]) -> np.ndarray:
        """The growth rates ``r`` of the ``live`` rows, as a column; folds
        their dispersal rates ``d`` into ``blocks`` when ``params`` change."""
        if self.params is not params:
            h = self.stencil.halfwidth
            self.blocks = np.stack([st.padded_block(h, (params.d1, params.d2)[i])
                                    for st, i in zip(self.stencils, live)])
            self.growth = np.array([[params.r1], [params.r2]])[list(live)]
            self.params = params
        return self.growth

    def nonlocal_part(self, values: np.ndarray) -> np.ndarray:
        """``d * (J*w - w)`` for the stacked rows ``values``, in ``conv``.

        ``values`` is copied into the input row unless it is the stage state
        that ``step`` wrote there.
        """
        w = values.shape[-1]
        lay = self.layout(w)
        if not np.may_share_memory(values, self.pad):
            np.copyto(lay.state, values)
        np.copyto(lay.rows, lay.windows)
        np.matmul(lay.rows, self.blocks, out=lay.conv.reshape(lay.rows.shape[:2] + (BLOCK,)))
        return lay.conv[:, :w]

    def coefficients(self, dt: float) -> np.ndarray:
        """``_TABLEAU`` times ``dt``, with each state's coefficient of ``y`` set to 1."""
        coefs = np.multiply(dt, _TABLEAU, out=self.coefs)
        coefs[:, 0, 0] = 1.0
        return coefs

    def error_norm(self, y_old: np.ndarray, y_new: np.ndarray, err: np.ndarray) -> float:
        """Hairer's combined norm ``e5**2 / sqrt(e5**2 + 0.01 * e3**2)``; overwrites ``err``.

        ``e5`` and ``e3`` are ``max |err[i]| / (ATOL + RTOL * max(|y_old|, |y_new|))``
        for the 5th-order (``err[0]``) and 3rd-order (``err[1]``) estimates.
        """
        w = y_old.shape[-1]
        scale, tmp = self.press[:, :w], self.tmp[:, :w]
        np.abs(y_old, out=scale)
        np.abs(y_new, out=tmp)
        np.maximum(scale, tmp, out=scale)
        np.multiply(RTOL, scale, out=scale)
        np.add(ATOL, scale, out=scale)
        np.abs(err, out=err)
        np.divide(err, scale, out=err)
        e5, e3 = err.max(axis=(1, 2)).tolist()
        if e5 == 0.0:
            return 0.0
        return e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3)


def nonlocal_apply(stencil: Stencil, field_values: np.ndarray,
                   work: _Workspace | None = None) -> np.ndarray:
    """Vectorized (J*w - w) over ``field_values`` with zero extension past its ends.

    ``field_values`` is one field or a stack of rows.  One matrix product
    serves them all: each row, padded with ``h`` zeros on each side, is cut
    into rows of ``BLOCK + 2h`` cells that start every ``BLOCK`` cells, and
    each of those times the Toeplitz block of ``J*w - w`` gives the result
    on its middle ``BLOCK`` cells, with bits that do not depend on where a
    cell sits (see the module docstring).  ``simulate`` passes its active
    window, whose outer ``h`` cells are zero at every stage, so the result
    equals the full-grid one cell for cell.  A non-finite value turns the
    rows that read it to NaN (``0 * inf``).

    With ``work`` (see ``simulate``), the rows are those of the live
    species, each convolved with its own stencil zero-padded to the widest
    half-width, which must be ``stencil``'s, and scaled by its dispersal
    rate: the result is ``d * (J*w - w)``, a view into ``work`` that the
    next call overwrites.
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
    growth = np.multiply(work.rates(params, live), y, out=work.tmp[:, :w])
    np.multiply(growth, press, out=growth)
    return np.add(nonlocal_apply(work.stencil, y, work), growth, out=out)


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
    """One DOP853 step of the stacked state ``y = (u, v)``.

    ``alphas`` is the habitat on the cells of ``y`` at the twelve distinct
    stage times ``t + c*dt``, ``c`` in ``_NODES`` (the first 0, the last 1),
    and ``k1`` the stacked right-hand side at ``y`` and ``alphas[0]``.
    Returns the 8th-order solution, its two error estimates stacked as
    ``(2, live, w)`` (``dt * sum(E5_j k_j)`` and ``dt * sum(E3_j k_j)``, of
    the embedded 5th- and 3rd-order solutions) and the right-hand side at
    the solution and ``alphas[-1]``, which is the next step's ``k1``.  ``y``
    and ``k1`` hold only the rows of the species in ``live`` (0 for u, 1 for
    v); the others are absent.  The results are views into ``work``
    (``simulate``'s workspace, made for ``live``, ``st1`` and ``st2``),
    which the next step overwrites.
    """
    w = y.shape[-1]
    if work is None:
        work = _workspace(live, st1, st2, w)
    lay = work.layout(w)
    ks, slots = lay.ks, lay.slots
    np.copyto(ks[0, :, :w], y)
    np.copyto(ks[1, :, :w], k1)
    coefs = work.coefficients(dt)
    for j in range(1, len(_A)):
        # y + dt * sum(a_ij k_j), one product into the convolution's input row;
        # its second row, all zeros, keeps the product a gemm.
        np.matmul(coefs[j - 1, :2, :j + 1], slots[:j + 1], out=lay.out[:2])
        rhs(lay.state, alphas[j], params, st1, st2, live, ks[j + 1, :, :w], work)
    # The 8th-order solution and both error estimates, one product.
    np.matmul(coefs[-1], slots[:-1], out=lay.out)
    rhs(lay.state, alphas[-1], params, st1, st2, live, ks[-1, :, :w], work)
    return lay.state, lay.err, ks[-1, :, :w]


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


# A species that never peaked above this has no front, so the edge-to-peak
# ratio means nothing for it.
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
    snapshot clock and the first trial step, after which the error control
    of the DOP853 steps (see the module docstring) picks the steps and
    clips them to land on every snapshot time.  The
    boundary monitor watches the outermost grid cells of the selected
    sides ("both", "left", "right", or "none"): density above 1e-6 of the
    species' largest snapshot peak so far (a dying species' peak falls) records
    a domain-too-small warning, above 1e-3 the run aborts because a front has
    reached the wall.  ``initial`` is not modified.

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
    reach = (len(_A) + 1) * max(st1.halfwidth, st2.halfwidth)
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
    tops = np.zeros(len(names))  # each live row's largest snapshot maximum so far

    def check_boundary(t: float):
        nonlocal boundary_warning, max_boundary_fraction
        np.maximum(tops, peaks, out=tops)
        for w, top, name in zip(ys, tops.tolist(), names):
            if top <= _MONITOR_PEAK_FLOOR:
                continue
            frac = float(w[ends].max(initial=0.0)) / top
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

    # The habitat at the eleven new stage times of an attempt, one row each,
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
                alphas = (alpha0[win],) * len(_NODES)
            else:
                stage_times = [t + c * h_try for c in _NODES[1:-1]] + [t_end]
                ahead = profile.alpha_shifted(x, np.array(stage_times)[:, None], params.s)
                alphas = (a_start[win], *ahead[:, win])
            y_old = ys[:, win]
            if not have_k1:
                rhs(y_old, alphas[0], params, st1, st2, live, k1[:, win], work)
                have_k1 = True
            y_new, err, k_last = step(y_old, h_try, alphas, params, st1, st2, k1[:, win],
                                      live, work)
            norm = work.error_norm(y_old, y_new, err)
            if not math.isfinite(norm):
                raise NumericFailureError(f"non-finite values in u or v at t={t:g}")
            factor = min(5.0, max(0.2, 0.9 * norm ** -0.125)) if norm > 0.0 else 5.0
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
            ys[:, win], k1[:, win] = y_new, k_last
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
