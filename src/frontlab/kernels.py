"""Dispersal kernels: evaluation, tilted integrals, grid stencils.

A kernel is a symmetric probability density with compact support
``[-R, R]``.  Two analytic families are built in:

``raised_cosine``
    ``(1 + cos(pi*y/R)) / (2R)``, continuously differentiable across the
    support edge.
``smooth_bump``
    The mollifier ``c * exp(-1/(1 - (y/R)**2))``, infinitely smooth.

Tabulated kernels are loaded from two-column text files ("x density",
``#`` comments allowed) and renormalized to unit mass; a mass drift above
1% is rejected as measurement error rather than silently fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidKernelError, NumericFailureError, ResolutionError

RAISED_COSINE = "raised_cosine"
SMOOTH_BUMP = "smooth_bump"
TABULATED = "tabulated"

# Every kernel integral uses one rule: 16-node Gauss-Legendre on panels
# between the kernel's breakpoints.  Tabulated kernels break at their
# knots.  The analytic families get 16 panels on [-R, R] with edges at
# R*sin(pi*k/32), k = -16..16: graded toward the support ends, where a
# steep tilt exp(lam*y) puts the smooth bump's mass in a thin layer.  With
# uniform panels the bump fails the split-panel check from lam*R ~ 16;
# graded ones pass past lam*R = 128, the steepest tilt the speed and
# decay-rate solvers evaluate.  Each kernel builds its whole-support nodes and
# density values once (``Kernel._rule``).  ``quad`` sums each panel first,
# so a clipped integral adds the whole-support sums of the panels it keeps to
# fresh sums on the (at most two) panels it cuts.  A tilt integral of
# ``J(y) * exp(lam*y) * w(y)`` is one ``exp_integral`` pass over a table of
# the rule's terms times each weight (``weight_table``; the kernel's own
# holds ``1, y, y**2``).  Every integral runs the split-panel check.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_UNIT_EDGES = np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 17))
# Largest disagreement between the rule and its split-panel repeat,
# relative to the integral of |J * integrand|.
_SELF_CHECK_RTOL = 1e-10
# Newton passes (``exp_integral`` calls) one speed or decay-rate solve may
# take; the analytic families' speed solves take 33 at r*k/d = 1e8, the most.
MAX_PASSES = 64
# Cells per output row of the blocked convolution (see ``Stencil.padded_block``);
# 32 ran a little faster than 16 or 64 for stencils of 17 and 33 taps.
BLOCK = 32


def _panel_rule(a, b):
    """Nodes and weights, ``a.shape + (16,)``: ``sum(f(nodes) * weights)`` integrates."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES, half[..., None] * _GL_WEIGHTS


def _split_rule(a, b):
    """:func:`_panel_rule` on the panels ``[a, b]`` (``(..., n)``), then on their halves."""
    mid = 0.5 * (a + b)
    return _panel_rule(np.concatenate([a, a, mid], axis=-1), np.concatenate([b, mid, b], axis=-1))


def _panel_sums(terms, n):
    """Per-panel sums of the rule's terms ``(..., 3n, 16)``: the coarse
    panels', the split ones' (each panel's two halves added) and the split
    ones' ``|terms|``, each ``(..., n)``."""
    s = terms.sum(axis=-1)
    size = np.abs(terms[..., n:, :]).sum(axis=-1)
    return s[..., :n], s[..., n:2 * n] + s[..., 2 * n:], size[..., :n] + size[..., n:]


def _checked_panels(coarse, fine, size) -> np.ndarray:
    """Row sums of the split panel sums ``fine`` (:func:`_panel_sums`), once
    each lies within ``_SELF_CHECK_RTOL`` times the row sum of ``size`` of
    the row sum of ``coarse``."""
    fine = fine.sum(axis=-1)
    err = np.abs(fine - coarse.sum(axis=-1))
    if not (err <= _SELF_CHECK_RTOL * size.sum(axis=-1)).all():
        raise _check_failure(np.max(err))
    return fine


def _check_failure(residual) -> NumericFailureError:
    return NumericFailureError(
        f"kernel quadrature failed its split-panel check (residual {residual:.3e})")


def _clamp(x, lo, hi):
    """``np.clip(x, lo, hi)``'s arithmetic without its call overhead (a zero
    may come out with the other sign, which no caller can tell apart)."""
    return np.minimum(np.maximum(x, lo), hi)


def _bump_body(u):
    """``exp(-1/(1 - u**2))`` on (-1, 1), zero elsewhere."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)


# Integral of the bump body over (-1, 1), on the analytic panels.
_UNIT_NODES, _UNIT_WEIGHTS = _panel_rule(_UNIT_EDGES[:-1], _UNIT_EDGES[1:])
_BUMP_INTEGRAL = float((_bump_body(_UNIT_NODES) * _UNIT_WEIGHTS).sum())


@dataclass(frozen=True)
class Stencil:
    """Discrete convolution weights for ``J * w`` on a uniform grid.

    ``weights`` has length ``2*halfwidth + 1`` and satisfies
    ``weights.sum() * dx == 1`` exactly (renormalized).
    """

    weights: np.ndarray
    halfwidth: int
    dx: float

    def padded_block(self, halfwidth: int, d: float = 1.0) -> np.ndarray:
        """The ``(BLOCK + 2*halfwidth) x BLOCK`` Toeplitz block of ``d * (J*w - w)``.

        Column ``j`` holds the taps ``d * (weights * dx)`` in rows ``j + pad``
        to ``j + pad + 2*self.halfwidth``, with ``pad = halfwidth -
        self.halfwidth`` zero rows above and below, and the middle tap,
        on the diagonal ``j + halfwidth``, is ``d * (weights[h] * dx - 1)``.
        ``BLOCK + 2*halfwidth`` consecutive cells times the block give
        ``d * (J*w - w)`` at the middle ``BLOCK`` of them.
        """
        if halfwidth < self.halfwidth:
            raise ValueError(f"half-width {halfwidth} is narrower than the stencil's "
                             f"{self.halfwidth}")
        h, pad = self.halfwidth, halfwidth - self.halfwidth
        taps = self.weights[::-1] * self.dx
        taps[h] -= 1.0
        taps *= d
        out = np.zeros((BLOCK + 2 * halfwidth, BLOCK))
        for j in range(BLOCK):
            out[pad + j:pad + j + 2 * h + 1, j] = taps
        return out


@dataclass(frozen=True)
class Kernel:
    """A compactly supported symmetric dispersal kernel.

    The analytic families are symmetric, nonnegative, of unit mass and zero
    outside ``[-R, R]`` by their closed forms (the tests sample these facts);
    :func:`tabulated` checks a table's samples when it loads them.
    """

    family: str
    support_radius: float
    table_x: np.ndarray | None = field(default=None, repr=False)
    table_density: np.ndarray | None = field(default=None, repr=False)

    def evaluate(self, x):
        """Kernel density at ``x`` (scalar or array); zero outside support."""
        xs = np.asarray(x, dtype=float)
        r = self.support_radius
        inside = np.abs(xs) <= r
        if self.family == RAISED_COSINE:
            vals = np.where(inside, (1.0 + np.cos(np.pi * _clamp(xs, -r, r) / r)) / (2.0 * r), 0.0)
        elif self.family == SMOOTH_BUMP:
            vals = _bump_body(_clamp(xs / r, -1.0, 1.0)) / (r * _BUMP_INTEGRAL)
        elif self.family == TABULATED:
            vals = np.where(inside, np.interp(xs, self.table_x, self.table_density,
                                              left=0.0, right=0.0), 0.0)
        else:
            raise InvalidKernelError(f"unknown kernel family {self.family!r}")
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(vals)
        return vals

    @cached_property
    def _edges(self) -> np.ndarray:
        """The panel breakpoints: the table's knots, or ``R*_UNIT_EDGES``."""
        return self.table_x if self.family == TABULATED else self.support_radius * _UNIT_EDGES

    @cached_property
    def _rule(self):
        """The split rule on the whole support: its nodes, the density there,
        the scaled weights and the panel count, built on first use.  The
        arrays are one read-only block, since every later integrand reads them."""
        edges = self._edges
        nodes, weights = _split_rule(edges[None, :-1], edges[None, 1:])
        rule = np.stack([nodes, self.evaluate(nodes), weights])
        rule.flags.writeable = False
        return (*rule, edges.size - 1)

    @cached_property
    def _moments(self) -> np.ndarray:
        """The weight table of ``1, y, y**2`` (:func:`weight_table`), built on first use."""
        return weight_table(self, lambda y: (np.ones_like(y), y, y * y))

    @cached_property
    def _tilt_nodes(self) -> np.ndarray:
        """The rule's nodes in the blocks of a weight table, ``(5, 16n)``."""
        return self._rule[0].reshape(3, -1)[[0, 1, 2, 1, 2]]

    def discretize(self, dx: float) -> Stencil:
        """Symmetric quadrature weights for ``J * w`` at grid spacing ``dx``.

        Requires ``dx <= support_radius / 8``.  The kernel is sampled at
        ``k * dx`` for ``|k| <= ceil(R/dx)``, and the weights are
        renormalized so that the discrete convolution preserves constants
        exactly.  End taps that are exactly 0.0 are then dropped in pairs:
        the analytic families vanish at ``+-R``, so at ``dx = R/8`` the
        stencil keeps 15 of its 17 points; a table keeps its end taps unless
        its density there is 0.
        """
        r = self.support_radius
        if dx <= 0.0:
            raise ResolutionError("dx must be positive")
        if dx > r / 8.0 * (1.0 + 1e-12):
            raise ResolutionError(
                f"dx={dx:g} too coarse for support radius {r:g}: the resolution floor is dx <= R/8 = {r / 8.0:g}")
        h = int(math.ceil(r / dx - 1e-9))
        offsets = np.arange(-h, h + 1, dtype=float) * dx
        w = self.evaluate(offsets)
        total = float(w.sum()) * dx
        if total <= 0.0:
            raise InvalidKernelError("kernel has no mass on the stencil")
        w = w / total
        nonzero = np.flatnonzero(w)
        cut = min(nonzero[0], w.size - 1 - nonzero[-1])
        return Stencil(weights=w[cut:w.size - cut], halfwidth=h - int(cut), dx=dx)


def raised_cosine(radius: float = 1.0) -> Kernel:
    """The default analytic family: C1, compactly supported, unit mass."""
    if radius <= 0.0:
        raise InvalidKernelError("support radius must be positive")
    return Kernel(family=RAISED_COSINE, support_radius=float(radius))


def smooth_bump(radius: float = 1.0) -> Kernel:
    """Infinitely smooth mollifier kernel on [-radius, radius]."""
    if radius <= 0.0:
        raise InvalidKernelError("support radius must be positive")
    return Kernel(family=SMOOTH_BUMP, support_radius=float(radius))


def tabulated(x, density) -> Kernel:
    """Build a kernel from sampled abscissae and densities.

    The samples must be strictly ascending, nonnegative, symmetric, and
    vanish at the support ends.  Mass drift up to 1% is renormalized
    away; anything larger is rejected.
    """
    xs = np.asarray(x, dtype=float)
    ds = np.asarray(density, dtype=float)
    if xs.ndim != 1 or xs.shape != ds.shape or xs.size < 3:
        raise InvalidKernelError("tabulated kernel needs matching 1-D arrays of at least 3 samples")
    if np.any(np.diff(xs) <= 0.0):
        raise InvalidKernelError("tabulated kernel abscissae must be strictly ascending")
    if np.any(ds < 0.0):
        raise InvalidKernelError("tabulated kernel densities must be nonnegative")
    if abs(xs[0] + xs[-1]) > 1e-12 * max(abs(xs[0]), abs(xs[-1])):
        raise InvalidKernelError("tabulated kernel support must be symmetric about 0")
    if ds[0] > 1e-12 or ds[-1] > 1e-12:
        raise InvalidKernelError("tabulated kernel density must vanish at the support ends")
    # Symmetry of the sampled data: compare against the mirrored table.
    mirrored = np.interp(-xs, xs, ds)
    if np.max(np.abs(mirrored - ds)) > 1e-12:
        raise InvalidKernelError("tabulated kernel is not symmetric")
    radius = float(max(abs(xs[0]), abs(xs[-1])))
    mass = quad(Kernel(family=TABULATED, support_radius=radius, table_x=xs, table_density=ds))
    if mass <= 0.0:
        raise InvalidKernelError("tabulated kernel has no mass")
    if abs(mass - 1.0) > 0.01:
        raise InvalidKernelError(
            f"tabulated kernel mass {mass:.6g} drifts more than 1% from 1")
    return Kernel(family=TABULATED, support_radius=radius, table_x=xs, table_density=ds / mass)


def load_tabulated(path) -> Kernel:
    """Load a tabulated kernel from a two-column text file."""
    xs: list[float] = []
    ds: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                x, d = map(float, line.split())
            except ValueError:
                raise InvalidKernelError(f"{path}, line {lineno}: expected two numbers, "
                                         f"got {raw.rstrip()!r}") from None
            xs.append(x)
            ds.append(d)
    return tabulated(np.asarray(xs), np.asarray(ds))


def quad(kernel: Kernel, integrand=None, lo=None, hi=None):
    """``integral of J(s) * integrand(s) ds`` over the support clipped to ``[lo, hi]``.

    ``integrand`` is an elementwise callable of an abscissa array (default
    1); its values may be complex.  ``lo`` and ``hi`` default to the
    support ends; arrays broadcast and give one integral per element.

    The kernel is smooth between its breakpoints, so each panel gets the
    16-node Gauss-Legendre rule.  Every panel is then split in two and the
    rule repeated: the split result is returned, and
    :class:`NumericFailureError` is raised when the two differ by more than
    1e-10 relative to the integral of ``|J * integrand|``.  The integrand is
    evaluated once on the kernel's whole-support rule, and its terms are
    summed panel by panel.  A row whose limits cover the support adds those
    panel sums.  Every other row adds the panel sums of the panels its
    limits keep whole to fresh sums on the panels they cut (at most two per
    row, with their halves), which one integrand call evaluates for all
    rows; its check runs on the same panel sums.
    """
    nodes, values, weights, n = kernel._rule
    full = (values if integrand is None else values * integrand(nodes)) * weights
    panels = _panel_sums(full, n)
    if lo is None and hi is None:
        return _checked_panels(*panels).item()
    edges = kernel._edges
    lo = np.asarray(edges[0] if lo is None else lo, dtype=float)
    hi = np.asarray(edges[-1] if hi is None else hi, dtype=float)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    shape = lo.shape
    # Limits beyond the support change nothing, so clamp them to it.
    lo = np.maximum(lo.ravel(), edges[0])
    hi = np.minimum(hi.ravel(), edges[-1])
    cut = np.flatnonzero((lo != edges[0]) | (hi != edges[-1]))
    out = np.empty(lo.shape, full.dtype)
    if cut.size < out.size:
        out[:] = _checked_panels(*panels)
    if cut.size:
        out[cut] = _clipped_sums(kernel, integrand, panels, lo[cut, None], hi[cut, None])
    out = out.reshape(shape)
    return out.item() if out.ndim == 0 else out


def _clipped_sums(kernel: Kernel, integrand, panels, lo, hi) -> np.ndarray:
    """:func:`quad`'s checked sums for the rows ``[lo, hi]`` (column vectors)
    that do not cover the support, from the whole-support panel sums ``panels``."""
    edges = kernel._edges
    left, right = edges[:-1], edges[1:]
    a, b = _clamp(left, lo, hi), _clamp(right, lo, hi)
    kept = (a == left) & (b == right)
    rows = [np.where(kept, sums, 0.0) for sums in panels]
    row, j = np.nonzero(~kept & (a != b))
    x, w = _split_rule(a[row, j, None], b[row, j, None])
    f = kernel.evaluate(x)
    terms = (f if integrand is None else f * integrand(x)) * w
    for sums, fresh in zip(rows, _panel_sums(terms, 1)):
        sums[row, j] = fresh[:, 0]
    return _checked_panels(*rows)


def weight_table(kernel: Kernel, weights) -> np.ndarray:
    """The table :func:`exp_integral` tilts: row ``k`` holds the rule's terms
    of ``integral of J(y) * w_k(y)``, for the weights ``weights(nodes)``, in
    five blocks: coarse panels, left halves, right halves, and the
    magnitudes of both halves.  Slicing the first axis selects weights."""
    nodes, values, w, _ = kernel._rule
    terms = values * w * np.array(weights(nodes))
    terms = terms.reshape(len(terms), 3, -1)
    return np.concatenate([terms, np.abs(terms[:, 1:])], axis=1)


def exp_integral(kernel: Kernel, lam: float, table=None) -> list[float]:
    """``integral of J(y) * exp(lam*y) * w(y)`` over the support, as a list
    over the weights ``w`` of ``table`` (:func:`weight_table`; default the
    kernel's ``1, y, y**2``).  One pass: ``exp(lam*nodes)`` times the table,
    one sum per block, and the split-panel check on every weight
    (:class:`NumericFailureError` past relative 1e-10).  At ``lam == 0``
    the tilt is exactly 1, so the table is summed as it stands."""
    if not math.isfinite(lam):
        raise ValueError("tilt rate must be finite")
    table = kernel._moments if table is None else table
    if lam != 0.0:
        table = np.exp(lam * kernel._tilt_nodes) * table
    out = []
    for coarse, left, right, left_size, right_size in table.sum(axis=-1).tolist():
        fine = left + right
        if not abs(fine - coarse) <= _SELF_CHECK_RTOL * (left_size + right_size):
            raise _check_failure(abs(fine - coarse))
        out.append(fine)
    return out

