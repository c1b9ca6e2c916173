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
# density values once (``Kernel._rule``).  A clipped integral is one pass over
# all the rows its limits cut: each row's split terms are the whole-support
# ones on the panels it keeps, zero on those it drops, and, on the panels it
# cuts, terms from one integrand call for every row; every integral still runs
# the split-panel check.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_UNIT_EDGES = np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 17))
# Largest disagreement between the rule and its split-panel repeat,
# relative to the integral of |J * integrand|.
_SELF_CHECK_RTOL = 1e-10
# Cells per output row of the blocked convolution (see ``Stencil.padded_block``);
# 32 ran a little faster than 16 or 64 for stencils of 17 and 33 taps.
BLOCK = 32


def _panel_rule(a, b):
    """Nodes and weights, ``a.shape + (16,)``: ``sum(f(nodes) * weights)`` integrates."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES, half[..., None] * _GL_WEIGHTS


def _split_rule(edges, lo, hi):
    """:func:`_panel_rule` on ``edges`` clipped to each ``[lo, hi]`` row, then on the halves."""
    a, b = np.clip(edges[:-1], lo, hi), np.clip(edges[1:], lo, hi)
    mid = 0.5 * (a + b)
    return _panel_rule(np.concatenate([a, a, mid], axis=1), np.concatenate([b, mid, b], axis=1))


def _certified(fine, coarse, scale) -> np.ndarray:
    """``fine``, once every row's ``|fine - coarse|`` is within the tolerance of ``scale``."""
    err = np.abs(fine - coarse)
    if not np.all(err <= _SELF_CHECK_RTOL * scale):
        raise NumericFailureError(
            f"kernel quadrature failed its split-panel check (residual {np.max(err):.3e})")
    return fine


def _checked_sum(terms, n) -> np.ndarray:
    """Row sums of the split terms ``terms[:, n:]``, checked against ``terms[:, :n]``."""
    split = terms[:, n:]
    return _certified(split.sum(axis=(1, 2)), terms[:, :n].sum(axis=(1, 2)),
                      np.abs(split).sum(axis=(1, 2)))


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
            vals = np.where(inside, (1.0 + np.cos(np.pi * np.clip(xs, -r, r) / r)) / (2.0 * r), 0.0)
        elif self.family == SMOOTH_BUMP:
            vals = _bump_body(np.clip(xs / r, -1.0, 1.0)) / (r * _BUMP_INTEGRAL)
        elif self.family == TABULATED:
            vals = np.where(inside, np.interp(xs, self.table_x, self.table_density,
                                              left=0.0, right=0.0), 0.0)
        else:
            raise InvalidKernelError(f"unknown kernel family {self.family!r}")
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(vals)
        return vals

    @property
    def _edges(self) -> np.ndarray:
        return self.table_x if self.family == TABULATED else self.support_radius * _UNIT_EDGES

    @cached_property
    def _rule(self):
        """The split rule on the whole support: its nodes, the density there,
        the scaled weights and the panel count, built on first use.  The
        arrays are one read-only block, since every later integrand reads them."""
        edges = self._edges
        nodes, weights = _split_rule(edges, edges[:1, None], edges[-1:, None])
        rule = np.stack([nodes, self.evaluate(nodes), weights])
        rule.flags.writeable = False
        return (*rule, edges.size - 1)

    def mgf(self, lam: float) -> float:
        """Moment generating function ``integral of J(y) * exp(lam*y)``.

        Computed by :func:`quad`, the Gauss-Legendre panel rule that
        certifies a relative error of 1e-10 or raises.
        """
        return exp_integral(self, lam)

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
    evaluated once on the kernel's whole-support rule.  A row whose limits
    cover the support sums those terms.  Every other row is handled in one
    pass: its split terms copy the panels its limits keep whole from the
    whole-support terms and are zero on the ones they drop, and the panels
    they cut (at most two per row), with their halves, are evaluated in one
    integrand call for all rows.  Each row's check takes its coarse sum and
    its ``|terms|`` scale from the whole-support rule's per-panel sums over
    the kept panels, plus the cut panels' own terms.
    """
    nodes, values, weights, n = kernel._rule
    full = (values if integrand is None else values * integrand(nodes)) * weights
    if lo is None and hi is None:
        return _checked_sum(full, n).item()
    edges = kernel._edges
    lo = np.asarray(edges[0] if lo is None else lo, dtype=float)
    hi = np.asarray(edges[-1] if hi is None else hi, dtype=float)
    shape = np.broadcast_shapes(lo.shape, hi.shape)
    # Limits beyond the support change nothing, so clamp them to it.
    lo = np.maximum(np.broadcast_to(lo, shape).ravel(), edges[0])[:, None]
    hi = np.minimum(np.broadcast_to(hi, shape).ravel(), edges[-1])[:, None]
    whole = (lo == edges[0]) & (hi == edges[-1])
    out = np.empty(whole.shape, full.dtype)
    if whole.any():
        out[whole] = _checked_sum(full, n)
    cut = np.flatnonzero(~whole)
    if cut.size:
        out[cut, 0] = _clipped_sums(kernel, integrand, full, n, lo[cut], hi[cut])
    out = out.reshape(shape)
    return out.item() if out.ndim == 0 else out


def _clipped_sums(kernel: Kernel, integrand, full, n, lo, hi) -> np.ndarray:
    """:func:`quad`'s checked sums for the rows ``[lo, hi]`` (column vectors)
    that do not cover the support, from the whole-support terms ``full``."""
    edges = kernel._edges
    a, b = np.clip(edges[:-1], lo, hi), np.clip(edges[1:], lo, hi)
    kept = (a == edges[:-1]) & (b == edges[1:])
    split = np.where(np.tile(kept, 2)[..., None], full[:, n:], 0.0)
    row, j = np.nonzero(~kept & (a != b))
    a, b = a[row, j], b[row, j]
    mid = 0.5 * (a + b)
    x, w = _panel_rule(np.stack([a, a, mid]), np.stack([b, mid, b]))
    f = kernel.evaluate(x)
    terms = (f if integrand is None else f * integrand(x)) * w
    split[row, j + n * np.arange(2)[:, None]] = terms[1:]
    panel = full[0].sum(axis=1)
    size = np.abs(full[0, n:]).sum(axis=1)
    coarse, scale = kept @ panel[:n], kept @ (size[:n] + size[n:])
    np.add.at(coarse, row, terms[0].sum(axis=1))
    np.add.at(scale, row, np.abs(terms[1:]).sum(axis=(0, 2)))
    return _certified(split.sum(axis=(1, 2)), coarse, scale)


def exp_integral(kernel: Kernel, lam: float, weight=None) -> float:
    """``integral of J(y) * exp(lam*y) * weight(y)`` over the support.

    ``weight`` is an optional smooth elementwise callable (default 1).
    Computed by :func:`quad`, which raises :class:`NumericFailureError`
    when the accuracy target (relative 1e-10) cannot be certified.
    """
    if not np.isfinite(lam):
        raise ValueError("tilt rate must be finite")
    if weight is None:
        return quad(kernel, lambda y: np.exp(lam * y))
    return quad(kernel, lambda y: np.exp(lam * y) * weight(y))


def tilted_mean(kernel: Kernel, lam: float) -> float:
    """``integral of y * J(y) * exp(lam*y)``: first moment of the tilted kernel."""
    return exp_integral(kernel, lam, weight=lambda y: y)
