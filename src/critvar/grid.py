"""Radial discretization of a ball in R^N.

The ball B(x0, R) is reduced to the interval [0, R]; every volume integral
is computed as

    int_B f dx  =  sigma * int_0^R f(r) r^(N-1) dr,

with sigma = 2 pi^(N/2) / Gamma(N/2) the area of the unit (N-1)-sphere.
The 1-D quadrature is a cell-based (finite-volume) rule: node i owns the
cell between the midpoints of its adjacent intervals and the cell carries
the exact mass of r^(N-1) dr.  The grid holds these node masses m_i, so
that the integral reads sum_i m_i f_i; the origin node has zero mass (its
cell mass is O(h^N) and is dropped).

The fields live on the grid's nodes: a FieldPair is a radial pair (u, v)
with zero Dirichlet value at R, the admissible set over which the coupled
energy is minimized, each component normalized in L^q with the critical
exponent q = 2N/(N-2) (critical_exponent).  The terms of a pair's energy
are evaluated by the descent flow's kernel (minimizer._kernel) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDomain, GridTooCoarse, ShapeMismatch

MIN_NODES = 16
MAX_CELLS = 1_000_000           # 250x the largest grid a test builds


def unit_sphere_area(dim: int) -> float:
    """Area of the unit (dim-1)-sphere, 2 pi^(dim/2) / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid on [0, R]: nodes, their masses, and the flux geometry.

    Attributes:
        dimension: ambient dimension N >= 2.
        radius: ball radius R.
        nodes: strictly increasing array, nodes[0] = 0, nodes[-1] = R.
        masses: m_i with sum m_i f_i ~ int f dx (the module docstring's).
        surface_factor: area of the unit (N-1)-sphere.
    """

    dimension: int
    radius: float
    nodes: np.ndarray
    masses: np.ndarray = field(repr=False)
    surface_factor: float
    # derived arrays, filled in __post_init__
    spacings: np.ndarray = field(init=False, repr=False)
    faces: np.ndarray = field(init=False, repr=False)
    # a run's derived data, one memo (a run builds its own grid) filled by
    # _cached, keyed ("operator", w), ("operator", conductance bytes),
    # ("spectrum", operator), ("tilt", w) and "stencil" (nodal_derivative's
    # weights)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        r = self.nodes
        if r.ndim != 1 or r.size < 2 or r[0] != 0.0 or not np.all(np.diff(r) > 0):
            raise BadDomain("nodes must be strictly increasing and start at 0")
        object.__setattr__(self, "spacings", np.diff(r))
        object.__setattr__(self, "faces", 0.5 * (r[:-1] + r[1:]))

    def check_shape(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.nodes.shape:
            raise ShapeMismatch(
                f"field of length {f.shape} on grid of {self.nodes.shape} nodes"
            )
        return f

    def _cached(self, key, build):
        """The object kept under key, else build()'s, kept under key unless
        build raises."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def _geometric_nodes(radius: float, n: int, ratio: float) -> np.ndarray:
    if not 0.0 < ratio < math.inf or ratio == 1.0:
        raise BadDomain("geometric grading needs a positive finite ratio != 1")
    h0 = radius * (ratio - 1.0) / (np.float64(ratio) ** n - 1.0)     # inf past 1e308
    spacings = h0 * ratio ** np.arange(n)
    nodes = np.concatenate(([0.0], np.cumsum(spacings)))
    nodes[-1] = radius  # absorb rounding in the cumulative sum
    return nodes


@np.errstate(all="ignore")          # a grading past float range: checked below
def build_grid(
    dim: int,
    radius: float,
    n: int,
    grading: str = "uniform",
    ratio: float | None = None,
) -> RadialGrid:
    """Build a radial grid with n cells on [0, radius].

    grading "uniform" gives equispaced nodes and takes no ratio; "geometric"
    gives spacings in constant ratio, clustering nodes near r = 0 for
    ratio > 1 (where the concentration profiles live).  Raises BadDomain
    above MAX_CELLS cells and unless every node mass beyond the origin is
    finite and positive.
    """
    if dim < 2:
        raise BadDomain(f"dimension must be >= 2, got {dim}")
    if not 0.0 < radius < math.inf:
        raise BadDomain(f"radius must be positive and finite, got {radius}")
    if n < MIN_NODES:
        raise GridTooCoarse(f"need at least {MIN_NODES} cells, got {n}")
    if n > MAX_CELLS:                  # checked before any array is made
        raise BadDomain(f"at most {MAX_CELLS} cells, got {n}")

    if grading == "uniform":
        if ratio is not None:
            raise BadDomain("uniform grading takes no ratio")
        nodes = np.linspace(0.0, radius, n + 1)
    elif grading == "geometric":
        if ratio is None:
            raise BadDomain("geometric grading requires a ratio")
        nodes = _geometric_nodes(radius, n, ratio)
    else:
        raise BadDomain(f"unknown grading {grading!r}")

    # exact cell mass of r^(N-1) dr, formed as sigma * w_i * r_i^(N-1)
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    upper = np.concatenate((faces, [radius]))          # r_{i+1/2}, last = R
    lower = np.concatenate(([0.0], faces))             # r_{i-1/2}, first = 0
    cell_mass = (upper ** dim - lower ** dim) / dim
    weights = np.zeros_like(nodes)                     # the origin's mass is 0
    weights[1:] = cell_mass[1:] / nodes[1:] ** (dim - 1)
    sigma = unit_sphere_area(dim)
    masses = sigma * weights * nodes ** (dim - 1)
    if not np.all((masses[1:] > 0.0) & (masses[1:] < math.inf)):
        raise BadDomain(f"ratio = {ratio}, cells = {n}: a node mass is 0 or not finite")
    return RadialGrid(dimension=dim, radius=radius, nodes=nodes, masses=masses,
                      surface_factor=sigma)


def _stencil(h: np.ndarray) -> tuple:
    """nodal_derivative's weights on nodes with spacings h, np.gradient's
    (edge_order=2): the interior rows (a, b, c), or (2h, None, None) for
    equal spacings h, where np.gradient divides central differences by 2h;
    and the one-sided row at R."""
    if np.all(h == h[0]):
        h = float(h[0])
        return (2.0 * h, None, None), (0.5 / h, -2.0 / h, 1.5 / h)
    h1, h2 = h[:-1], h[1:]
    inner = (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2)))
    for arr in inner:
        arr.flags.writeable = False
    h1, h2 = float(h[-2]), float(h[-1])
    return inner, (h2 / (h1 * (h1 + h2)), -(h2 + h1) / (h1 * h2),
                   (2.0 * h2 + h1) / (h2 * (h1 + h2)))


def nodal_derivative(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """f' at the nodes, f'(0) = 0: np.gradient(f, grid.nodes, edge_order=2)
    bit for bit (second-order differences, one-sided at R), from weights
    built once per grid."""
    f = grid.check_shape(f)
    (a, b, c), (la, lb, lc) = grid._cached("stencil", lambda: _stencil(grid.spacings))
    out = np.empty_like(f)
    inner = out[1:-1]
    if b is None:
        np.subtract(f[2:], f[:-2], out=inner)
        inner /= a
    else:
        np.multiply(a, f[:-2], out=inner)
        t = b * f[1:-1]
        inner += t
        inner += np.multiply(c, f[2:], out=t)
    out[0] = 0.0
    out[-1] = la * f[-3] + lb * f[-2] + lc * f[-1]
    return out


def integrate(f: np.ndarray, grid: RadialGrid) -> float:
    """sigma * sum_i w_i r_i^(N-1) f_i, the discrete int_B f dx."""
    f = grid.check_shape(f)
    return float(np.dot(grid.masses, f))


def critical_exponent(dim: int) -> float:
    """q = 2N/(N-2); raises BadDomain below N = 3, where it is not finite
    and positive."""
    if dim < 3:
        raise BadDomain(f"the critical exponent needs dimension >= 3, got {dim}")
    return 2.0 * dim / (dim - 2.0)


@dataclass(frozen=True)
class FieldPair:
    """Discrete radial pair (u, v) with zero Dirichlet boundary value."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape:
            raise ShapeMismatch("u and v must share the grid")
        if u[-1] != 0.0 or v[-1] != 0.0:
            raise ValueError("Dirichlet boundary requires u[-1] = v[-1] = 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def derivatives(self, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
        """Nodal derivative arrays (nodal_derivative: central differences,
        u'(0) = 0); one array serves both when v equals u."""
        du = nodal_derivative(self.u, grid)
        if self.v is self.u or np.array_equal(self.v, self.u):
            return du, du
        return du, nodal_derivative(self.v, grid)


def dirichlet_field(values, grid: RadialGrid) -> np.ndarray:
    """Clamp the boundary node to zero and validate shape."""
    f = grid.check_shape(values).copy()
    f[-1] = 0.0
    return f
