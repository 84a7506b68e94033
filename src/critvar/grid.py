"""Radial discretization of a ball in R^N.

The ball B(x0, R) is reduced to the interval [0, R]; every volume integral
is computed as

    int_B f dx  =  sigma * int_0^R f(r) r^(N-1) dr,

with sigma = 2 pi^(N/2) / Gamma(N/2) the area of the unit (N-1)-sphere.
The 1-D quadrature is a cell-based (finite-volume) rule: node i owns the
cell between the midpoints of its adjacent intervals and the cell carries
the exact mass of r^(N-1) dr.  The weights are stored in the form w_i so
that the integral reads sigma * sum_i w_i r_i^(N-1) f_i; the origin node
has zero weight in this form (its cell mass is O(h^N) and is dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDomain, GridTooCoarse, ShapeMismatch

MIN_NODES = 16


def unit_sphere_area(dim: int) -> float:
    """Area of the unit (dim-1)-sphere, 2 pi^(dim/2) / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int, radius: float) -> float:
    return math.pi ** (dim / 2.0) * radius ** dim / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid on [0, R] with quadrature and flux geometry.

    Attributes:
        dimension: ambient dimension N >= 2.
        radius: ball radius R.
        nodes: strictly increasing array, nodes[0] = 0, nodes[-1] = R.
        quad_weights: w_i with sigma * sum w_i r_i^(N-1) f_i ~ int f dx.
        surface_factor: area of the unit (N-1)-sphere.
        grading: "uniform" or "geometric".
        grading_ratio: spacing ratio for geometric grading (None otherwise).
    """

    dimension: int
    radius: float
    nodes: np.ndarray
    quad_weights: np.ndarray
    surface_factor: float
    grading: str
    grading_ratio: float | None = None
    # derived arrays, filled in __post_init__
    masses: np.ndarray = field(init=False, repr=False)
    spacings: np.ndarray = field(init=False, repr=False)
    faces: np.ndarray = field(init=False, repr=False)
    # id(w) -> (w, w(r_{i+1/2}) r_{i+1/2}^(N-1) on faces 1..n-1), filled by
    # the gradient energy; holding w keeps its id from naming another weight
    _face_flux: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        r = self.nodes
        if r.ndim != 1 or r.size < 2 or r[0] != 0.0 or not np.all(np.diff(r) > 0):
            raise BadDomain("nodes must be strictly increasing and start at 0")
        h = np.diff(r)
        faces = 0.5 * (r[:-1] + r[1:])
        masses = self.surface_factor * self.quad_weights * r ** (self.dimension - 1)
        object.__setattr__(self, "spacings", h)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "masses", masses)

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def volume(self) -> float:
        return float(np.sum(self.masses))

    def check_shape(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.nodes.shape:
            raise ShapeMismatch(
                f"field of length {f.shape} on grid of {self.nodes.shape} nodes"
            )
        return f


def _geometric_nodes(radius: float, n: int, ratio: float) -> np.ndarray:
    if ratio <= 0.0 or ratio == 1.0:
        raise BadDomain("geometric grading needs a positive ratio != 1")
    h0 = radius * (ratio - 1.0) / (ratio ** n - 1.0)
    spacings = h0 * ratio ** np.arange(n)
    nodes = np.concatenate(([0.0], np.cumsum(spacings)))
    nodes[-1] = radius  # absorb rounding in the cumulative sum
    return nodes


def build_grid(
    dim: int,
    radius: float,
    n: int,
    grading: str = "uniform",
    ratio: float | None = None,
) -> RadialGrid:
    """Build a radial grid with n cells on [0, radius].

    grading "uniform" gives equispaced nodes; "geometric" gives spacings in
    constant ratio, clustering nodes near r = 0 for ratio > 1 (where the
    concentration profiles live).
    """
    if dim < 2:
        raise BadDomain(f"dimension must be >= 2, got {dim}")
    if radius <= 0.0:
        raise BadDomain(f"radius must be positive, got {radius}")
    if n < MIN_NODES:
        raise GridTooCoarse(f"need at least {MIN_NODES} cells, got {n}")

    if grading == "uniform":
        nodes = np.linspace(0.0, radius, n + 1)
        ratio = None
    elif grading == "geometric":
        if ratio is None:
            raise BadDomain("geometric grading requires a ratio")
        nodes = _geometric_nodes(radius, n, ratio)
    else:
        raise BadDomain(f"unknown grading {grading!r}")

    # Cell mass of r^(N-1) dr, exact per cell; folded into w_i r_i^(N-1).
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    upper = np.concatenate((faces, [radius]))          # r_{i+1/2}, last = R
    lower = np.concatenate(([0.0], faces))             # r_{i-1/2}, first = 0
    cell_mass = (upper ** dim - lower ** dim) / dim
    weights = np.empty_like(nodes)
    weights[1:] = cell_mass[1:] / nodes[1:] ** (dim - 1)
    weights[0] = 0.5 * (nodes[1] - nodes[0])  # times r^(N-1) = 0, kept for shape

    return RadialGrid(
        dimension=dim,
        radius=radius,
        nodes=nodes,
        quad_weights=weights,
        surface_factor=unit_sphere_area(dim),
        grading=grading,
        grading_ratio=ratio,
    )


def integrate(f: np.ndarray, grid: RadialGrid) -> float:
    """sigma * sum_i w_i r_i^(N-1) f_i, the discrete int_B f dx."""
    f = grid.check_shape(f)
    return float(np.dot(grid.masses, f))
