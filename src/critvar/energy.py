"""Field pairs (u, v) on the radial grid and the critical exponent
q = 2N/(N-2).  The terms of a pair's normalized coupled energy are
evaluated by the descent flow's kernel (minimizer._kernel) alone: the flow
reports them with its pair, the sweep's pool ranks candidates by them and
asymptotics.energy_curves reads them for its concentration pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .grid import RadialGrid, nodal_derivative


def critical_exponent(dim: int) -> float:
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
        """Nodal derivative arrays (grid.nodal_derivative: central
        differences, u'(0) = 0); one array serves both when v equals u."""
        du = nodal_derivative(self.u, grid)
        if self.v is self.u or np.array_equal(self.v, self.u):
            return du, du
        return du, nodal_derivative(self.v, grid)


def dirichlet_field(values, grid: RadialGrid) -> np.ndarray:
    """Clamp the boundary node to zero and validate shape."""
    f = grid.check_shape(values).copy()
    f[-1] = 0.0
    return f
