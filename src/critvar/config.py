"""Central tolerance conventions."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    monotonicity_abs: float = 1e-8    # slack in weight-derivative inequality


DEFAULT_TOL = Tolerances()
