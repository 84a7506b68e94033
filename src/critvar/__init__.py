"""critvar: a numerical laboratory for a weighted two-component
critical-exponent minimization problem on the ball.

The package estimates the infimum of the normalized coupled energy

    E(u, v) = (1/2) int a |grad u|^2 / |u|_q^2
            + (1/2) int b |grad v|^2 / |v|_q^2
            - lam int uv / (|u|_q |v|_q),      q = 2N/(N-2),

over radial Dirichlet pairs, together with the closed-form constants,
eigenvalue thresholds, concentration-family expansions, dilation-identity
diagnostics, and non-existence indicators that govern when the infimum is
achieved.
"""

__version__ = "0.1.0"

from .asymptotics import (BubbleParams, ExpansionFit, bubble_field,
                          default_eps_ladder, energy_curves, fit_expansion)
from .constants import (BubbleConstants, Case, ExistenceVerdict, ExpansionPrediction,
                        bubble_constants, case_of, correction_constant,
                        existence_verdict, expansion_prediction, radial_moment,
                        slope_factor)
from .errors import *  # noqa: F401,F403 -- the error taxonomy is the API
from .grid import (FieldPair, RadialGrid, build_grid, critical_exponent, dirichlet_field,
                   integrate, unit_sphere_area)
from .harness import (RunReport, Scenario, emit_csv, parse_scenario, run,
                      serialize_scenario, write_report)
from .minimizer import (FlowParams, MinimizeResult, SweepRow, descend,
                        sweep_minimize)
from .nonexistence import (OmegaEstimate, PohozaevReport, omega_bounds,
                           omega_estimate, phi_quotient, pohozaev_report,
                           tilde_weight)
from .spectral import SpectralResult, assemble_operator, first_eigenpair
from .weights import WeightProfile
