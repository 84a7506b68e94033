"""Seeded scenario generator for the three benchmark workloads.

Each workload is one scenario INI, generated from (workload, seed) and
handed to the program as text; the program never sees the seed.  The seed
picks one of `VARIANTS` input variants (seed mod VARIANTS), so that every
input the benchmark can generate has a reference snapshot in
`reference/<workload>.json` (see `make_reference.py`).

Why each workload exists (all three are closed loop, one client: the next
run of the scenario starts when the previous one has ended):

- existence-sweep: the only workload whose flows converge.  Iterations to
  tolerance, warm starts along the sweep and the candidate pool do the
  work; the minimize analysis is almost all of the run.
- concentration: one long flow at coupling 0, stopped by the concentration
  detector.  It measures the cost per flow iteration at the largest grid,
  with no pool and no convergence.  This is the call that dominates the
  tier-1 test suite, which is therefore not a workload of its own.
- diagnostics-n4: the N = 4 log regime with no flow.  Closed forms,
  eigenpairs, the epsilon ladders of the asymptotics analysis and the
  omega bounds do the work; `energy` is called one shot on many fields
  instead of in an inner loop.

The random draws only move the inputs inside ranges where the amount of
work barely changes, so that run-to-run spread measures the program, not
the generator.
"""

from __future__ import annotations

import random

VARIANTS = 32

WORKLOADS = ("existence-sweep", "concentration", "diagnostics-n4")

_GEOMETRIC_DOMAIN = """\
[domain]
dimension = {dim}
cells = {cells}
grading = geometric
ratio = 1.004
"""

_WEIGHTS = """\
[weights.a]
gamma0 = 1.0
exponent = {ka!r}
coefficient = {ca!r}

[weights.b]
gamma0 = 1.0
exponent = {kb!r}
coefficient = {cb!r}
"""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _lambdas(values) -> str:
    return " ".join(repr(round(v, 6)) for v in values)


def _existence_sweep(rng: random.Random) -> str:
    # N = 5, a = b = 1 + r^2: the existence interval is (6.5625, 31.80).
    # One coupling per stratum of [9, 24], jittered by at most 0.1: the
    # smallest coupling sets most of the flow iterations (946 at 9.0, 848
    # at 9.2), so a wider draw would make the work depend on the seed.
    # Every flow stays well under the 8000-iteration cap (7.0 stalls at it).
    lams = [9.0 + j * 15.0 / 7.0 + rng.uniform(-0.1, 0.1) for j in range(8)]
    lams[0] = max(lams[0], 9.0)
    return (
        _GEOMETRIC_DOMAIN.format(dim=5, cells=1500) + "\n"
        + _WEIGHTS.format(ka=2.0, ca=1.0, kb=2.0, cb=1.0) + "\n"
        # the acceptance suite's SWEEP_FLOW
        + "[flow]\nmax_iters = 8000\ngrad_tol = 1e-05\nstall_window = 1500\n\n"
        + f"[sweep]\nlambdas = {_lambdas(lams)}\n\n"
        + "[output]\nanalyses = constants eig minimize asymptotics pohozaev omega\n"
    )


def _concentration(rng: random.Random) -> str:
    # a = b = 1 + A r^2 at coupling 0 on the 3000-cell graded grid of the
    # acceptance suite, with its criterion-12 flow settings.  Iterations
    # scale roughly as 1/A (A = 0.5: 11,960; A = 1: 6,130; A = 2: 3,160),
    # so A stays within 1% of 1.
    coeff = round(1.0 + rng.uniform(-0.01, 0.01), 6)
    return (
        _GEOMETRIC_DOMAIN.format(dim=5, cells=3000) + "\n"
        + _WEIGHTS.format(ka=2.0, ca=coeff, kb=2.0, cb=coeff) + "\n"
        + "[flow]\nmax_iters = 20000\ngrad_tol = 1e-12\nstall_window = 20000\n\n"
        + "[sweep]\nlambdas = 0.0\n\n"
        + "[output]\nanalyses = minimize\n"
    )


def _diagnostics_n4(rng: random.Random) -> str:
    # N = 4, a = 1 + r^2, b = 1 + r^4: the eps|log eps| expansion, the
    # missing L2 constant K3 and two-sided omega bounds.  48 couplings in
    # steps of 1/2 from a seeded offset; the work does not depend on it.
    offset = rng.uniform(0.05, 0.5)
    lams = [offset + 0.5 * j for j in range(48)]
    return (
        _GEOMETRIC_DOMAIN.format(dim=4, cells=3000) + "\n"
        + _WEIGHTS.format(ka=2.0, ca=1.0, kb=4.0, cb=1.0) + "\n"
        + f"[sweep]\nlambdas = {_lambdas(lams)}\n\n"
        + "[output]\nanalyses = constants eig asymptotics omega\n"
    )


_GENERATORS = {
    "existence-sweep": _existence_sweep,
    "concentration": _concentration,
    "diagnostics-n4": _diagnostics_n4,
}


def scenario_ini(workload: str, seed: int) -> str:
    """The scenario INI of `workload` for `seed`; equal seeds give equal text."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{variant_of(seed)}")
    return _GENERATORS[workload](rng)
