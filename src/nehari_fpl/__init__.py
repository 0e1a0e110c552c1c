"""Nonlocal concave-convex energy toolkit on an interval grid.

Discretized fractional p-energy with exact exterior tail, ray (fibering)
analysis with the two-root projection, closed-form parameter thresholds,
concentrating-bubble scaling laws, and manifold-constrained descent for
positive and sign-changing critical points.  The check battery that
`verify` runs is not imported here; import it from nehari_fpl.verification.
"""

from types import ModuleType as _ModuleType

from .bubble import (
    DEFAULT_DELTA_FRAC,
    DEFAULT_EPS_FRAC,
    BubbleSpec,
    ScalingFit,
    cutoff,
    default_bubble,
    fit_exponent,
    interaction_exponent,
    interaction_integrals,
    ladder,
    ladder_fits,
    lq_mass_scaling,
    make_u_eps,
    mass_regime,
    profile_u,
)
from .constants import (
    P_BRANCH,
    ConstantsReport,
    SobolevEstimate,
    big_m,
    compactness_gap,
    estimate_sobolev,
    mu_tilde,
    regime_report,
    sobolev_exact,
)
from .energy import (
    energy,
    form_a,
    gradient,
    lebesgue_mass,
    residual,
    seminorm_p,
    split_parts,
)
from .errors import (
    DegenerateInputError,
    NehariError,
    NoRootsError,
    ParameterError,
    SolverError,
)
from .fibering import (
    FiberMap,
    FiberingReport,
    NehariClass,
    NehariTag,
    classify,
    fiber_derivatives,
    fiber_roots,
    perturbation_derivative,
    psi_and_t0,
    psi_mu,
)
from .config import DEFAULTS, apply_overrides, config_hash, load_config
from .grid import Grid, GridFunction, Params, build_grid, tail_weight
from .solver import (
    CrossingResult,
    FiberSupremum,
    SolveResult,
    SupScanResult,
    crossing_search,
    part_scales,
    project_minus,
    solve_positive,
    solve_sign_changing,
    sup_over_fiber,
    sup_scan_ab,
)

__version__ = "0.1.0"

# every public binding but the submodules, which importing binds too
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
