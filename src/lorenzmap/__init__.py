"""Exact-arithmetic analysis of expanding Lorenz maps.

Minimal periods and their unique periodic orbits, renormalization
checking and towers, backward-limit classification, and the
nonwandering decomposition.  Every scalar is a :class:`fractions.Fraction`
and every order decision is an exact comparison; malformed input is
refused with :class:`InvalidInput`.
"""

from .numerics import (
    InvalidInput,
    Scalar,
    parse_scalar,
    format_scalar,
)
from .maps import (
    BranchFn,
    BranchLabel,
    LorenzMap,
    ValidationReport,
    beta_transformation,
    evaluate,
    inverse_images,
    parse_map_text,
    rescale_to_unit,
    symmetric_map,
    validate_map,
)
from .interval_dynamics import IntervalUnion
from .periods import (
    MinimalPeriodResult,
    PeriodicOrbit,
    minimal_period,
    minimal_periodic_orbit,
)
from .renorm import (
    MinimalRenormResult,
    RenormCheck,
    RenormStep,
    Tower,
    TowerLevel,
    TowerTerminal,
    Trichotomy,
    is_valid_renormalization,
    minimal_renormalization,
    renorm_tower,
)
from .limits import (
    AlphaClass,
    Membership,
    MembershipResult,
    OmegaDecomposition,
    OmegaPart,
    alpha_classify,
    alpha_limit_approx,
    membership_E,
    omega_decomposition,
    orbit_unions,
)

__version__ = "0.1.0"
