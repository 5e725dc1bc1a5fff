"""Exact Darboux and gauge transformations for second-order operator
families, their symmetric-power and orthogonal lifts, and the
supporting symbolic kernel and numerical verification harness.  Only
numeric verification and ``evaluate`` load numpy, and the verify suite
(``golden``) loads on first access to ``run_checks``."""

from .expr import (
    DerivationTable,
    Expr,
    GaussRat,
    I,
    KitError,
    Param,
    Radical,
    Sym,
    Var,
    X,
    const,
    differentiate,
    equal,
    evaluate,
    exp,
    is_zero,
    normalize,
    param,
    parse_infix,
    parse_sexpr,
    substitute,
    sym,
    symbol_tower,
    to_pretty,
    to_sexpr,
)
from .linsys import (
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
    family_from_json,
    family_to_json,
    gauge_residual,
    residual,
    system_from_json,
    system_to_json,
)
from .sympow import (
    sym2_operator,
    sym_group,
    sym_lie,
    sym_power_vector,
    sym_system,
)
from .darboux import (
    DarbouxSeed,
    SeedNotSolution,
    Transformation,
    attach_generic_seed,
    auto_level_seed,
    darboux_chain,
    darboux_gauge,
    darboux_potential,
    darboux_solution,
    darboux_transformation,
    generic_seed,
    make_seed,
)
from .tensordt import (
    OrthogonalSystem,
    orthogonal_lift,
    riccati_invert,
    riccati_parametrize,
    so3_from_sym2,
    so3_system_first,
    so3_system_second,
    so3_to_riccati,
)
from .susyqm import (
    ParametricPotential,
    SusyPair,
    hermite,
    matrix_formalism,
    oscillator_states,
    partner_potentials,
    shape_invariance,
    spectrum,
)
from .apps import (
    application_chain,
    frenet_family,
    rigid_family,
)

__version__ = "0.1.0"

# Names served on first access (PEP 562), by module: the RK4 oracle needs
# numpy, and the verify suite is for ``verify`` only
_LAZY = {
    **dict.fromkeys(("Trajectory", "companion_solution_grid", "companion_solution_grids",
                     "convergence_ratio", "drift", "integrate", "integrate_many",
                     "residual_sweep"), "numverify"),
    "run_checks": "golden",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
