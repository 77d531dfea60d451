"""closurelab: exact verification of constant-coefficient recurrences,
generalized closure relations and ladder operators for deformed
orthogonal-polynomial systems (Laguerre, Jacobi, Wilson, Askey-Wilson)."""

__version__ = "0.1.0"

from .exactalg import (
    EtaPoly,
    ParamPoly,
    Rat,
    interpolate_grid,
    parse_poly,
    rat,
    rat_str,
    solve_linear_exact,
)

__all__ = [
    "EtaPoly",
    "ParamPoly",
    "Rat",
    "interpolate_grid",
    "parse_poly",
    "rat",
    "rat_str",
    "solve_linear_exact",
    "__version__",
]
