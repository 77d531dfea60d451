"""Walk through the constant-coefficient recurrence for a deformed Laguerre
system: build the one-index family, expand X*P(n) in the deformed basis and
compare every coefficient with the closed forms, exactly.
"""

from fractions import Fraction

from closurelab.exactalg import ParamPoly
from closurelab.families import ParamSet, builtin_deformed
from closurelab.recurrence import (build_X, check_h_symmetry,
                                   closed_form_compare, compute_table,
                                   table_formulas_L1I)

g = Fraction(7, 3)
params = ParamSet("L", {"g": g})
family = builtin_deformed("L", "1I", params)
print(f"family {family.label}: missing degrees below {family.ell},",
      f"denominator polynomial xi = {family.xi}")

X = build_X(family.xi, ParamPoly.const(1))
print(f"minimal X(eta) = {X}   (degree L = {X.degree('eta')})")

table = compute_table(family, X, range(7))
print("\nfive-term coefficients r[n][k]:")
for n in sorted(table.rows):
    row = "  ".join(f"r[{n},{k:+d}]={table.rows[n][k]}" for k in range(2, -3, -1))
    print(f"  n={n}: {row}")

golden = closed_form_compare(table, table_formulas_L1I(params))
assert all(entry["ok"] for entry in golden)
print(f"\nclosed-form comparison: {len(golden)} exact matches")

symmetry = check_h_symmetry(family, table)
assert all(entry["ok"] for entry in symmetry)
print(f"norm-ratio symmetry r(n,-l) = (h_n/h_(n-l)) r(n-l,l): "
      f"{len(symmetry)} exact matches")

# the same table, now symbolically in g
sym_family = builtin_deformed("L", "1I", None)
sym_table = compute_table(sym_family, build_X(sym_family.xi, ParamPoly.const(1)),
                          range(4))
print("\nsymbolic coefficients (polynomials in g):")
for n in sorted(sym_table.rows):
    print(f"  n={n}: r[{n},0] = {sym_table.rows[n][0]}")
