"""Walk through the constant-coefficient recurrence for a deformed Laguerre
system: build the one-index family, expand X*P(n) in the deformed basis and
compare every coefficient with the closed forms, exactly.
"""

from fractions import Fraction

from closurelab.exactalg import EtaPoly, interpolate_param
from closurelab.families import MultiIndex, ParamSet, builtin_deformed
from closurelab.recurrence import (build_X, check_h_symmetry,
                                   closed_form_compare, compute_table,
                                   table_formulas_L1I)

g = Fraction(7, 3)
params = ParamSet("L", {"g": g})
family = builtin_deformed("L", MultiIndex.parse("1I"), params)
print(f"family {family.label}: missing degrees below {family.ell},",
      f"denominator polynomial xi = {family.xi}")

X = build_X(family.xi, EtaPoly.const(1))
print(f"minimal X(eta) = {X}   (degree L = {X.degree})")

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

# the same coefficients symbolically in g, rebuilt from exact samples: the
# first three values of g fix a degree-2 interpolant, and the other three
# certify it (interpolate_param raises SampleMismatch on a disagreement)
samples = [Fraction(k, 2) for k in range(3, 9)]
tables = []
for gv in samples:
    df = builtin_deformed("L", MultiIndex.parse("1I"), ParamSet("L", {"g": gv}))
    tables.append(compute_table(df, build_X(df.xi, EtaPoly.const(1)), range(4)))
print(f"\nsymbolic coefficients (polynomials in g, from {len(samples)} "
      f"exact samples):")
for n in range(4):
    r0 = interpolate_param([(gv, t.rows[n][0]) for gv, t in zip(samples, tables)], 2)
    print(f"  n={n}: r[{n},0] = {r0}")
