"""Creation and annihilation operators from the exact Heisenberg solution.

Each frequency component shifts eigenstates by a fixed amount; acting on an
eigenpolynomial all operator-valued scalars collapse to exact rationals, so
every ladder action is checked against the recurrence coefficient of X P(n).
"""

from fractions import Fraction

from closurelab.exactalg import EtaPoly
from closurelab.closure import closure_for_family
from closurelab.families import MultiIndex, ParamSet, builtin_deformed
from closurelab.heisenberg import (LadderContext, check_r0_relation,
                                   commutation_check, heisenberg_series_check,
                                   ladder_apply, ladder_suite)

params = ParamSet("L", {"g": Fraction(7, 3)})
family = builtin_deformed("L", MultiIndex.parse("1I"), params)
cd, X = closure_for_family(family, EtaPoly.const(1))
ctx = LadderContext(family, cd, X)

print(f"K = {cd.K}: indices 1..{cd.K // 2} raise, {cd.K // 2 + 1}..{cd.K} lower")
for j in range(1, cd.K + 1):
    action = ladder_apply(ctx, j, 2)
    print(f"  a^({j}) P(2) = {action.coefficient} * P({2 + action.shift})"
          f"   [alpha_{j}(E_2) = {action.alpha}]")

below = ladder_apply(ctx, cd.K, 0)
print(f"lowering twice from the ground state annihilates: a^({cd.K}) P(0) ="
      f" {below.coefficient}")

assert all(e["ok"] for e in ladder_suite(ctx, range(7)))
assert all(e["ok"] for e in check_r0_relation(ctx, range(9)))
assert all(e["ok"] for e in commutation_check(ctx, range(5)))
print("ladder coefficients match the recurrence table; eigenvalue shifts exact")

for n in range(3):
    rows = heisenberg_series_check(ctx, n, cd.K + 2)
    assert all(e["ok"] for e in rows)
print(f"time-power expansion of the Heisenberg solution verified to order"
      f" {cd.K + 2} on P(0)..P(2)")
