"""Solve a generalized closure relation exactly and certify it as an
operator identity on eigenpolynomials.

The fourth commutator of the transformed Hamiltonian with the minimal X is
expressed through lower commutators with polynomial right-coefficients.  On
P_n every R(H) is the number R(E_n) and [(ad H)^i X] P_n = (H - E_n)^i X P_n,
so the solve is an exact linear system over these images, uniqueness comes
from the kernel, and a relation of operator order <= N that vanishes on
P_0..P_N is the zero operator.  A deliberately perturbed coefficient breaks
the identity.
"""

from fractions import Fraction

from closurelab.exactalg import EtaPoly, ParamPoly
from closurelab.closure import (ClosureData, closure_for_family, conjectured_R,
                                compare_reference, verify_closure_identity)
from closurelab.families import MultiIndex, ParamSet, builtin_deformed
from closurelab.spectral import alpha_conjecture

params = ParamSet("L", {"g": Fraction(7, 3)})
family = builtin_deformed("L", MultiIndex.parse("1I"), params)

cd, X = closure_for_family(family, EtaPoly.const(1))
print(f"order K = {cd.K}, unique solution: {cd.unique}")
for i, Ri in enumerate(cd.R):
    print(f"  R_{i}(z) = {Ri}")
print(f"  R_-1(z) = {cd.R_minus1}")

assert verify_closure_identity(family, X, cd)
print("operator identity certified on P_0..P_K")

assert cd.R == conjectured_R(alpha_conjecture("L", cd.K // 2, params))
print("solved R_i equal the eigenvalue-list expansion")

print(compare_reference("L", "1I", "1", cd, params.reference_values()))

# negative control: perturbing one coefficient must break the identity
broken = ClosureData(cd.K, list(cd.R), cd.R_minus1)
broken.R[2] = ParamPoly.const(81)
assert not verify_closure_identity(family, X, broken)
print("perturbed R_2 = 81 fails, as it must")

# higher order: Y = eta gives a seven-term recurrence and order K = 6
cd6, X6 = closure_for_family(family, EtaPoly((0, 1)))
print(f"\nY = eta: K = {cd6.K}, even R values:",
      [str(cd6.R[i]) for i in range(0, cd6.K, 2)])
