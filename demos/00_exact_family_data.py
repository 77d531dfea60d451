"""Tour of the exact family data across all four systems: energies,
virtual-state energies, seed polynomials, and the eigenvalue spacing laws.

Everything prints as exact rationals; the difference families (W, AW) are
covered at the spectral level, where the square roots collapse to rationals
at the energy points.
"""

from fractions import Fraction

from closurelab.families import (ParamSet, canonical_seed, energy,
                                 virtual_energy)
from closurelab.spectral import (alpha_conjecture, alpha_values_at_energy,
                                 check_alpha_spectrum, sqrt_value_at_energy)

SAMPLES = {
    "L": ParamSet("L", {"g": Fraction(7, 3)}),
    "J": ParamSet("J", {"g": Fraction(2), "h": Fraction(3)}),
    "W": ParamSet("W", {"a1": Fraction(2), "a2": Fraction(5, 2),
                        "a3": Fraction(3), "a4": Fraction(7, 2)}),
    "AW": ParamSet("AW", {"a1": Fraction(1, 4), "a2": Fraction(1, 5),
                          "a3": Fraction(1, 10), "a4": Fraction(1, 10),
                          "q": Fraction(4, 9)}),
}


def virtual_energy_pair(ps):
    """The degree-1 type I and II virtual energies.  The package gives them
    for L and J, the families it deforms; it builds no W or AW deformation,
    so their forms are written out here."""
    if ps.fam in ("L", "J"):
        return virtual_energy(ps, "I", 1), virtual_energy(ps, "II", 1)
    a1, a2, a3, a4 = ps.a_list()
    if ps.fam == "W":
        return -(a1 + a2 - 2) * (a3 + a4 + 1), -(a3 + a4 - 2) * (a1 + a2 + 1)
    q = ps.q
    return (-(1 - a1 * a2 / q ** 2) * (1 - a3 * a4 * q),
            -(1 - a3 * a4 / q ** 2) * (1 - a1 * a2 * q))


for fam, ps in SAMPLES.items():
    print(f"== {fam} at {dict((k, str(v)) for k, v in ps.values.items())}")
    print("   E_0..E_5:", [str(energy(ps, n)) for n in range(6)])
    e1, e2 = virtual_energy_pair(ps)
    print("   virtual energies (type I/II, degree 1):", str(e1), "/", str(e2))
    if fam in ("L", "J"):
        print("   degree-1 seeds:", canonical_seed(fam, "I", 1, ps), "|",
              canonical_seed(fam, "II", 1, ps))
    # spacing: alpha_j(E_n) equals an exact energy difference
    alphas = alpha_conjecture(fam, 2, ps)
    vals = alpha_values_at_energy(ps, 3, alphas, energy(ps, 3))
    diffs = [energy(ps, 3 + s) - energy(ps, 3) for s in (2, 1, -1, -2)]
    assert vals == diffs
    print("   alpha_j(E_3) = E_(3+shift) - E_3:", [str(v) for v in vals])
    print("   sqrt-free value at E_3:", str(sqrt_value_at_energy(ps, 3)))
    report = check_alpha_spectrum(ps, range(9), alphas)
    assert all(e["ok"] for e in report)
    print(f"   spacing + ordering checks: {len(report)} exact passes")
