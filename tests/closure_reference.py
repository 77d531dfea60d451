"""The Fraction route for the closure identity certificate, kept as a
reference for the integer one.

``closure.verify_closure_identity`` decides every coordinate c_{n,k} on
integer numerators.  This is its former version, with one Fraction
operation per term as the formula reads: R_i(E_n) by ``ClosureData.values_at``
and c_{n,k} = r_{n,k} (Delta^K - sum_i R_i(E_n) Delta^i) - [k = 0] R_-1(E_n)
summed on Fractions.  The tests cross-check the two routes' verdicts.
"""

from __future__ import annotations

from closurelab.closure import ClosureData, IdentityVerdict, _levels_through
from closurelab.exactalg import EtaPoly
from closurelab.families import DeformedFamily


def verify_closure_identity(df: DeformedFamily, X: EtaPoly,
                            cd: ClosureData) -> IdentityVerdict:
    """The verdict of ``closure.verify_closure_identity`` on Fractions: the
    first nonzero c_{n,k} on the levels n = 0..N, in increasing n, then k."""
    K = cd.K
    N = max([K, 2 * cd.R_minus1.degree("z")]
            + [i + 2 * Ri.degree("z") for i, Ri in enumerate(cd.R)])
    for n, coords in enumerate(_levels_through(df, X, N)):
        R_at, R_minus1_at = cd.values_at(df.E(n))
        for k, r, delta in coords:
            residual = r * (delta ** K - sum(R_i * delta ** i
                                             for i, R_i in enumerate(R_at)))
            if k == 0:
                residual -= R_minus1_at
            if residual:
                return IdentityVerdict(n, k, residual)
    return IdentityVerdict()
