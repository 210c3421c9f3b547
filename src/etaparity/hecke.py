"""Hecke operators U_ell and T_ell on truncated GF(2) q-expansions.

Mod 2 with ell odd, ell^(k-1) = 1, so T_ell = U_ell + V_ell independent of
the weight, where V_ell is the dilation ``substitute_qk(f, ell)``; no
weight parameter appears anywhere.  Precision is the caller's burden: U
and T divide the valid length by ell and never fetch more coefficients.
"""

from __future__ import annotations

from .f2series import F2Series, add, every, substitute_qk
from .primes import is_prime


def u_op(f: F2Series, ell: int) -> F2Series:
    """Coefficient extraction: a_n(result) = a_{ell*n}(f); valid_len = floor(valid/ell)."""
    if ell < 2:
        raise ValueError("U index must be >= 2")
    return every(f, ell, f.valid_len // ell)


def t_op(f: F2Series, ell: int) -> F2Series:
    """T_ell = U_ell + V_ell for odd prime ell; valid_len = floor(valid/ell).

    T_2 is not in the shallow Hecke algebra: callers wanting the 2-adic
    shift must use u_op.
    """
    if ell == 2:
        raise ValueError("T_2 is not available; use u_op for the U_2 shift")
    if f.valid_len < ell:
        raise ValueError("series too short for this Hecke index")
    if not is_prime(ell):
        raise ValueError(f"T index must be an odd prime, got {ell}")
    n = f.valid_len // ell
    return add(u_op(f, ell), substitute_qk(f, ell, n))
