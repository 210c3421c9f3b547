"""Mod-2 arithmetic of eta powers: packed GF(2) series, Hecke operators,
the level-1 and level-9 form algebras, and parity-density experiments."""

from .f2series import F2Series, add, mul, substitute_qk
from .genforms import (CongruenceTheta, EtaPowerParams, c_series,
                       congruence_theta, delta_series, eta_product_pnt,
                       f_series, generator_power, p_r_series, power_in_q,
                       triangular_theta)
from .hecke import t_op, u_op
from .level1 import (DyadicRational, GenPoly, code_matrix, dihedral_density,
                     genpoly_series, hecke_on_genpoly, is_dihedral_window,
                     to_genpoly)
from .density import (DensityEstimate, EmptyScanError, PrecisionError,
                      eta_density_direct, eta_density_exact,
                      eta_density_formula, odd_coeff_density, verify_bounds)
from .primes import PrimeSieve
from .walks import delta_ell, emit_walk, partition_parity

__all__ = [name for name in dir() if not name.startswith("_")]
