"""Physical constants shared across the toolkit.

All values are SI.  Gyromagnetic ratios are angular (rad s^-1 T^-1); the
widely quoted "GHz/T" numbers are gamma/(2*pi).
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


class PhysicalConstants:
    """Constants used by the noise, sequence and bath models.

    gamma_nv:     NV electron-spin gyromagnetic ratio, 2*pi*28 GHz/T.
    gamma_e:      bath (free) electron gyromagnetic ratio.
    gamma_c:      13C nuclear gyromagnetic ratio.
    mu0_over_4pi: magnetic constant / 4 pi, T m / A.
    hbar:         reduced Planck constant, J s.
    n_d:          atomic number density of diamond, m^-3.
    kB:           Boltzmann constant, J / K.
    """

    gamma_nv = TWO_PI * 28.0e9
    gamma_e = TWO_PI * 28.024951e9
    gamma_c = TWO_PI * 10.7084e6
    mu0_over_4pi = 1.0e-7
    hbar = 1.054571817e-34
    n_d = 1.76e29
    kB = 1.380649e-23


#: Default constant set used everywhere unless a caller overrides it.
CONSTANTS = PhysicalConstants()

#: Gas constant (J mol^-1 K^-1), used by the growth calculators.
R_GAS = 8.314462618

#: 1 milligauss in tesla.
MG_TO_TESLA = 1.0e-7

#: 1 Torr in pascal.
TORR_TO_PA = 101325.0 / 760.0

#: Standard atmosphere in pascal.
ATM_PA = 101325.0
