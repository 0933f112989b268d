"""The exact 2-d oracle: L = X1 + X2 under a Gaussian copula, by quadrature.

Both inputs have P(X > x) = exp(-x**alpha) (alpha 0.9) and are coupled by a
Gaussian copula with correlation rho (0.3): X_i = (-log Phi(-Z_i))**(1/alpha)
for standard normal scores Z_i of correlation rho.  Then

    P(L > u) = exp(-u**alpha)
               + int_{z1 < z(u)} phi(z1) Phibar((z(u - x1) - rho z1) / sqrt(1 - rho**2)) dz1,

with z(y) = -ndtri_exp(-y**alpha), the score at which X exceeds y, and x1 the
input of score z1.  The integral runs on 40 equal panels from z1 = -8, below
which phi holds less than 1e-15 of the mass.  var solves log P(L > u) = log beta
(brentq), and cvar = var + int_var^inf P(L > t) dt / beta.  0.3–0.6 s per level.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri_exp

ALPHA = 0.9
RHO = 0.3
_LOW = -8.0
_PANELS = 40
_EPSREL = 1e-13
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _score(y, alpha):
    """z with Phi(-z) = exp(-y**alpha): the input exceeds y exactly where its score exceeds z."""
    return -ndtri_exp(-y ** alpha)


def tail_probability(u, alpha=ALPHA, rho=RHO):
    """P(X1 + X2 > u) for u > 0."""
    z_u, s = _score(u, alpha), math.sqrt(1.0 - rho * rho)

    def density(z1):
        x1 = (-log_ndtr(-z1)) ** (1.0 / alpha)
        # the rounding of x1 may put it a hair past u, where the second input needs only > 0
        z2 = _score(max(u - x1, 0.0), alpha)
        return _INV_SQRT_2PI * math.exp(-0.5 * z1 * z1) * ndtr((rho * z1 - z2) / s)

    edges = np.linspace(_LOW, z_u, _PANELS + 1)
    return math.exp(-u ** alpha) + math.fsum(
        quad(density, a, b, epsabs=0.0, epsrel=_EPSREL)[0] for a, b in zip(edges, edges[1:]))


def var_cvar(beta, alpha=ALPHA, rho=RHO):
    """The exact (var, cvar) of L at level beta."""
    # P(X1 > u) <= P(L > u) <= P(X1 > u/2) + P(X2 > u/2) brackets the root
    lo = math.log(1.0 / beta) ** (1.0 / alpha)
    hi = 2.0 * math.log(2.0 / beta) ** (1.0 / alpha)
    var = brentq(lambda u: math.log(tail_probability(u, alpha, rho) / beta), lo, hi,
                 xtol=1e-15 * lo)
    excess = quad(tail_probability, var, np.inf, args=(alpha, rho), epsabs=0.0, epsrel=1e-12)
    return var, var + excess[0] / beta
