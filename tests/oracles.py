"""Independent reference paths that only the tests need."""

import math

from scipy.integrate import quad

from zgb.errors import DomainError


def e_frak_quadrature(t: float) -> float:
    """E(t) by adaptive quadrature of the defining integral, the check on
    zgb.bounds.e_frak's exponential-integral route."""
    if t < 1.0 + 1e-6:
        raise DomainError(f"e_frak_quadrature requires t >= 1 + 1e-6, got {t}")
    lt = math.log(t)
    val, _ = quad(lambda s: math.exp(-s * lt) / s, 1.0, math.inf,
                  epsabs=1e-14, epsrel=1e-13, limit=300)
    return val
