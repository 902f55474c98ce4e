"""The residual filter's denominator polynomial in the forward shift operator.

The operator ``q`` advances time: ``(q s)[k] = s[k+1]``.
"""

from __future__ import annotations

import numpy as np


def pole_polynomial(pole: float, degree: int) -> np.ndarray:
    """Ascending coefficients of ``(q - pole)**degree / (1 - pole)**degree``.

    This is the scalar denominator used by the residual dynamics: a single
    real pole of multiplicity ``degree``, normalised so the polynomial equals
    one at ``q = 1``.  The pole must be strictly inside the unit circle so
    that the inverse dynamics are stable.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not abs(pole) < 1.0:
        raise ValueError(f"pole must satisfy |pole| < 1, got {pole}")
    # (q - pole)^degree expanded with binomial coefficients, ascending in q.
    from math import comb

    coeffs = np.array(
        [comb(degree, i) * (-pole) ** (degree - i) for i in range(degree + 1)],
        dtype=float,
    )
    return coeffs / (1.0 - pole) ** degree
