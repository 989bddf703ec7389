"""Gamma, beta and binomial helpers used by the closed-form norm formulas.

The gamma and log-gamma backends are the C library routines exposed through
the math module; both are well below 1e-13 relative error on the ranges the
norm formulas touch.  Products of gamma values are assembled in log space so
large-parameter norms do not overflow.
"""

from __future__ import annotations

import math

from .errors import PoleError

__all__ = ["gamma_fn", "log_gamma", "beta_fn", "binom"]


def _is_nonpositive_integer(x) -> bool:
    return x <= 0 and float(x) == int(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, raising PoleError at the poles 0, -1, -2, ..."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def log_gamma(x: float) -> float:
    """log |Gamma(x)|.  Poles raise, negative non-integers are allowed."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    return math.lgamma(x)


def beta_fn(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    if a > 0 and b > 0:
        return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    # rare path: some argument negative, fall back to direct gamma ratios
    if _is_nonpositive_integer(a + b):
        return 0.0
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


def binom(a, k: int):
    """Generalized binomial coefficient C(a, k) for integer k >= 0.

    Computed as the falling factorial a (a-1) ... (a-k+1) over k!, which is
    exact for Fraction inputs and avoids the spurious poles a gamma-ratio
    definition has at negative integer upper arguments.
    """
    if k < 0:
        return 0
    out = 1
    for j in range(k):
        out = out * (a - j)
    return out / math.factorial(k) if not isinstance(out, int) else _exact_div(out, math.factorial(k))


def _exact_div(num: int, den: int):
    q, rem = divmod(num, den)
    if rem == 0:
        return q
    return num / den
