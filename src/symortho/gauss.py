"""Classical Gauss rules by Golub-Welsch, in numpy alone, cached per
(exponents, nodes); none is built at import.

The nodes are the eigenvalues of the Jacobi matrix of the textbook monic
recurrence (DLMF 18.9.2, 18.9.13).  The weights are 1 / sum_k p_k(z_i)^2 of
the orthonormal members, not squared eigenvector components, which are
accurate only relative to the largest weight: a Laguerre rule's far nodes
carry weights like e^-z, and there they multiply the largest products.
"""

import functools
import math

import numpy as np

from .quadrature import divergent
from .special import beta_fn, gamma_fn

__all__ = ["jacobi", "laguerre", "pearson"]


def _rule(diag, off, mass):
    """Nodes and weights of each row's monic recurrence p_(k+1) = (z -
    diag[:, k]) p_k - off[k-1] p_(k-1), of a weight of this mass."""
    rows, n = diag.shape
    root = np.sqrt(off)
    jac = np.zeros((rows, n * n))
    jac[:, ::n + 1], jac[:, 1::n + 1], jac[:, n::n + 1] = diag, root, root
    z = np.linalg.eigvalsh(jac.reshape(rows, n, n))
    prev, cur = 0.0, np.full_like(z, 1 / math.sqrt(mass))
    total = cur * cur
    for k, r in enumerate(root):
        prev, cur = cur, ((z - diag[:, k, None]) * cur - (root[k - 1] * prev if k else 0.0)) / r
        total += cur * cur
    return z, 1 / total


@functools.lru_cache(maxsize=256)
def jacobi(a, b, n):
    """The n-point Gauss rule of z^a (1 - z)^b on [0, 1], a and b above -1,
    from the recurrence of (1 - x)^b (1 + x)^a, x = 2z - 1.  Each half
    comes from the rule built with its own end at 0, where a float node
    keeps its distance to the end to rounding: near an exponent close to -1
    the weights change fast with that distance."""
    al, be = float(b), float(a)
    k = np.arange(n, dtype=float)
    s = 2 * k + al + be
    with np.errstate(divide="ignore", invalid="ignore"):     # k = 0 and 1 in closed form
        diag = (be * be - al * al) / (s * (s + 2))
        off = 4 * k * (k + al) * (k + be) * (k + al + be) / (s * s * (s + 1) * (s - 1))
    diag[0] = (be - al) / (al + be + 2)
    if n > 1:
        off[1] = 4 * (1 + al) * (1 + be) / ((2 + al + be) ** 2 * (3 + al + be))
    (z, t), (w, v) = _rule(np.array([1 + diag, 1 - diag]) / 2, off[1:] / 4, beta_fn(a + 1, b + 1))
    half = n // 2
    z = np.concatenate((z[:half], 1 - t[n - half - 1::-1]))
    w = np.concatenate((w[:half], v[n - half - 1::-1]))
    z.flags.writeable = w.flags.writeable = False
    return z, w


@functools.lru_cache(maxsize=256)
def laguerre(a, n):
    """The n-point Gauss rule of z^a e^-z on [0, inf), a above -1."""
    k = np.arange(n, dtype=float)
    (z,), (w,) = _rule((2 * k + a + 1)[None], k[1:] * (k[1:] + a), gamma_fn(a + 1))
    z.flags.writeable = w.flags.writeable = False
    return z, w


def pearson(params, exponents, k):
    """(x, w, low): nodes x_i > 0 and weights w_i with sum_i w_i f(x_i) the
    integral of f W over the support, W the weight of params (p, q, r, s)
    with core.weight_exponents exponents, for every product f = S_n S_m of
    one parity, n + m <= 2k, that W makes integrable; low is the rule's
    smallest exponent.  None where W has no such rule.  In y = x^2, f is a
    polynomial P of degree (n + m)/2 against y^a (py + q)^e, a = (origin -
    1)/2; where a is -1 or less only odd pairs are integrable, and their
    factor y joins the weight.  With Q = t^k P(y), a polynomial of degree
    <= k in t:
      finite theta   y = theta^2 z: z^a (1 - z)^e, Gauss-Jacobi;
      p = 0          y = z/c, c = -r/(2q): z^a e^-z, Gauss-Laguerre;
      p, q > 0       y = (q/p)(1 - t)/t: Q t^(-a - e - 2 - k) (1 - t)^a;
      q = 0          y = c/t, c = s/(2p): Q t^(-(tail + 3)/2 - k) e^-t.
    A rule of floor(k/2) + 2 nodes, one more than exactness needs, exists
    exactly when no exponent of its weight is quadrature.divergent at its
    finite end (and c > 0): pair_integrable's count for the pairs of degree
    2k."""
    theta, origin, edge, tail = exponents
    p, q, r, s = (float(v) for v in params)
    j = int(divergent(0, origin))
    a = (origin - 1) / 2 + j
    size = (k - j) // 2 + 2
    if theta < math.inf:
        if divergent(0, a) or divergent(theta, edge):
            return None
        z, lam = jacobi(a, edge, size)
        y, w, low = theta * theta * z, lam * (theta * theta) ** (a + 1) * q ** edge, min(a, edge)
    elif p == 0:
        c = -r / (2 * q)
        if divergent(0, a) or not c > 0:
            return None
        z, lam = laguerre(a, size)
        y, w, low = z / c, lam * c ** -(a + 1), a
    elif q:
        b = -a - edge - 2 - (k - j)
        if divergent(0, a) or divergent(0, b):
            return None
        t, lam = jacobi(b, a, size)
        y, low = (q / p) * (1 - t) / t, min(a, b)
        w = lam * (q / p) ** (a + 1) * q ** edge * t ** (k - j)
    else:
        c, b = s / (2 * p), -(tail + 3) / 2 - k
        if not c > 0 or divergent(0, b):
            return None
        t, lam = laguerre(b, size)
        y, w, low = c / t, lam * c ** ((tail + 1) / 2) * t ** k, b
    return np.sqrt(y), w / y ** j, low


def _mirrored(x, w):
    """pearson's rule for even integrands, nodes x > 0, as a rule on the
    whole support: the nodes +-x, each with half its weight."""
    return np.concatenate((x, -x)), np.concatenate((w, w)) / 2
