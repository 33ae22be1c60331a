"""Small quadrature helpers used by the model and rates modules.

Nothing here is exported at package level.  The adaptive Simpson rule is
deliberately plain: it is only used on smooth one-dimensional drift
integrands where a recursive interval split converges fast.
"""

from __future__ import annotations

import numpy as np

_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GL_BITS = 192  # fraction bits of the fixed-point step in gauss_legendre


def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E f(Z), Z standard normal.

    Returns (z, w) with sum(w) == 1 so that E f(Z) ~= sum(w * f(z)).
    """
    try:
        return _GH_CACHE[n]
    except KeyError:
        x, w = np.polynomial.hermite.hermgauss(n)
        z = x * np.sqrt(2.0)
        w = w / np.sqrt(np.pi)
        _GH_CACHE[n] = (z, w)
        return z, w


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Returns read-only (x, w), x ascending, where every node and weight is
    the correctly rounded float64 of its exact value.  numpy's own rule
    starts from a LAPACK eigenvalue solve instead, so its last bits change
    with the LAPACK build.  Here a float64 Newton iteration on the
    three-term recurrence finds the positive roots, and one more step in
    exact fixed-point integer arithmetic, the same on every platform,
    carries each far past double precision before it is rounded.  The
    negative half mirrors the positive one, so x == -x[::-1] exactly.
    """
    try:
        return _GL_CACHE[n]
    except KeyError:
        half = [_refine_legendre_root(t, n) for t in _legendre_roots_float(n)]
        if n % 2:
            half.append(_refine_legendre_root(0.0, n))
        t, v = (np.array(a) for a in zip(*half))
        x = np.concatenate([-t[:n // 2], t[::-1]])
        w = np.concatenate([v[:n // 2], v[::-1]])
        x.flags.writeable = w.flags.writeable = False
        _GL_CACHE[n] = (x, w)
        return x, w


def _legendre_roots_float(n: int) -> np.ndarray:
    """Float64 Newton estimates of the positive roots of P_n, largest
    first, started from Tricomi's asymptotic guesses."""
    i = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dx = p1 * (x * x - 1.0) / (n * (x * p1 - p0))
        x = x - dx
        if not x.size or np.max(np.abs(dx)) < 1e-10:
            break
    return x


def _refine_legendre_root(x: float, n: int) -> tuple[float, float]:
    """Correctly rounded root of P_n next to the estimate x, and its weight.

    Integers scaled by 2**_GL_BITS carry P_n and its first three
    derivatives at x.  A second-order Taylor step from there lands within
    ~1e-35 of the root, so the float64 rounding no longer depends on the
    last bits of x.  The weight 2 / ((1 - t^2) P_n'(t)^2) takes P_n' to
    the refined root t by the same expansion.
    """
    s = _GL_BITS
    one = 1 << s
    num, den = float(x).as_integer_ratio()
    X = (num << s) // den
    p0, p1 = one, X  # P_{k-1}(x), P_k(x)
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * (X * p1 >> s) - k * p0) // (k + 1)
    # P' from the recurrence; P'' and P''' from Legendre's equation
    # (1 - x^2) P'' = 2x P' - n(n+1) P and its derivative.
    omx = one - (X * X >> s)
    m = n * (n + 1)
    d1 = n * (p0 - (X * p1 >> s)) * one // omx
    d2 = ((2 * X * d1 >> s) - m * p1) * one // omx
    d3 = ((4 * X * d2 >> s) - (m - 2) * d1) * one // omx
    h = -p1 * one // d1
    h = -(p1 + (d2 * (h * h >> s) >> (s + 1))) * one // d1
    t = X + h
    dp = d1 + (d2 * h >> s) + (d3 * (h * h >> s) >> (s + 1))
    # int / int true division is correctly rounded
    return t / one, (2 << 3 * s) / ((one - (t * t >> s)) * dp * dp)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to absolute tol."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth - 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth - 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)
