"""Quadrature for the model and rates modules: one Gauss-Legendre family.

gauss_legendre is the n-point rule on [-1, 1], correctly rounded, so no
result depends on the LAPACK build; composite_gauss_legendre, the one
adaptive rule, doubles equal panels of its 16-point rule until the
integral settles.  Nothing here is exported at package level.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NonConvergence

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GL_BITS = 192  # fraction bits of the fixed-point step in gauss_legendre
_PANEL_ORDER = 16     # nodes per panel of composite_gauss_legendre
_MAX_NODES = 2 ** 18  # largest composite rule tried


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


def composite_gauss_legendre(integrate, a: float, b: float, tol: float,
                             panels: int = 1):
    """Integral over [a, b] by the composite 16-point Gauss-Legendre rule.

    integrate(u, w) gets the nodes u and weights w of one composite rule
    and returns sum(w * g(u)) for the integrand g: a float, or an array
    of integrals that are all checked at once.  The rule starts from
    `panels` equal panels and doubles them until two successive results
    agree within the absolute tol everywhere; a rule past _MAX_NODES
    nodes raises NonConvergence.
    """
    t, w = gauss_legendre(_PANEL_ORDER)
    coarse = None
    while panels * _PANEL_ORDER <= _MAX_NODES:
        h = (b - a) / panels
        u = a + (h * (np.arange(panels)[:, None] + 0.5 * (t + 1.0))).ravel()
        fine = integrate(u, np.tile(0.5 * h * w, panels))
        if coarse is not None and np.abs(fine - coarse).max(initial=0.0) <= tol:
            return fine
        coarse, panels = fine, 2 * panels
    raise NonConvergence(f"integral not within {tol} at {_MAX_NODES} nodes "
                         f"on [{a}, {b}]")
