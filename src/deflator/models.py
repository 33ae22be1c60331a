"""Closed-form model zoo: Bachelier, lognormal and infinitely divisible
terminal laws, with characteristic-function inversion for the latter.

Everything here prices one European put (calls follow from parity) and
exposes the bits the hedging story needs: deltas, gammas, correlation
and least squared error estimates.

The numerics are in-tree and need only numpy: the normal law comes
from math.erf / math.erfc, and every quadrature, the inversion too,
uses the correctly rounded Gauss-Legendre rules of _quadrature; the
inversion sums one composite rule over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quadrature import _PANEL_ORDER, composite_gauss_legendre, gauss_legendre
from .exceptions import DimensionMismatch, TruncationFailure

# ---------------------------------------------------------------------------
# standard normal law

_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_LO = -4.833646656726457e-17      # sqrt(1/2) - _SQRT_HALF
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SPLIT = 134217729.0                        # 2^27 + 1, Veltkamp's splitter


def _product_error(a: float, b: float, p: float) -> float:
    """a * b - p, exactly, for p the rounded product a * b (Dekker)."""
    t = _SPLIT * a
    a_hi = t - (t - a)
    t = _SPLIT * b
    b_hi = t - (t - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _ndtr(z: float) -> float:
    """Standard normal distribution function, branch for branch as
    scipy.special.ndtr: erf near the centre, erfc reflected in the tails,
    so neither side loses digits to cancellation.

    In the left tail the result is erfc(-z / sqrt(2)) / 2 itself, and
    erfc magnifies the rounding of its argument by about z^2.  So
    z / sqrt(2) is split into its rounded head x and the tail that
    rounding dropped, and the tail is added back to first order."""
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    if x > 0:
        return 1.0 - 0.5 * math.erfc(x)
    y = 0.5 * math.erfc(-x)
    if not y > 0.0:             # underflow, or nan
        return y
    tail = _product_error(z, _SQRT_HALF, x) + z * _SQRT_HALF_LO
    # erfc(-x - tail) = erfc(-x) + 2 exp(-x^2) tail / sqrt(pi) + O(x tail^2)
    return y + _INV_SQRT_PI * math.exp(-x * x) * tail


def _npdf(z: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _check_strike(k: float) -> None:
    """ValueError unless the strike k of a put pricer is finite."""
    if not math.isfinite(k):
        raise ValueError(f"the strike must be finite, not {k!r}")


def _check_smoothing(smoothing: float) -> None:
    """ValueError unless a smoothing width is finite and >= 0."""
    if not 0.0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be finite and >= 0, not {smoothing!r}")


# ---------------------------------------------------------------------------
# Bachelier


@dataclass(frozen=True)
class BachelierParams:
    """Terminal stock S = R s (1 + sigma Z) with Z standard normal.

    R is the gross rate for the period, s the spot and sigma the
    relative volatility of the forward.
    """

    R: float
    s: float
    sigma: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.R, self.s, self.sigma)):
            raise ValueError("R, s and sigma must be finite and positive")

    @property
    def forward(self) -> float:
        return self.R * self.s


@dataclass(frozen=True)
class PutQuote:
    price: float
    delta: float


def bachelier_put(params: BachelierParams, k: float) -> PutQuote:
    """Time-0 put price (k/R - s) Phi(z) + s sigma phi(z) and its delta.

    z = (k / (R s) - 1) / sigma is the standardized moneyness; at the
    money (k = R s) the price collapses to s sigma / sqrt(2 pi) and the
    delta to -1/2.  ValueError unless k is finite.
    """
    _check_strike(k)
    R, s, sigma = params.R, params.s, params.sigma
    z = (k / (R * s) - 1.0) / sigma
    price = (k / R - s) * _ndtr(z) + s * sigma * _npdf(z)
    return PutQuote(price=price, delta=-_ndtr(z))


def _normal_piecewise_expectation(f, mean, std, kinks=()):
    """E f(X), X ~ N(mean, std^2), for f smooth between known kinks.

    120-point Gauss-Legendre on each smooth segment of mean +- 14 std;
    with the kinks supplied this is exact to machine precision for
    option payoffs.
    """
    x_nodes, w_nodes = gauss_legendre(120)
    lo, hi = mean - 14.0 * std, mean + 14.0 * std
    edges = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        x = 0.5 * (b - a) * x_nodes + 0.5 * (a + b)
        pdf = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
        total += 0.5 * (b - a) * float(np.sum(w_nodes * f(x) * pdf))
    return total


def atm_call_correlation() -> float:
    """Correlation between the stock and the at the money call payoff
    under a normal terminal law: 1 / sqrt(2 - 2/pi), about 0.8563."""
    return 1.0 / math.sqrt(2.0 - 2.0 / math.pi)


@dataclass(frozen=True)
class HedgeErrorEstimate:
    """Exact (quadrature) and small-sigma approximate hedge quality for
    a smooth payoff of the Bachelier terminal stock."""

    corr: float
    least_squared_error: float
    corr_approx: float
    lse_approx: float
    zero_slope: bool


def bachelier_hedge(params: BachelierParams, payoff, kinks=()):
    """The stock hedge of a payoff p, smooth between the given kinks, of
    the Bachelier terminal stock S: (E p(S), shares, corr, lse).

    The moments are by _normal_piecewise_expectation.  shares is
    Cov(S, p(S)) / Var S, corr the correlation of S and p(S) clipped to
    [-1, 1] (0 when p(S) is constant), and lse the least squared error
    max(Var p(S) - Cov(S, p(S))^2 / Var S, 0) / R, never negative.
    """
    f = params.forward
    moment = lambda g: _normal_piecewise_expectation(
        g, f, f * params.sigma, kinks=kinks)
    mean = moment(payoff)
    var = moment(lambda x: (payoff(x) - mean) ** 2)
    cov = moment(lambda x: (x - f) * payoff(x))
    var_s = (f * params.sigma) ** 2
    corr = max(-1.0, min(1.0, cov / math.sqrt(var_s * var))) if var > 0 else 0.0
    return mean, cov / var_s, corr, max(var - cov ** 2 / var_s, 0.0) / params.R


def hedge_error_estimate(params: BachelierParams, payoff, d1=None,
                         d2=None) -> HedgeErrorEstimate:
    """Correlation and least squared error of the stock hedge of payoff.

    The exact values integrate the payoff against the terminal normal
    law (so payoff should be smooth for them to be tight); the
    approximations expand around the forward f:

        corr ~ 1 / sqrt(1 + f^2 sigma^2 p''(f)^2 / (2 p'(f)^2))
        lse  ~ f^4 sigma^4 p''(f)^2 / (2 R)

    p'(f) and p''(f) are taken from d1 and d2 when given, otherwise by
    central differences.  zero_slope flags p'(f) = 0, where the best
    hedge is pure cash E p(S) and the correlation degenerates to zero.
    """
    f = params.forward
    sigma, R = params.sigma, params.R
    _, _, corr, lse = bachelier_hedge(params, payoff)

    h = 1e-5 * f
    slope = float(d1(f)) if d1 is not None else (payoff(f + h) - payoff(f - h)) / (2 * h)
    curve = (float(d2(f)) if d2 is not None
             else (payoff(f + h) - 2.0 * payoff(f) + payoff(f - h)) / h ** 2)
    zero_slope = slope == 0.0
    if zero_slope:
        corr_approx = 0.0
    else:
        corr_approx = 1.0 / math.sqrt(1.0 + (f * sigma * curve) ** 2 / (2.0 * slope ** 2))
    lse_approx = (f * sigma) ** 4 * curve ** 2 / (2.0 * R)
    return HedgeErrorEstimate(corr=corr, least_squared_error=lse,
                              corr_approx=corr_approx, lse_approx=lse_approx,
                              zero_slope=zero_slope)


# ---------------------------------------------------------------------------
# geometric Brownian motion


@dataclass(frozen=True)
class _RateModel:
    """S_t = s exp(mu t + sigma X_t), its drift mu making the discounted
    stock a martingale at rate r, so E S_t = forward = s e^{rt}.  r must be
    finite, and s, sigma and t finite and positive (ValueError).  Private,
    so that gbm_put takes no LevyModelParams and ignores no base law."""

    r: float
    s: float
    sigma: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and all(math.isfinite(v) and v > 0
                                              for v in (self.s, self.sigma, self.t))):
            raise ValueError("r must be finite, and s, sigma and t finite and positive")

    @property
    def forward(self) -> float:
        return self.s * math.exp(self.r * self.t)


@dataclass(frozen=True)
class GBMParams(_RateModel):
    """S_t = s exp((r - sigma^2/2) t + sigma B_t): the drift makes the
    discounted stock a martingale at rate r."""


@dataclass(frozen=True)
class GBMPutQuote:
    forward_value: float
    pv: float
    delta: float
    gamma: float


def gbm_put(params: GBMParams, k: float) -> GBMPutQuote:
    """Lognormal put: forward value k Phi(z) - f Phi(z - v) with total
    volatility v = sigma sqrt(t) and z = v/2 + log(k/f) / v.

    delta and gamma differentiate the present value in the spot; both
    come out of the same tilted-law evaluation, delta = -Phi(z - v) and
    gamma = phi(z - v) / (s v).  ValueError unless k is finite; a strike
    k <= 0 gives the zero quote.
    """
    _check_strike(k)
    if k <= 0.0:
        return GBMPutQuote(0.0, 0.0, 0.0, 0.0)
    f = params.forward
    v = params.sigma * math.sqrt(params.t)
    z = 0.5 * v + math.log(k / f) / v
    forward_value = k * _ndtr(z) - f * _ndtr(z - v)
    discount = math.exp(-params.r * params.t)
    return GBMPutQuote(
        forward_value=forward_value,
        pv=discount * forward_value,
        delta=-_ndtr(z - v),
        gamma=_npdf(z - v) / (params.s * v),
    )


# ---------------------------------------------------------------------------
# infinitely divisible laws in Kolmogorov form


def _exp_remainder(a: np.ndarray) -> np.ndarray:
    """(exp(a) - 1 - a) / a^2 for real or complex a, by its series where
    |a| < 0.5 and the direct form would cancel.  At a == 0, the node of
    every Gaussian part, the series sums to exactly its first term 0.5."""
    out = np.full_like(a, 0.5)
    small = np.abs(a) < 0.5
    big = a[~small]
    out[~small] = (np.exp(big) - 1.0 - big) / big ** 2
    series = small & (a != 0.0)
    if series.any():
        a = a[series]  # indexed once, not per term: this loop is the inversion's hot path
        term = acc = np.full(a.shape, 0.5, dtype=a.dtype)
        for n in range(3, 26):
            term = term * a / n
            acc = acc + term
        out[series] = acc
    return out


def _kernel(u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """K_u(x) = -u^2 (e^{iux} - 1 - iux) / (iux)^2, node-major: (nodes, *u.shape)."""
    return -(u ** 2) * _exp_remainder(1j * u * nodes.reshape(nodes.shape + (1,) * u.ndim))


@dataclass(frozen=True, eq=False)
class KolmogorovLaw:
    """An infinitely divisible law with finite variance, parameterized
    by its mean and a finite second-moment jump measure.

    charfn is exp(i u mean + sum_i K_u(x_i) w_i) with
    K_u(x) = (exp(iux) - 1 - iux) / x^2 and K_u(0) = -u^2/2, so the
    node at zero carries the Gaussian part: the mean of the law is
    `mean` and its variance the total node weight.  The law keeps its
    own copies of nodes and weights and compares by identity.
    """

    mean: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.nodes, dtype=float))
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        if x.shape != w.shape or x.ndim != 1:
            raise DimensionMismatch("need one weight per node")
        if not (math.isfinite(self.mean) and np.isfinite(x).all() and np.isfinite(w).all()):
            raise ValueError("mean, nodes and weights must be finite")
        if (w < 0).any():
            raise ValueError("node weights must be nonnegative")
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    @classmethod
    def standard_normal(cls) -> "KolmogorovLaw":
        return cls(mean=0.0, nodes=np.array([0.0]), weights=np.array([1.0]))

    @property
    def variance(self) -> float:
        return float(self.weights.sum())

    def char_exponent(self, u):
        """log E exp(iuX) = i u mean + K_u(x_i) w_i added node by node, vectorized over u."""
        u = np.asarray(u, dtype=float)
        return self._exponent(u, _kernel(u, self.nodes))

    def _exponent(self, u, kernels):
        """char_exponent at the float array u, given the kernels
        K_u(x_i) of this law's nodes, node-major."""
        out = 1j * u * self.mean
        for kernel, weight in zip(kernels, self.weights):
            out += kernel * weight
        return out

    def charfn(self, u):
        out = np.exp(self.char_exponent(u))
        return out if np.ndim(u) else complex(out)

    def log_mgf(self, sigma: float) -> float:
        """log E exp(sigma X) = mean sigma + sum (e^{sx}-1-sx)/x^2 w."""
        vals = _exp_remainder(sigma * self.nodes) * sigma ** 2
        return float(self.mean * sigma + (vals * self.weights).sum())

    def tilt(self, sigma: float) -> "KolmogorovLaw":
        """The law reweighted by exp(sigma X) / E exp(sigma X).

        In these coordinates the tilt is algebraic: the mean gains
        sum (e^{sx} - 1)/x w and each weight picks up the factor
        e^{s x}.  Tilting the standard normal by sigma gives exactly
        N(sigma, 1); tilts by sigma then tau compose to sigma + tau.
        """
        x, w = self.nodes, self.weights
        shift = np.where(x == 0.0, sigma,
                         np.expm1(sigma * x) / np.where(x == 0.0, 1.0, x))
        return KolmogorovLaw(mean=self.mean + float((shift * w).sum()),
                             nodes=x, weights=np.exp(sigma * x) * w)

    def scale_time(self, t: float) -> "KolmogorovLaw":
        """The law of the process at time t: exponent scales linearly."""
        if t <= 0:
            raise ValueError("need t > 0")
        return KolmogorovLaw(mean=t * self.mean, nodes=self.nodes,
                             weights=t * self.weights)


# a block of the inversion sum takes _BLOCK // nodes rows of x; its
# temporaries, one entry per (row, panel) or (row, offset), stay in a
# core's L2 cache
_BLOCK = 2 ** 14
# truncation candidates 2^j (1 + i/16), j < 20 and i < 5: 2^19 is the
# last power of two under the 1e6 cap
_PROBES = 2.0 ** np.arange(20)[:, None] * (1.0 + np.arange(5) / 16.0)
_PROBES.flags.writeable = False


def _inversion_sum(x, u, g) -> np.ndarray:
    """sum_u Im(e^{-iux} g_u) at every x, over the nodes u of one
    composite rule, which come panel after panel, _PANEL_ORDER each;
    for each row of g when g is 2-D, the rows sharing one angle table.

    A node is its panel's start plus its offset in the first panel,
    u[p, j] = c_p + d_j with c_p = u[p, 0] - u[0, 0] and d_j = u[0, j],
    so by angle addition the sum is sum_p Im(e^{-ixc_p} H[x, p]) with
    H[x, p] = sum_j e^{-ixd_j} g[p, j]: a row of x takes cos and sin of
    _PANEL_ORDER + panels angles, not of one per node.  np.einsum
    contracts the offsets (no BLAS product), and ndarray.sum adds the
    panels pairwise along the contiguous last axis, so the rounding
    grows as log(panels), not as panels.  Rows of x go in blocks of
    _BLOCK // u.size, each row summed whole, so the bytes do not depend
    on the block.
    """
    u = u.reshape(-1, _PANEL_ORDER)
    g_im, g_re = (np.ascontiguousarray(a.reshape(-1, *u.shape)) for a in (g.imag, g.real))
    start, offset = u[:, 0] - u[0, 0], u[0]
    out = np.empty((len(g_im), x.size))
    rows = max(1, _BLOCK // u.size)
    for i in range(0, x.size, rows):
        xd = np.multiply.outer(x[i:i + rows], offset)
        cos_d, sin_d = np.cos(xd), np.sin(xd)
        xc = np.multiply.outer(x[i:i + rows], start)
        cos_c, sin_c = np.cos(xc), np.sin(xc)
        for row, im, re in zip(out, g_im, g_re):
            h_im = np.einsum("xj,pj->xp", cos_d, im) - np.einsum("xj,pj->xp", sin_d, re)
            h_re = np.einsum("xj,pj->xp", cos_d, re) + np.einsum("xj,pj->xp", sin_d, im)
            row[i:i + rows] = (cos_c * h_im - sin_c * h_re).sum(axis=1)
    return out.reshape(g.shape[:-1] + x.shape)


def cdf_from_charfn(charfn, x_grid, smoothing: float = 0.0) -> np.ndarray:
    """Distribution function on a grid by characteristic function
    inversion: F(x) = 1/2 - (1/pi) int_0^U Im(e^{-iux} phi(u)) / u du.

    charfn must accept an array of u and return phi at each.  The
    truncation point U is the least power of two 2^j, j < 20, at which
    |phi| is at most 1e-12 on the five probes 2^j (1 + i/16), i < 5;
    charfn is evaluated once, on all 100 candidate points up to
    2^19 * 1.25, and TruncationFailure is raised when no j passes.
    For laws with atoms phi never decays; a positive smoothing width
    convolves with N(0, smoothing^2), which resolves the cdf up to
    steps of that width.  A negative or non-finite smoothing, or a
    non-finite grid point, raises ValueError.

    The truncated integral is smooth, so one composite Gauss-Legendre
    rule on [0, U] serves the whole grid: phi is evaluated once per
    rule, on all its nodes, and the integrals at every x are sums of
    e^{-iux} terms over u (_inversion_sum).  Those take cos and sin by
    panel: 16 + panels angles per grid point, joined by angle addition
    and summed over the panels pairwise, in blocks of rows of x, each
    row summed whole, so the bytes do not depend on the block.
    composite_gauss_legendre starts from about U/2 equal panels and
    doubles them until two successive integrals agree within 1e-11 at
    every grid point, an absolute error target on the integral; past
    its node cap it raises NonConvergence.  A grid point whose angle
    U * |x| overflows raises ValueError before any rule runs.  Results
    are clipped to [0, 1] and made monotone by a running maximum, so
    x_grid must be nondecreasing.
    """
    return _invert_laws(charfn, x_grid, smoothing)


def _invert_laws(phis, x_grid, smoothing: float) -> np.ndarray:
    """cdf_from_charfn for one law, or a row for each law when phis(u) has
    a row per law: one probe call, then one rule and angle table for all
    where all pick the same U, or each law alone; each row keeps its bytes."""
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if not np.isfinite(x_grid).all() or (np.diff(x_grid) < 0).any():
        raise ValueError("x_grid must be finite and nondecreasing")
    _check_smoothing(smoothing)

    def phi(u):
        out = phis(u)
        if smoothing:
            out = out * np.exp(-0.5 * (smoothing * u) ** 2)
        return out

    # U = 2^j for the least j, the count of leading failures, whose five probes
    # 2^j (1 + i/16) all have |phi| <= 1e-12 (a nan passes), all in one call
    peak = np.abs(phi(_PROBES.ravel())).reshape(-1, *_PROBES.shape).max(axis=2)
    j = np.logical_and.accumulate(peak > 1e-12, axis=1).sum(axis=1)
    if (j != j[0]).any():
        return np.array([_invert_laws(lambda u, i=i: phis(u)[i], x_grid, smoothing)
                         for i in range(len(j))])
    if j[0] == len(_PROBES):
        raise TruncationFailure(
            "|charfn| does not decay below 1e-12 by 1e6; "
            "set a smoothing width for laws with atoms")
    U = float(_PROBES[j[0], 0])

    if not math.isfinite(U * float(np.abs(x_grid).max(initial=0.0))):
        raise ValueError(f"x_grid is too large: the angle U * max|x| overflows at U = {U}")
    integral = composite_gauss_legendre(
        lambda u, w: _inversion_sum(x_grid, u, phi(u) * w / u), 0.0, U, 1e-11,
        panels=max(1, int(U) // 2))
    out = 0.5 - integral / math.pi
    return np.maximum.accumulate(np.clip(out, 0.0, 1.0), axis=-1)


# ---------------------------------------------------------------------------
# exponential of an infinitely divisible process


@dataclass(frozen=True)
class LevyModelParams(_RateModel):
    """S_t = s exp(mu t + sigma L_t) with L infinitely divisible
    (Kolmogorov form at unit time) and mu = r - log E e^{sigma L_1},
    which makes the discounted stock a martingale.  The drift, the law of
    L_t and its sigma-tilt are computed once per object, on first use."""

    base: KolmogorovLaw

    @cached_property
    def drift(self) -> float:
        return self.r - self.base.log_mgf(self.sigma)

    @cached_property
    def law_t(self) -> KolmogorovLaw:
        return self.base.scale_time(self.t)

    @cached_property
    def tilted_law_t(self) -> KolmogorovLaw:
        return self.law_t.tilt(self.sigma)


def levy_put(params: LevyModelParams, k: float, smoothing: float = 0.0) -> float:
    """Forward value E (k - S_t)^+ = k P(S_t <= k) - s e^{rt} P(S*_t <= k).

    The starred law is the sigma-tilt of the time-t law; both
    probabilities come from characteristic function inversion at the
    log-moneyness threshold.  With the standard normal base this equals
    the lognormal put value.

    The two laws share their nodes, so one probe call and, where both
    pick the same U, one rule at a time serve both: kernels K_u(x_i) and
    angles are computed once, and each law stops at its own first settled
    rule.  Only the model's constants outlive the call: a memo of rules
    or kernels would answer repeated puts from memory, and a benchmark
    that repeats them would time lookups instead of inversions.
    ValueError unless k is finite and the smoothing finite and >= 0, at
    every strike; a strike k <= 0 is worth 0.  A threshold whose angle
    U * |threshold| overflows in the inversion raises ValueError too.
    """
    _check_strike(k)
    _check_smoothing(smoothing)
    if k <= 0.0:
        return 0.0
    threshold = (math.log(k / params.s) - params.drift * params.t) / params.sigma
    law_t = params.law_t

    def phis(u):
        kernels = _kernel(u, law_t.nodes)
        return np.array([np.exp(law._exponent(u, kernels)) for law in (law_t, params.tilted_law_t)])

    p_plain, p_tilted = _invert_laws(phis, [threshold], smoothing)[:, 0]
    return float(k * p_plain - params.forward * p_tilted)
