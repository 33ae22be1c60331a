"""Reference values computed apart from the deflator package.

Every function here uses only the standard library, numpy and, for the
cone distance, scipy.optimize.nnls.  None of them calls into deflator,
so a benchmark check that compares program output with these values
compares two independent computations.  scipy is imported lazily so
that importing this module costs nothing during a timed set-up.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_cdf(x):
    """Standard normal distribution function, Phi(x) = erfc(-x/sqrt 2)/2."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) / SQRT2)
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / SQRT2).astype(float)


def norm_pdf(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


# ---------------------------------------------------------------------------
# closed-form model prices


def bachelier_put(R: float, s: float, sigma: float, k: float) -> tuple[float, float]:
    """Time-0 put and its delta when S = R s (1 + sigma Z)."""
    z = (k / (R * s) - 1.0) / sigma
    return (k / R - s) * norm_cdf(z) + s * sigma * norm_pdf(z), -norm_cdf(z)


def bachelier_hedge(R: float, s: float, sigma: float, k: float) -> dict:
    """Least-squares stock hedge of the call (S - k)^+ at the money,
    k = R s, where every moment has a closed form."""
    if abs(k - R * s) > 1e-12 * k:
        raise ValueError("closed-form hedge moments are for the money only")
    sd = R * s * sigma
    mean_v = sd * INV_SQRT_2PI
    shares = 0.5
    return {"gamma": [(mean_v - shares * R * s) / R, shares],
            "hedge_cost": mean_v / R,
            "corr": 1.0 / math.sqrt(2.0 - 2.0 / math.pi),
            "least_squared_error": sd * sd * (0.25 - 0.5 / math.pi) / R}


def black_scholes_forward_put(forward: float, k: float, v: float) -> float:
    """E (k - F e^{v Z - v^2/2})^+ for total volatility v."""
    d2 = (math.log(forward / k) - 0.5 * v * v) / v
    return k * norm_cdf(-d2) - forward * norm_cdf(-d2 - v)


def gbm_put(r: float, s: float, sigma: float, t: float, k: float) -> dict:
    """Forward value, present value, delta and gamma of the lognormal put."""
    forward = s * math.exp(r * t)
    v = sigma * math.sqrt(t)
    d1 = (math.log(forward / k) + 0.5 * v * v) / v
    fv = black_scholes_forward_put(forward, k, v)
    return {"forward_value": fv, "pv": math.exp(-r * t) * fv,
            "delta": -norm_cdf(-d1), "gamma": norm_pdf(d1) / (s * v)}


# ---------------------------------------------------------------------------
# laws with jumps as Poisson mixtures of normals


class PoissonMixture:
    """The infinitely divisible law with characteristic exponent

        i u mean - u^2 var / 2 + sum_i w_i (e^{i u x_i} - 1 - i u x_i) / x_i^2,

    written as X = mean + G + sum_i x_i (N_i - lam_i) with G ~ N(0, var)
    and independent N_i ~ Poisson(lam_i), lam_i = w_i / x_i^2.  Its
    distribution function and its puts are finite sums over the jump
    counts, cut once the Poisson mass left out is below `mass_tol`.
    """

    def __init__(self, mean, var, jump_nodes=(), jump_weights=(),
                 mass_tol=1e-15):
        x = np.asarray(jump_nodes, dtype=float)
        w = np.asarray(jump_weights, dtype=float)
        if var <= 0 or (x == 0).any() or x.shape != w.shape:
            raise ValueError("need a Gaussian part and nonzero jump nodes")
        self.mean, self.var = float(mean), float(var)
        lam = w / x ** 2
        axes = []
        for rate in lam:
            p = [math.exp(-rate)]
            while 1.0 - sum(p) > mass_tol / len(lam):
                p.append(p[-1] * rate / len(p))
            axes.append(p)
        self.weights = np.ones(1)
        self.centres = np.full(1, self.mean - float(lam @ x))
        for node, p in zip(x, axes):
            counts = np.arange(len(p))
            self.weights = np.outer(self.weights, p).ravel()
            self.centres = np.add.outer(self.centres, node * counts).ravel()

    def cdf(self, grid) -> np.ndarray:
        z = (np.asarray(grid, dtype=float)[:, None] - self.centres) / math.sqrt(self.var)
        return norm_cdf(z) @ self.weights


def levy_forward_put(r, s, sigma, t, mean, var, jump_nodes, jump_weights,
                     k) -> float:
    """E (k - S_t)^+ for S_t = s exp(mu t + sigma L_t), where L is the
    Levy process whose time-1 law is the Poisson mixture with these
    parameters and mu = r - log E e^{sigma L_1}.  Given the jump counts
    S_t is lognormal, so the put is a finite sum of Black-Scholes puts."""
    x = np.asarray(jump_nodes, dtype=float)
    w = np.asarray(jump_weights, dtype=float)
    log_mgf = (mean * sigma + 0.5 * sigma ** 2 * var
               + float(w @ ((np.exp(sigma * x) - 1.0 - sigma * x) / x ** 2)))
    law_t = PoissonMixture(t * mean, t * var, x, t * w)
    v = sigma * math.sqrt(t * var)
    total = 0.0
    for weight, centre in zip(law_t.weights, law_t.centres):
        forward = s * math.exp((r - log_mgf) * t + sigma * centre + 0.5 * v * v)
        total += weight * black_scholes_forward_put(forward, k, v)
    return total


# ---------------------------------------------------------------------------
# binomial trees


def crr_q(R: float, up: float, down: float) -> float:
    """Risk-neutral up probability of one step with gross rate R."""
    return (R - down) / (up - down)


def crr_weights(R: float, up: float, down: float, k: int) -> np.ndarray:
    """Deflator weights R^-k q^a (1-q)^(k-a) of the 2^k nodes at time k,
    node b having a = popcount(b) up moves."""
    q = crr_q(R, up, down)
    ups = np.array([bin(b).count("1") for b in range(2 ** k)], dtype=float)
    return R ** -k * q ** ups * (1.0 - q) ** (k - ups)


def crr_call(R: float, s: float, up: float, down: float, n: int, strike: float) -> float:
    """Time-0 price of (S_n - strike)^+ on the n-step binomial tree."""
    q = crr_q(R, up, down)
    return sum(math.comb(n, a) * q ** a * (1.0 - q) ** (n - a)
               * max(s * up ** a * down ** (n - a) - strike, 0.0)
               for a in range(n + 1)) / R ** n


def two_state_weights(x, rows) -> np.ndarray:
    """The unique weights w >= 0 with rows.T @ w = x for two outcomes and
    two instruments, by Cramer's rule; rows has shape (..., 2, 2)."""
    rows = np.asarray(rows, dtype=float)
    x = np.asarray(x, dtype=float)
    a, b = rows[..., 0, 0], rows[..., 1, 0]     # first instrument
    c, d = rows[..., 0, 1], rows[..., 1, 1]     # second instrument
    det = a * d - b * c
    return np.stack([(x[..., 0] * d - b * x[..., 1]) / det,
                     (a * x[..., 1] - x[..., 0] * c) / det], axis=-1)


def binary_tree_weights(levels) -> list[np.ndarray]:
    """Deflator weights of a complete two-instrument binary tree.

    levels[j] holds the (2^j, 2) prices (cash flow included) at time j,
    and node b at time j has children 2b and 2b+1.  Each node's two
    conditional weights solve its 2x2 pricing system; the weights at a
    node multiply along its path."""
    weights = [np.ones(1)]
    for j in range(len(levels) - 1):
        rows = levels[j + 1].reshape(-1, 2, 2)
        local = two_state_weights(levels[j], rows)
        weights.append((weights[-1][:, None] * local).ravel())
    return weights


def tree_repricing_gap(levels, weights, branching: int) -> float:
    """Largest |w_b x_b - sum_c w_c x_c| / (w_b (1 + ||x_b||)) over nodes b,
    where node b at time j has children branching*b + 0..branching-1.
    A node of weight zero must have children of weight zero."""
    worst = 0.0
    for j in range(len(levels) - 1):
        x, w = levels[j], weights[j]
        children = levels[j + 1].reshape(x.shape[0], branching, -1)
        priced = np.einsum("bc,bcm->bm", weights[j + 1].reshape(x.shape[0], branching),
                           children)
        miss = np.abs(priced - w[:, None] * x).max(axis=1)
        scale = w * (1.0 + np.linalg.norm(x, axis=1))
        live = w > 0
        if (miss[~live] > 0).any():
            return math.inf
        if live.any():
            worst = max(worst, float((miss[live] / scale[live]).max()))
    return worst


# ---------------------------------------------------------------------------
# one-period cones


def cone_distance(prices, payoffs) -> float:
    """Euclidean distance from prices to the cone of payoff rows."""
    from scipy.optimize import nnls
    A = np.asarray(payoffs, dtype=float).T
    return float(nnls(A, np.asarray(prices, dtype=float), maxiter=50 * A.shape[1])[1])


def position_is_arbitrage(prices, payoffs, gamma, rel_tol=1e-12) -> bool:
    """Does gamma cost less than zero and pay at least zero everywhere,
    up to rounding of rel_tol times the payoff scale?"""
    payoffs = np.asarray(payoffs, dtype=float)
    cost = float(np.dot(gamma, prices))
    scale = float(np.abs(payoffs).max()) * float(np.abs(gamma).max())
    return cost < 0.0 and float((payoffs @ gamma).min()) >= -rel_tol * scale


# ---------------------------------------------------------------------------
# discount curves


def read_curve(text: str) -> dict[float, float]:
    """maturity -> discount factor from '(maturity, discount)' lines."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            t, d = line.strip("()").split(",")
            out[float(t)] = float(d)
    return out


def _discount(curve, t):
    return 1.0 if t == 0.0 and t not in curve else curve[t]


def annuity(curve, times, fractions) -> float:
    return sum(f * _discount(curve, t) for f, t in zip(fractions, times[1:]))


def par_coupon(curve, times, fractions) -> float:
    return (1.0 - _discount(curve, times[-1])) / annuity(curve, times, fractions)


def swap_rate(curve, times, fractions) -> float:
    return ((_discount(curve, times[0]) - _discount(curve, times[-1]))
            / annuity(curve, times, fractions))


def forward_rate(curve, t_start, t_end, fraction) -> float:
    return (_discount(curve, t_start) / _discount(curve, t_end) - 1.0) / fraction


def bond_price(curve, times, fractions, coupon) -> float:
    return coupon * annuity(curve, times, fractions) + _discount(curve, times[-1])
