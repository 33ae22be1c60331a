"""Hashes of deterministic outputs whose products a BLAS kernel could round.

Run as a script, it prints one line "<quantity> <sha256>" per quantity,
then "all <sha256>" over those lines.  test_blas_boundary runs it under
several OPENBLAS_CORETYPE settings and requires one hash.  Every input
is drawn from a seeded generator and built by elementwise code or
np.einsum, never by a BLAS product, so the inputs are the same under
every kernel; only the package's own products could tell them apart.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np

from deflator import OnePeriodMarket, cli, cone
from deflator.cone import DEFAULT_TOL, Deflator, project_to_cone, verify_position
from deflator.filtration import Algebra, FAMeasure, SimpleFunction, pairing
from deflator.models import KolmogorovLaw, LevyModelParams, cdf_from_charfn, levy_put
from deflator.one_period import least_squares_hedge, realized_return
from deflator.rates import HoLeeParams, futures_convexity, ho_lee_discount


def levy():
    """Puts, a 200-point cdf, the cdf of a pure-jump law smoothed by 1e-3
    (U = 2^13, rules of thousands of panels) and the CLI's 33-point put
    checks, whose thresholds are the Gauss-Legendre nodes of (0, k)."""
    base = KolmogorovLaw(mean=0.0, nodes=np.array([0.0, -0.3, 0.2, 0.45]),
                         weights=np.array([0.05, 0.03, 0.01, 0.02]))
    params = LevyModelParams(r=0.03, s=100.0, sigma=0.25, t=1.0, base=base)
    puts = [levy_put(params, k) for k in (70.0, 85.0, 97.0, 100.0, 112.0, 130.0)]
    cdf = cdf_from_charfn(base.charfn, np.linspace(-1.0, 1.0, 200))
    jumps = KolmogorovLaw(mean=0.0, nodes=base.nodes[1:], weights=base.weights[1:])
    smoothed = cdf_from_charfn(jumps.charfn, np.linspace(-1.0, 1.0, 33), smoothing=1e-3)
    checks = [cli._levy_put_quadrature(replace(params, base=law), k, 0.0)
              for law in (base, KolmogorovLaw.standard_normal()) for k in (85.0, 100.0, 112.0)]
    return np.array(puts), cdf, smoothed, np.array(checks)


def ho_lee():
    wavy = HoLeeParams(phi=lambda s: 0.02 + 0.01 * math.sin(3.0 * s) + 0.004 * s * s,
                       sigma=0.012)
    cubic = HoLeeParams(phi=lambda s: 0.03 + 0.02 * s - 0.001 * s ** 3,
                        sigma=lambda s: 0.01 + 0.002 * s, Sigma=lambda s: 0.01 * s + 0.001 * s * s)
    return np.array([ho_lee_discount(params, t, u, b) for params in (wavy, cubic)
                     for t, u, b in ((0.0, 1.0, 0.0), (0.5, 2.5, 0.3), (1.0, 7.0, -0.8),
                                     (0.0, 30.0, 0.1), (2.0, 12.0, 0.5))])


def pairings(rng):
    algebra = Algebra(np.arange(400) % 40)
    n = algebra.n_blocks
    f = SimpleFunction(algebra, rng.normal(size=n))
    g = SimpleFunction(algebra, rng.normal(size=(n, 5)))
    mu, nu = FAMeasure(algebra, rng.random(n)), FAMeasure(algebra, rng.random((n, 5)))
    samples = rng.lognormal(size=(2, 500))
    return (np.array([pairing(f, mu), pairing(g, nu),
                      futures_convexity(samples[0], 1.0 / samples[1]),
                      futures_convexity(samples[0], 1.0 / samples[1], rng.random(500))]),
            pairing(g, mu), pairing(f, nu))


def positions(rng):
    out = []
    for _ in range(50):
        n, m = int(rng.integers(20, 401)), int(rng.integers(4, 31))
        market = OnePeriodMarket(prices=rng.normal(size=m),
                                 payoffs=rng.normal(size=(n, m)) * rng.lognormal(size=m))
        gamma = rng.normal(size=m)
        report = verify_position(market, gamma)
        out += [np.array([report.cost, report.min_payoff, report.is_arbitrage]),
                realized_return(market, gamma)]
    return out


def hedge(rng):
    n, m = 4000, 6
    payoffs = np.abs(rng.normal(size=(n, m))) * rng.lognormal(size=m)
    pi = rng.random(n) / n
    market = OnePeriodMarket(prices=np.einsum("ij,i->j", payoffs, pi), payoffs=payoffs)
    result = least_squares_hedge(market, Deflator(pi), np.maximum(payoffs[:, 1] - 1.0, 0.0))
    return result.gamma, np.array([result.least_squared_error, result.hedge_cost])


def direct_projections(rng):
    """project_to_cone on bond-and-stock markets of 32-300 outcomes priced
    by a positive mix of the highest and lowest stock payoff, each one
    decided by _solve_direct."""
    out = []
    for _ in range(200):
        n = int(rng.integers(32, 301))
        payoffs = np.stack([np.full(n, 1.05), rng.lognormal(size=n)], axis=1)
        u, v = np.argmax(payoffs[:, 1]), np.argmin(payoffs[:, 1])
        prices = np.einsum("i,ij->j", rng.random(2), payoffs[[u, v]])
        resid = cone._solve_direct(payoffs, np.arange(n)[None], prices[None])[1]
        assert resid[0] <= cone._threshold(prices, DEFAULT_TOL)
        projection = project_to_cone(OnePeriodMarket(prices=prices, payoffs=payoffs))
        assert projection.certificate is None
        out.append(np.concatenate([projection.weights, projection.x_star,
                                   [projection.residual_norm]]))
    return out


def certificates(rng):
    """Certificates of planted arbitrages of 320-9,000 payoff entries,
    from the planted weights and the cone._factor of their rows by
    cone._projection: rows 0..s-1 price x* with weights > 0 and pay 0 on
    the unit direction g, the others pay more than 0 on it, and the
    prices are x* - d g, so x* is their projection.  The solver, whose
    weights and factor may follow the kernel, does not run."""
    out = []
    for _ in range(20):
        n, m = int(rng.integers(40, 301)), int(rng.integers(8, 31))
        s = int(rng.integers(m // 2, m))
        g = rng.normal(size=m)
        g /= np.sqrt(np.einsum("i,i->", g, g))
        payoffs = rng.normal(size=(n, m)) * rng.lognormal(size=m)
        along = np.einsum("ij,j->i", payoffs, g)
        payoffs[:s] -= along[:s, None] * g
        payoffs[s:] *= np.sign(along[s:])[:, None]
        weights = np.zeros(n)
        weights[:s] = rng.random(s)
        prices = np.einsum("i,ij->j", weights, payoffs) - rng.lognormal() * g
        rel = 10.0 * np.finfo(float).eps * n
        Qt, _, went = cone._factor(payoffs[:s], rel * np.linalg.norm(payoffs[:s], axis=1))
        basis = Qt[0, :went.sum()]
        certificate = cone._projection(payoffs, prices, weights, basis).certificate
        out += [certificate.gamma, np.array([certificate.setup_gain, certificate.min_payoff])]
    return out


def small_solves(rng):
    """_nnls_stack's weights and residuals on stacks of problems under 64
    payoff entries, whose products are cone._EINSUM's: the solver path
    of every golden's node."""
    out = []
    for _ in range(200):
        p, m = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        k = int(rng.integers(1, 63 // m + 1))
        A = rng.normal(size=(p, m, k)) * rng.lognormal(size=k)
        b = rng.normal(size=(p, m))
        out += cone._nnls_stack(np.abs(A) if rng.random() < 0.5 else A, b)[:2]
    return out


def main():
    rng = np.random.default_rng(2028)
    quantities = {"levy": levy(), "ho_lee": ho_lee(), "pairing": pairings(rng),
                  "positions": positions(rng), "hedge": hedge(rng),
                  "direct_projections": direct_projections(rng),
                  "certificates": certificates(rng), "small_solves": small_solves(rng)}
    lines = []
    for name, arrays in quantities.items():
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        lines.append(f"{name} {digest.hexdigest()}")
    lines.append("all " + hashlib.sha256("\n".join(lines).encode()).hexdigest())
    print("\n".join(lines))


if __name__ == "__main__":
    main()
