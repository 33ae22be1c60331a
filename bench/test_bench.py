"""Fast tests of the benchmark's oracles and input builders.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The oracles are checked against closed forms, brute-force enumeration
and plain numerical integration, never against the deflator package.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent


def trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def test_norm_cdf_known_values():
    assert oracles.norm_cdf(0.0) == 0.5
    assert abs(oracles.norm_cdf(1.959963984540054) - 0.975) < 1e-15
    grid = np.linspace(-8, 8, 33)
    assert np.allclose(oracles.norm_cdf(grid) + oracles.norm_cdf(-grid), 1.0, atol=1e-16)


def test_bachelier_put_at_the_money_and_by_integration():
    R, s, sigma = 1.05, 100.0, 0.2
    put, delta = oracles.bachelier_put(R, s, sigma, R * s)
    assert abs(put - s * sigma / math.sqrt(2 * math.pi)) < 1e-13
    assert delta == -0.5
    k = 97.0
    x = np.linspace(R * s * (1 - 12 * sigma), R * s * (1 + 12 * sigma), 400001)
    density = np.exp(-0.5 * ((x / (R * s) - 1) / sigma) ** 2) / (R * s * sigma * math.sqrt(2 * math.pi))
    numeric = trapezoid(np.maximum(k - x, 0.0) * density, x) / R
    assert abs(oracles.bachelier_put(R, s, sigma, k)[0] - numeric) < 1e-8


def test_bachelier_hedge_moments_by_integration():
    R, s, sigma = 1.05, 100.0, 0.2
    f, sd = R * s, R * s * sigma
    want = oracles.bachelier_hedge(R, s, sigma, f)
    x = np.linspace(f - 12 * sd, f + 12 * sd, 400001)
    p = np.exp(-0.5 * ((x - f) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    v = np.maximum(x - f, 0.0)
    mean_v = trapezoid(v * p, x)
    cov = trapezoid((x - f) * v * p, x)
    var_v = trapezoid((v - mean_v) ** 2 * p, x)
    assert abs(want["gamma"][1] - cov / sd ** 2) < 1e-9
    assert abs(want["hedge_cost"] - mean_v / R) < 1e-8
    assert abs(want["corr"] - cov / math.sqrt(sd ** 2 * var_v)) < 1e-9
    assert abs(want["least_squared_error"] - (var_v - cov ** 2 / sd ** 2) / R) < 1e-6


def test_black_scholes_put_by_integration_and_greeks():
    r, s, sigma, t, k = 0.05, 100.0, 0.2, 2.0, 100.0
    got = oracles.gbm_put(r, s, sigma, t, k)
    v, f = sigma * math.sqrt(t), s * math.exp(r * t)
    z = np.linspace(-12, 12, 400001)
    payoff = np.maximum(k - f * np.exp(v * z - 0.5 * v * v), 0.0)
    numeric = trapezoid(payoff * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), z)
    assert abs(got["forward_value"] - numeric) < 1e-8
    h = 1e-3
    up, down = (oracles.gbm_put(r, s + d, sigma, t, k)["pv"] for d in (h, -h))
    assert abs(got["delta"] - (up - down) / (2 * h)) < 1e-7
    assert abs(got["gamma"] - (up - 2 * got["pv"] + down) / h ** 2) < 1e-5


def test_poisson_mixture_without_jumps_is_normal():
    law = oracles.PoissonMixture(0.3, 4.0)
    grid = np.linspace(-5, 5, 11)
    assert np.allclose(law.cdf(grid), oracles.norm_cdf((grid - 0.3) / 2.0), atol=1e-16)


def test_poisson_mixture_moments_and_inversion():
    nodes, weights = [-0.3, 0.2, 0.45], [0.03, 0.01, 0.02]
    law = oracles.PoissonMixture(0.1, 0.05, nodes, weights)
    assert abs(law.weights.sum() - 1.0) < 1e-14
    assert abs(law.weights @ law.centres - 0.1) < 1e-14
    variance = law.weights @ (law.centres - 0.1) ** 2 + 0.05
    assert abs(variance - (0.05 + sum(weights))) < 1e-13
    # Gil-Pelaez inversion of the characteristic exponent, by trapezoid in u
    u = np.linspace(1e-9, 120.0, 600001)
    x, w = np.array(nodes), np.array(weights)
    iu = 1j * u[:, None]
    exponent = 0.1j * u - 0.025 * u ** 2 + ((np.exp(iu * x) - 1 - iu * x) / x ** 2) @ w
    phi = np.exp(exponent)
    for y in (-0.6, -0.1, 0.1, 0.4):
        integrand = (np.exp(-1j * u * y) * phi).imag / u
        assert abs(law.cdf([y])[0] - (0.5 - trapezoid(integrand, u) / math.pi)) < 1e-7


def test_levy_put_oracle():
    no_jumps = oracles.levy_forward_put(0.05, 100.0, 0.2, 2.0, 0.0, 1.0, [], [], 100.0)
    assert abs(no_jumps - oracles.gbm_put(0.05, 100.0, 0.2, 2.0, 100.0)["forward_value"]) < 1e-12
    # E (k - S)^+ = integral over (0, k) of P(S <= y) dy, with the mixture cdf
    r, s, sigma, t, k = 0.03, 100.0, 0.25, 1.0, 95.0
    nodes, weights = [-0.3, 0.2, 0.45], [0.03, 0.01, 0.02]
    x, w = np.array(nodes), np.array(weights)
    log_mgf = 0.5 * sigma ** 2 * 0.05 + float(w @ ((np.exp(sigma * x) - 1 - sigma * x) / x ** 2))
    law = oracles.PoissonMixture(0.0, 0.05 * t, nodes, [t * a for a in weights])
    y = np.linspace(1e-6, k, 20001)
    cdf = law.cdf((np.log(y / s) - (r - log_mgf) * t) / sigma)
    numeric = trapezoid(cdf, y)
    got = oracles.levy_forward_put(r, s, sigma, t, 0.0, 0.05, nodes, weights, k)
    assert abs(got - numeric) < 1e-6


def test_crr_weights_and_call_by_path_enumeration():
    R, up, down, n, s, k = 1.03, 1.2, 0.9, 6, 100.0, 105.0
    q = oracles.crr_q(R, up, down)
    for j in range(n + 1):
        assert abs(oracles.crr_weights(R, up, down, j).sum() - R ** -j) < 1e-15
    brute = 0.0
    for path in range(2 ** n):
        a = bin(path).count("1")
        brute += q ** a * (1 - q) ** (n - a) * max(s * up ** a * down ** (n - a) - k, 0.0)
    assert abs(oracles.crr_call(R, s, up, down, n, k) - brute / R ** n) < 1e-12


def crr_levels(R, s, up, down, n):
    levels = []
    for j in range(n + 1):
        ups = np.array([bin(b).count("1") for b in range(2 ** j)])
        levels.append(np.column_stack([np.full(2 ** j, R ** j), s * up ** ups * down ** (j - ups)]))
    return levels


def test_binary_tree_weights_are_crr_and_reprice():
    R, up, down, n = 1.03, 1.2, 0.9, 5
    levels = crr_levels(R, 100.0, up, down, n)
    weights = oracles.binary_tree_weights(levels)
    for j, w in enumerate(weights):
        assert np.allclose(w, oracles.crr_weights(R, up, down, j), rtol=1e-13, atol=0)
    assert oracles.tree_repricing_gap(levels, weights, 2) < 1e-14
    bad = [w.copy() for w in weights]
    bad[3][2] *= 1.01
    assert oracles.tree_repricing_gap(levels, bad, 2) > 1e-4
    x = np.array([2.0, 3.0])
    rows = np.array([[1.0, 1.0], [1.0, 4.0]])
    assert np.allclose(rows.T @ oracles.two_state_weights(x, rows), x)


def test_cone_distance_and_planted_positions():
    payoffs = np.array([[1.0, 0.0], [0.0, 1.0]])      # the cone is the orthant
    assert oracles.cone_distance([1.0, 2.0], payoffs) == 0.0
    assert abs(oracles.cone_distance([-1.0, 2.0], payoffs) - 1.0) < 1e-15
    assert oracles.position_is_arbitrage([-1.0, 2.0], payoffs, [1.0, 0.0])
    assert not oracles.position_is_arbitrage([1.0, 2.0], payoffs, [1.0, 0.0])
    assert not oracles.position_is_arbitrage([-1.0, 2.0], payoffs, [1.0, -1.0])


def test_curve_oracles():
    curve = oracles.read_curve("# comment\n(0.5, 0.99)\n(1.0, 0.975)\n")
    times, fractions = [0.0, 0.5, 1.0], [0.5, 0.5]
    c = oracles.par_coupon(curve, times, fractions)
    assert abs(oracles.bond_price(curve, times, fractions, c) - 1.0) < 1e-15
    assert oracles.swap_rate(curve, times, fractions) == c
    assert abs(oracles.forward_rate(curve, 0.5, 1.0, 0.5) - (0.99 / 0.975 - 1) / 0.5) < 1e-15


def test_cli_cases_are_the_golden_cases():
    deflator = pytest.importorskip("deflator")
    assert deflator
    import workloads
    spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert workloads.CLI_CASES == module.CASES


def test_option_chains_are_built_as_stated():
    pytest.importorskip("deflator")
    import workloads
    rng = np.random.default_rng(3)
    fair = workloads.option_chain(rng, rng, planted=False)
    x, X = fair.market.prices, fair.market.payoffs
    assert X.shape == (workloads.N_OUTCOMES, 2 + 2 * workloads.N_STRIKES)
    assert oracles.cone_distance(x, X) < 1e-9
    planted = workloads.option_chain(rng, rng, planted=True)
    x, X = planted.market.prices, planted.market.payoffs
    assert oracles.position_is_arbitrage(x, X, planted.planted)
    assert abs(X @ planted.planted).max() < 1e-9 * np.abs(X).max()
    shift = -(planted.planted @ x)
    assert oracles.cone_distance(x, X) >= shift / np.linalg.norm(planted.planted) * (1 - 1e-9)
