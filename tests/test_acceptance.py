"""Release acceptance battery.

Each test covers one numbered criterion from the acceptance checklist
and, when it passes, reports a single line with the tolerance it was
held to.  A failure surfaces as an ordinary pytest failure, so the
battery reads as one pass/fail line per criterion either way.  The
constructions here deliberately re-derive their oracles rather than
importing helpers from the unit test modules; the closed-form binomial
oracle and the parity and carry markets come from the shared
``_fixtures``.
"""

import math
import pathlib

import numpy as np
import pytest

from deflator import (
    BachelierParams,
    DeflatorSequence,
    GBMParams,
    HoLeeParams,
    KolmogorovLaw,
    LevyModelParams,
    NodeArbitrage,
    OnePeriodMarket,
    Schedule,
    ShortRateProcess,
    SimpleFunction,
    Strategy,
    atm_call_correlation,
    bachelier_put,
    binary_tree_filtration,
    binomial_stock_panel,
    bond_price,
    check_deflator,
    deflator_from_projection,
    deflators_from_short_rate,
    DiscountCurve,
    FAMeasure,
    find_arbitrage,
    find_tree_deflator,
    floating_leg_value,
    forward_rate,
    gbm_put,
    ho_lee_convexity,
    ho_lee_discount,
    ho_lee_stochastic_discount,
    is_arbitrage_strategy,
    levy_put,
    pairing,
    par_coupon,
    project_to_cone,
    propagate_prices,
    replication_cost,
    restrict,
    swap_par,
    verify_position,
)
from deflator.cli import main

from _fixtures import binomial_price, parity_and_carry_fixtures

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print(line)
    return _say


def normal_expectation(f, mean, std, kinks=(), n=160, width=14.0):
    """E f(N(mean, std^2)) by Gauss-Legendre panels split at the kinks,
    so piecewise-smooth payoffs integrate to machine precision."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    lo, hi = mean - width * std, mean + width * std
    edges = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        x = 0.5 * (b - a) * xg + 0.5 * (a + b)
        pdf = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        total += 0.5 * (b - a) * float(wg @ (f(x) * pdf))
    return total


def butterfly_market():
    omegas = np.array([90.0, 95.0, 100.0, 105.0, 110.0])
    payoffs = np.column_stack([
        np.ones_like(omegas), omegas, np.maximum(omegas - 100.0, 0.0)])
    return OnePeriodMarket(prices=np.array([1.0, 100.0, 6.0]), payoffs=payoffs)


def test_criterion_01_cheap_butterfly(announce):
    market = butterfly_market()
    assert find_arbitrage(market) is not None
    report = verify_position(market, np.array([-90.0, 1.0, -2.0]))
    assert report.is_arbitrage
    assert report.cost == pytest.approx(-2.0, abs=1e-9)
    assert report.min_payoff == pytest.approx(0.0, abs=1e-9)
    announce("criterion 01 PASS  bond/stock/call butterfly: position "
             "(-90, 1, -2) costs -2 with payoff floor 0 (tol 1e-9)")


def test_criterion_02_overpriced_call(announce):
    omegas = np.arange(90.0, 111.0, 5.0)
    payoffs = np.column_stack([omegas, np.maximum(omegas - 100.0, 0.0)])
    market = OnePeriodMarket(prices=np.array([100.0, 9.1]), payoffs=payoffs)
    assert find_arbitrage(market) is not None
    report = verify_position(market, np.array([1.0, -11.0]))
    assert report.is_arbitrage
    assert report.cost == pytest.approx(-0.1, abs=1e-9)
    assert report.min_payoff >= -1e-9
    announce("criterion 02 PASS  stock at 100 vs call at 9.1: position "
             "(1, -11) costs -0.1, no losing outcome (tol 1e-9)")


def test_criterion_03_dichotomy_on_random_markets(announce):
    rng = np.random.default_rng(2026_08)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        m = rng.integers(1, 6)
        n = rng.integers(m, 13)
        payoffs = rng.normal(size=(n, m)) * rng.lognormal(size=(n, m))
        if rng.random() < 0.5:
            prices = payoffs.T @ rng.uniform(0.0, 1.0, size=n)
        else:
            prices = rng.normal(size=m) * 10.0
        market = OnePeriodMarket(prices=prices, payoffs=payoffs)
        certificate = find_arbitrage(market)
        deflator = deflator_from_projection(project_to_cone(market))
        assert (certificate is None) != (deflator is None)
        seen[certificate is None] += 1
        if certificate is not None:
            assert verify_position(market, certificate.gamma, tol=1e-7).is_arbitrage
        else:
            repriced = market.payoffs.T @ deflator.atom_weights
            assert np.all(np.abs(repriced - prices) <= 1e-9 * (1.0 + np.abs(prices)))
    assert min(seen.values()) > 100       # both branches must be exercised
    announce("criterion 03 PASS  1000 random markets (m<=5, N<=12): exactly "
             f"one verdict each, {seen[False]} certificates verified, "
             f"{seen[True]} deflators reprice (rel tol 1e-9)")


def test_criterion_04_binomial_oracle(announce):
    rng = np.random.default_rng(4096)
    for _ in range(100):
        d = rng.uniform(0.5, 0.95)
        u = rng.uniform(1.05, 1.6)
        R = rng.uniform(d, u)
        s = rng.uniform(10.0, 200.0)
        slope, level, k = rng.uniform(-1, 2), rng.uniform(-50, 50), s * rng.uniform(0.8, 1.3)
        payoff = lambda x: slope * x + level + 3.0 * max(x - k, 0.0)
        result = binomial_price(R, s, d, u, payoff)
        market = OnePeriodMarket(prices=np.array([1.0, s]),
                                 payoffs=np.array([[R, s * d], [R, s * u]]))
        deflator = deflator_from_projection(project_to_cone(market))
        assert deflator is not None
        cone_value = float(deflator.atom_weights
                           @ np.array([payoff(s * d), payoff(s * u)]))
        assert abs(cone_value - result["value"]) <= 1e-10
        assert result["shares"] == (payoff(s * u) - payoff(s * d)) / (s * u - s * d)
    announce("criterion 04 PASS  100 random binomial markets: replication "
             "value matches cone-projection pricing (tol 1e-10), "
             "shares exact")


def test_criterion_05_parity_and_carry(announce):
    parity, carry = parity_and_carry_fixtures()
    assert find_arbitrage(parity.market) is None
    assert find_arbitrage(carry.market) is None
    for offset in (0.5, -0.5):
        perturbed, _ = parity_and_carry_fixtures(call_offset=offset)
        assert find_arbitrage(perturbed.market) is not None
    for offset in (2.0, -2.0):
        _, mispriced = parity_and_carry_fixtures(forward_offset=offset)
        assert find_arbitrage(mispriced.market) is not None
    # the no-arbitrage deflator pins the delivery price: the forward is
    # worthless at g = R * (stock value under the weights)
    R, s = 1.1, 100.0
    weights = deflator_from_projection(project_to_cone(carry.market)).atom_weights
    implied = R * float(weights @ carry.market.payoffs[:, 1])
    assert abs(implied - R * s) <= 1e-10 * R * s
    announce("criterion 05 PASS  parity holds, +-0.5 call perturbation "
             "flips the verdict, carry deflator forces f = Rs "
             "(rel tol 1e-10)")


def test_criterion_06_bachelier(announce):
    params = BachelierParams(R=1.05, s=100.0, sigma=0.2)
    f = params.forward
    atm = bachelier_put(params, f).price
    assert atm == pytest.approx(params.s * params.sigma / math.sqrt(2 * math.pi),
                                rel=1e-15)
    for k in np.linspace(0.25 * f, 1.75 * f, 27):
        oracle = normal_expectation(lambda x: np.maximum(k - x, 0.0),
                                    mean=f, std=f * params.sigma,
                                    kinks=(k,)) / params.R
        assert bachelier_put(params, k).price == pytest.approx(oracle, abs=1e-10)
    target = atm_call_correlation()
    for R, s, sigma in [(1.05, 100.0, 0.2), (1.0, 55.0, 0.08), (1.12, 7.0, 0.4)]:
        fwd = R * s
        std = fwd * sigma
        call = lambda x: np.maximum(x - fwd, 0.0)
        mean_c = normal_expectation(call, fwd, std, kinks=(fwd,))
        var_c = normal_expectation(lambda x: (call(x) - mean_c) ** 2, fwd, std,
                                   kinks=(fwd,))
        cov = normal_expectation(lambda x: (x - fwd) * (call(x) - mean_c),
                                 fwd, std, kinks=(fwd,))
        assert cov / math.sqrt(var_c * std * std) == pytest.approx(target, abs=1e-4)
    announce("criterion 06 PASS  ATM put s*sigma/sqrt(2pi) (rel 1e-15), "
             "27-strike grid vs normal quadrature (tol 1e-10), ATM call "
             "correlation 0.8564 at 3 triples (tol 1e-4)")


def test_criterion_07_fair_binomial_panel(announce):
    R, sigma = 1.05, 0.3
    panel = binomial_stock_panel(6, R=R, s=100.0,
                                 mu=math.log(R / math.cosh(sigma)), sigma=sigma)
    deflators = find_tree_deflator(panel)
    assert isinstance(deflators, DeflatorSequence)
    result = check_deflator(panel, deflators, tol=1e-12)
    assert result.ok
    # a small drift above the fair level is an arbitrage at some node
    sigma = 0.005
    drifted = binomial_stock_panel(6, R=R, s=100.0,
                                   mu=math.log(R / math.cosh(sigma)) + 0.01,
                                   sigma=sigma)
    node = find_tree_deflator(drifted)
    assert isinstance(node, NodeArbitrage)
    assert node.certificate.setup_gain > 0.0
    assert node.certificate.min_payoff >= -1e-9
    assert is_arbitrage_strategy(drifted, node.strategy).is_arbitrage
    announce("criterion 07 PASS  fair 6-period binomial passes "
             "check_deflator (tol 1e-12); +0.01 drift yields a node "
             "certificate whose lifted strategy is an arbitrage")


def test_criterion_08_propagation_and_replication(announce):
    rng = np.random.default_rng(88)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        R = rng.uniform(1.01, 1.1)
        sigma = rng.uniform(0.05, 0.5)
        panel = binomial_stock_panel(n, R=R, s=100.0,
                                     mu=math.log(R / math.cosh(sigma)),
                                     sigma=sigma)
        deflators = find_tree_deflator(panel)
        assert isinstance(deflators, DeflatorSequence)
        for j in range(n):
            recovered = propagate_prices(panel, deflators, j, n)
            assert np.abs(recovered.values - panel.prices[j].values).max() <= 1e-10

    R, sigma, strike = 1.05, 0.3, 100.0
    panel = binomial_stock_panel(3, R=R, s=100.0,
                                 mu=math.log(R / math.cosh(sigma)), sigma=sigma)
    deflators = find_tree_deflator(panel)
    filtration = panel.filtration
    values = np.maximum(panel.prices[3].values[:, 1] - strike, 0.0)
    trades = [np.zeros((filtration[j].n_blocks, 2)) for j in range(4)]
    level = values.copy()
    for i in reversed(range(3)):
        child_parent = filtration[i + 1].coarse_block_map(filtration[i])
        settle = panel.prices[i + 1].values
        new_level = np.zeros(filtration[i].n_blocks)
        for b in range(filtration[i].n_blocks):
            children = np.flatnonzero(child_parent == b)
            holding = np.linalg.solve(settle[children], level[children])
            trades[i][b] += holding
            new_level[b] = holding @ panel.prices[i].values[b]
            trades[i + 1][children] -= holding
        level = new_level
    strategy = Strategy([SimpleFunction(filtration[j], trades[j])
                         for j in range(4)])
    result = replication_cost(panel, deflators, strategy)
    assert result.pairing_gap <= 1e-12 * panel.scale()
    assert result.cost.values[0] == pytest.approx(level[0], rel=1e-12)
    direct = pairing(SimpleFunction(filtration[3], values), deflators[3])
    assert result.cost.values[0] == pytest.approx(
        direct / deflators[0].weights[0], rel=1e-12)
    announce("criterion 08 PASS  propagated prices match quotes on 8 random "
             "trees (tol 1e-10); 3-period call replication satisfies the "
             "pairing identity (tol 1e-12) and the backward-induction price")


def test_criterion_09_fixed_income(announce):
    rng = np.random.default_rng(909)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        filtration = binary_tree_filtration(n)
        rates = tuple(
            SimpleFunction(filtration[j],
                           rng.uniform(1.001, 1.2, size=filtration[j].n_blocks))
            for j in range(n))
        base = FAMeasure(filtration[n], rng.uniform(0.1, 2.0, size=2 ** n))
        deflators = deflators_from_short_rate(filtration, ShortRateProcess(rates),
                                              base)
        schedule = Schedule(tuple(float(j) for j in range(n + 1)))
        # the discounted payments telescope to Pi_0 - Pi_n restricted
        target = deflators[0].weights - restrict(deflators[n], filtration[0]).weights
        assert np.abs(floating_leg_value(deflators, schedule) - target).max() <= 1e-12

    for _ in range(20):
        times = np.cumsum(rng.uniform(0.25, 1.5, size=rng.integers(2, 9)))
        times = np.concatenate([[0.0], times])
        discounts = np.exp(-rng.uniform(0.01, 0.08) * times[1:])
        discounts *= np.linspace(1.0, 0.99, discounts.size)
        curve = DiscountCurve(times[1:], discounts)
        schedule = Schedule(tuple(times))
        coupon = par_coupon(curve, schedule)
        assert bond_price(curve, schedule, coupon) == pytest.approx(1.0, abs=1e-12)

    curve = DiscountCurve([1.0, 1.5], [0.96, 0.935])
    schedule = Schedule((1.0, 1.5))
    assert swap_par(curve, schedule) == forward_rate(curve, 0, 0, 1, schedule)

    params = HoLeeParams(phi=lambda t: 0.02 + 0.01 * t, sigma=0.018)
    t = 1.3
    assert ho_lee_convexity(params, t) == pytest.approx(
        0.5 * params.sigma ** 2 * t ** 2, rel=1e-15)
    assert ho_lee_convexity(params, 2 * t) == pytest.approx(
        4.0 * ho_lee_convexity(params, t), rel=1e-15)
    nodes, weights = np.polynomial.hermite_e.hermegauss(151)
    weights = weights / np.sqrt(2 * np.pi)
    for t, u in [(1.0, 3.0), (0.5, 5.0), (2.0, 2.5)]:
        b = math.sqrt(t) * nodes
        vals = np.array([ho_lee_stochastic_discount(params, t, bi)
                         * ho_lee_discount(params, t, u, bi) for bi in b])
        assert float(weights @ vals) == pytest.approx(
            ho_lee_discount(params, 0.0, u, 0.0), rel=1e-8)
    announce("criterion 09 PASS  floating legs telescope on 50 trees "
             "(tol 1e-12), par bonds price to 1 (tol 1e-12), one-period "
             "swap == FRA exactly, Ho-Lee convexity sigma^2 t^2 / 2 "
             "scales x4, discount martingale by quadrature (rel 1e-8)")


def test_criterion_10_gbm_and_levy(announce):
    params = GBMParams(r=0.03, s=100.0, sigma=0.25, t=1.5)
    mu_log = math.log(params.s) + (params.r - 0.5 * params.sigma ** 2) * params.t
    vol = params.sigma * math.sqrt(params.t)
    for k in (60.0, 85.0, 100.0, 120.0, 160.0):
        z_k = (math.log(k) - mu_log) / vol
        oracle = normal_expectation(
            lambda z: np.maximum(k - np.exp(mu_log + vol * z), 0.0),
            mean=0.0, std=1.0, kinks=(z_k,))
        assert gbm_put(params, k).forward_value == pytest.approx(oracle, rel=1e-8)

    quote = gbm_put(params, 105.0)
    h = 1e-4 * params.s
    pv = lambda s: gbm_put(GBMParams(params.r, s, params.sigma, params.t), 105.0).pv
    delta_fd = (pv(params.s + h) - pv(params.s - h)) / (2 * h)
    gamma_fd = (pv(params.s + h) - 2 * pv(params.s) + pv(params.s - h)) / h ** 2
    assert quote.delta == pytest.approx(delta_fd, rel=1e-6)
    assert quote.gamma == pytest.approx(gamma_fd, rel=1e-6)

    levy = LevyModelParams(r=params.r, s=params.s, sigma=params.sigma,
                           t=params.t, base=KolmogorovLaw.standard_normal())
    for k in (85.0, 100.0, 120.0):
        assert levy_put(levy, k) == pytest.approx(
            gbm_put(params, k).forward_value, rel=1e-6)

    sigma, tau = 0.3, 0.1
    normal = KolmogorovLaw.standard_normal()
    tilted = normal.tilt(sigma)
    assert tilted.mean == sigma                       # drift moves by sigma
    assert np.array_equal(tilted.nodes, normal.nodes)   # law shape unchanged
    assert np.array_equal(tilted.weights, normal.weights)
    twice = normal.tilt(sigma).tilt(tau)
    once = normal.tilt(sigma + tau)
    assert twice.mean == once.mean
    assert np.array_equal(twice.weights, once.weights)
    announce("criterion 10 PASS  gbm put vs lognormal quadrature (rel 1e-8), "
             "greeks vs finite differences (rel 1e-6), Gaussian-base levy "
             "pricer vs gbm (rel 1e-6), normal tilt shifts the drift "
             "exactly and composes additively")


CLI_CASES = {
    "detect_ex5": (3, ["detect", "ex5.json"]),
    "detect_fair_binomial": (0, ["detect", "fair_binomial.json"]),
    "detect_panel": (0, ["detect", "binomial_panel.json"]),
    "detect_panel_arbitrage": (3, ["detect", "binomial_panel_arbitrage.json"]),
    "price_fair_binomial_call": (0, ["price", "fair_binomial.json",
                                     "--payoff", "call 100"]),
    "price_panel_call": (0, ["price", "binomial_panel.json",
                             "--payoff", "call 100"]),
    "price_panel_zcb": (0, ["price", "binomial_panel.json",
                            "--payoff", "const 1"]),
    "price_bach_atm_put": (0, ["price", "bach.json", "--payoff", "put 105"]),
    "price_gbm_put": (0, ["price", "gbm.json", "--payoff", "put 100"]),
    "price_levy_put": (0, ["price", "levy.json", "--payoff", "put 100"]),
    "hedge_fair_binomial_call": (0, ["hedge", "fair_binomial.json",
                                     "--payoff", "call 100"]),
    "hedge_bach_atm_call": (0, ["hedge", "bach.json", "--payoff", "call 105"]),
    "curve_par": (0, ["curve", "curve.txt", "par",
                      "--schedule", "0,0.5,1,1.5,2"]),
    "curve_swap": (0, ["curve", "curve.txt", "swap", "--schedule", "1,2"]),
    "curve_fra": (0, ["curve", "curve.txt", "fra", "0", "1",
                      "--schedule", "1,2"]),
    "curve_price": (0, ["curve", "curve.txt", "price", "0.04",
                        "--schedule", "0,0.5,1,1.5,2"]),
}


def test_criterion_11_cli(announce, capsys, tmp_path):
    def run(argv):
        resolved = [str(FIXTURES / a) if (FIXTURES / a).exists() else a
                    for a in argv]
        code = main(resolved)
        return code, capsys.readouterr().out

    for name, (want_code, argv) in sorted(CLI_CASES.items()):
        golden = (GOLDEN / f"{name}.json").read_text()
        code, out = run(argv)
        assert code == want_code, name
        assert out == golden, name
        code, again = run(argv)
        assert code == want_code and again == golden, f"{name} rerun drifted"

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["detect", str(bad)])[0] == 2
    assert run(["hedge", "collinear.json", "--payoff", "call 100"])[0] == 4
    announce("criterion 11 PASS  16 CLI golden files byte-identical on "
             "rerun; exit codes 0/2/3/4 observed")
