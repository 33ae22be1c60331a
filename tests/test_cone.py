"""Cone projection and the arbitrage/deflator dichotomy.

The nonnegative least squares solver is checked against
scipy.optimize.nnls, and the market-level verdicts against first
principles: a certificate must cost money to refuse (negative setup
cost, no losing outcome) and a deflator must reproduce every quoted
price.
"""

import inspect
import math
import sys
import warnings
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from deflator import (
    DEFAULT_TOL,
    Algebra,
    Deflator,
    DeflatorSequence,
    DimensionMismatch,
    Filtration,
    MarketPanel,
    NodeArbitrage,
    NonConvergence,
    OnePeriodMarket,
    SimpleFunction,
    deflator_from_projection,
    find_arbitrage,
    find_tree_deflator,
    nnls,
    panel_from_one_period,
    project_to_cone,
    verify_position,
)
from deflator import cone
from deflator.market_files import load_market_spec

FIXTURES = Path(__file__).parent / "fixtures"


def random_market(rng, with_labels=False):
    m = rng.integers(1, 6)
    n = rng.integers(m, 13)
    payoffs = rng.normal(size=(n, m)) * rng.lognormal(size=(n, m))
    if rng.random() < 0.5:
        # prices inside the cone by construction
        prices = payoffs.T @ rng.uniform(0.0, 1.0, size=n)
    else:
        prices = rng.normal(size=m) * 10.0
    labels = tuple(f"w{i}" for i in range(n)) if with_labels else None
    return OnePeriodMarket(prices=prices, payoffs=payoffs, labels=labels)


# ---------------------------------------------------------------------------
# nnls against the scipy reference


def test_nnls_matches_scipy_on_random_problems():
    """Never worse than the scipy reference, and equal where scipy is
    self-consistent.

    scipy 1.15's rewritten nnls sometimes reports a residual its own
    solution does not achieve, so the reference residual is recomputed
    from the reference solution rather than trusted as returned.
    """
    rng = np.random.default_rng(123 * 7)
    agreements = 0
    for _ in range(300):
        m, n = rng.integers(1, 8), rng.integers(1, 8)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        w, rnorm = nnls(A, b)
        w_ref, rnorm_claimed = scipy.optimize.nnls(A, b)
        rnorm_ref = np.linalg.norm(A @ w_ref - b)
        assert w.min() >= 0.0
        assert rnorm == pytest.approx(np.linalg.norm(A @ w - b), abs=1e-12)
        assert rnorm <= rnorm_ref + 1e-9
        if abs(rnorm_ref - rnorm_claimed) <= 1e-10:
            assert rnorm == pytest.approx(rnorm_ref, abs=1e-8, rel=1e-8)
            agreements += 1
    assert agreements > 250


def test_nnls_kkt_conditions():
    rng = np.random.default_rng(99)
    for _ in range(200):
        A = rng.normal(size=(rng.integers(2, 10), rng.integers(2, 10)))
        b = rng.normal(size=A.shape[0])
        w, _ = nnls(A, b)
        grad = A.T @ (b - A @ w)
        scale = max(np.abs(A.T @ b).max(), 1.0)
        assert grad.max() <= 1e-8 * scale          # dual feasibility
        assert abs(w @ grad) <= 1e-8 * scale       # complementary slackness


def test_nnls_exact_when_unconstrained_solution_is_nonnegative():
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.array([4.0, 9.0])
    w, rnorm = nnls(A, b)
    np.testing.assert_allclose(w, [2.0, 3.0], atol=1e-12)
    assert rnorm == pytest.approx(0.0, abs=1e-12)


def test_nnls_clamps_negative_directions():
    # best nonnegative fit to a negative target along one column is zero
    A = np.array([[1.0], [1.0]])
    b = np.array([-1.0, -2.0])
    w, rnorm = nnls(A, b)
    assert w[0] == 0.0
    assert rnorm == pytest.approx(np.hypot(1.0, 2.0))


def fair_option_chain(i, outcomes=4000, strikes=49):
    """A bond, a stock and calls and puts on a strike grid over
    `outcomes` terminal prices, quoted by a positive random deflator:
    inside the cone by construction, and of rank 51 (puts = calls -
    stock + strike bonds)."""
    rng = np.random.default_rng([20191017, 0, i])
    s0 = 100.0 * np.exp(rng.uniform(-0.2, 0.2))
    R = 1.0 + rng.uniform(0.0, 0.06)
    vol = rng.uniform(0.15, 0.35)
    S = np.sort(s0 * R * np.exp(vol * rng.standard_normal(outcomes) - 0.5 * vol ** 2))
    K = s0 * np.linspace(0.6, 1.4, strikes)
    X = np.column_stack([np.ones(outcomes), S, np.maximum(S[:, None] - K, 0.0),
                         np.maximum(K - S[:, None], 0.0)])
    weights = rng.gamma(2.0, size=outcomes)
    return X.T @ (weights / (weights.sum() * R)), X


@pytest.mark.parametrize("i", [61, 184])
def test_nnls_finds_fair_option_chains_inside_at_every_scale(i):
    # an absolute floor in the stopping rule stopped these short of the
    # cone at scale 1, and nearly every such chain at scale 1e-6
    x, X = fair_option_chain(i)
    for scale in (1e-6, 1.0, 1e6):
        market = OnePeriodMarket(prices=scale * x, payoffs=scale * X)
        projection = project_to_cone(market)
        assert projection.residual_norm <= 1e-3 * cone._threshold(market.prices, DEFAULT_TOL)
        assert find_arbitrage(market) is None
        # one node of 4000 children: the stacked solver at full size
        assert isinstance(find_tree_deflator(panel_from_one_period(market)), DeflatorSequence)


def test_nnls_verdict_does_not_change_with_scale():
    rng = np.random.default_rng(41)
    for _ in range(300):
        market = random_market(rng)
        verdict = find_arbitrage(market) is None
        distance = project_to_cone(market).residual_norm
        for c in (1e-6, 1e-3, 1e3, 1e6):
            scaled = OnePeriodMarket(prices=c * market.prices, payoffs=c * market.payoffs)
            assert (find_arbitrage(scaled) is None) == verdict
            _, rnorm = nnls(scaled.payoffs.T, scaled.prices)
            assert rnorm == pytest.approx(c * distance, rel=1e-6, abs=1e-12 * c)


# ---------------------------------------------------------------------------
# projection geometry


def test_projection_orthogonality_and_residual():
    rng = np.random.default_rng(7)
    for _ in range(100):
        market = random_market(rng)
        proj = project_to_cone(market)
        gap = proj.x_star - market.prices
        scale = 1.0 + np.linalg.norm(market.prices)
        # nearest-point characterization: the gap is orthogonal to the
        # projection and points away from every generator
        assert abs(gap @ proj.x_star) <= 1e-8 * scale ** 2
        assert (market.payoffs @ gap).min() >= -1e-8 * scale
        assert proj.residual_norm == pytest.approx(np.linalg.norm(gap), abs=1e-12)


def test_projection_weights_reprice_inside_markets():
    payoffs = np.array([[1.0, 90.0], [1.0, 110.0]])
    prices = payoffs.T @ np.array([0.3, 0.6])
    market = OnePeriodMarket(prices=prices, payoffs=payoffs)
    proj = project_to_cone(market)
    np.testing.assert_allclose(payoffs.T @ proj.weights, prices, atol=1e-10)
    assert proj.residual_norm <= 1e-10


def test_projection_of_markets_without_outcomes_or_instruments():
    # an empty cone holds only the zero price vector
    for prices, payoffs in (([], np.zeros((3, 0))), ([0.0], np.zeros((0, 1)))):
        proj = project_to_cone(OnePeriodMarket(prices=prices, payoffs=payoffs))
        assert proj.certificate is None and proj.residual_norm == 0.0
        assert proj.weights.shape == (len(payoffs),) and not proj.weights.any()


def test_a_zero_price_vector_projects_exactly():
    # its threshold tol * ||prices|| is 0: the direct two-instrument
    # path, the active-set solver and a tree node all reach the zero
    # weights exactly, so no certificate comes out
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5):
        for k in (1, 2, 4, 7):
            market = OnePeriodMarket(prices=np.zeros(m), payoffs=rng.normal(size=(k, m)))
            projection = project_to_cone(market)
            assert projection.certificate is None and projection.residual_norm == 0.0
            assert not projection.weights.any()
            found = find_tree_deflator(panel_from_one_period(market))
            assert isinstance(found, DeflatorSequence) and not found[1].weights.any()


# ---------------------------------------------------------------------------
# the dichotomy


def test_exactly_one_of_certificate_or_deflator():
    rng = np.random.default_rng(20_26)
    seen = {True: 0, False: 0}
    for _ in range(500):
        market = random_market(rng)
        certificate = find_arbitrage(market)
        projection = project_to_cone(market)
        deflator = deflator_from_projection(projection)
        assert (certificate is None) != (deflator is None)
        # one projection gives the same verdict and witness
        again = projection.certificate
        assert (again is None) == (certificate is None)
        if certificate is not None:
            np.testing.assert_array_equal(again.gamma, certificate.gamma)
            assert again.setup_gain == certificate.setup_gain
        seen[certificate is None] += 1
        if certificate is not None:
            report = verify_position(market, certificate.gamma, tol=1e-7)
            assert report.is_arbitrage
            assert certificate.setup_gain > 0.0
        else:
            np.testing.assert_allclose(
                market.payoffs.T @ deflator.atom_weights, market.prices,
                atol=1e-9 * (1.0 + np.abs(market.prices).max()))
    # the generator must exercise both branches for this test to mean much
    assert min(seen.values()) > 50


def test_every_view_of_the_verdict_flips_at_its_threshold():
    # tol just below and just above residual / ||prices|| of a
    # market outside its cone: the projection's certificate,
    # find_arbitrage, the deflator view, the stacked level solve and the
    # tree search all change their verdict there, and together
    rng = np.random.default_rng(67)
    flips = witnessed = 0
    for _ in range(40):
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        A, b = stacked_problems(int(rng.integers(2 ** 32)), "random", m, k,
                                10.0 ** int(rng.integers(-6, 7)), p=6)
        rows = A.transpose(0, 2, 1).reshape(-1, m)
        children = np.arange(len(rows)).reshape(-1, k)
        markets = [OnePeriodMarket(prices=b[i], payoffs=rows[c])
                   for i, c in enumerate(children)]
        residual = np.array([project_to_cone(market).residual_norm for market in markets])
        edge = residual / np.linalg.norm(b, axis=1)
        # residuals of the two solvers agree far within the 1e-6 margin
        outside = np.flatnonzero(residual > 1e-6 * np.linalg.norm(b, axis=1))
        for i in outside:
            for inside, tol in ((False, edge[i] * (1.0 - 1e-6)),
                                (True, edge[i] * (1.0 + 1e-6))):
                projection = project_to_cone(markets[i], tol)
                certificate = find_arbitrage(markets[i], tol)
                assert (projection.certificate is None) == inside
                assert (certificate is None) == inside
                assert (deflator_from_projection(projection) is not None) == inside
                assert cone._project_stack(rows, children, b, tol)[1][i] == inside
                if not inside:
                    np.testing.assert_array_equal(certificate.gamma,
                                                  projection.certificate.gamma)
            flips += 1
        # the tree of these nodes flips at its worst node, which is its witness
        if outside.size:
            top = outside[edge[outside].argmax()]
            filtration = Filtration([Algebra(np.repeat(np.arange(len(b)), k)),
                                     Algebra(np.arange(len(rows)))])
            panel = MarketPanel(times=(0.0, 1.0), filtration=filtration,
                                prices=[SimpleFunction(filtration[0], b),
                                        SimpleFunction(filtration[1], rows)])
            tol = edge[top] * (1.0 - 1e-6)
            if (edge[np.arange(len(b)) != top] < tol).all():
                found = find_tree_deflator(panel, tol)
                assert isinstance(found, NodeArbitrage) and found.block == top
                np.testing.assert_array_equal(found.certificate.gamma,
                                              find_arbitrage(markets[top], tol).gamma)
                witnessed += 1
            assert isinstance(find_tree_deflator(panel, edge[top] * (1.0 + 1e-6)),
                              DeflatorSequence)
    assert flips >= 50 and witnessed >= 20


def near_fair_nodes(rng, p, m, k):
    """p markets of k outcomes and m instruments priced inside their cone
    by nonnegative weights, some 0: their residuals are rounding noise."""
    payoffs = rng.normal(size=(p, k, m)) * rng.lognormal(size=(p, k, m))
    q = rng.uniform(0.0, 1.0, size=(p, k)) * (rng.random((p, k)) < 0.8)
    return payoffs, np.einsum("pkm,pk->pm", payoffs, q)


def test_the_reported_residual_decides_the_verdict():
    # the active-set solver's own residual and the one the projection
    # reports are rounding noise on near-fair markets, and often differ
    # in their bits; with the threshold strictly between the two, the
    # verdict follows the reported one, alone and in a tree level
    rng = np.random.default_rng(7)
    ties, witnessed = {True: 0, False: 0}, 0
    for _ in range(400):
        m, k = int(rng.integers(3, 6)), int(rng.integers(3, 9))
        payoffs, prices = near_fair_nodes(rng, 4, m, k)
        own = cone._nnls_stack(payoffs[:1].transpose(0, 2, 1), prices[:1])[1][0]
        reported = project_to_cone(OnePeriodMarket(prices[0], payoffs[0])).residual_norm
        lo, hi = sorted((own, reported))
        tol = 0.5 * (lo + hi) / np.linalg.norm(prices[0])
        if not lo < cone._threshold(prices[0], tol) < hi:
            continue
        markets = [OnePeriodMarket(prices=x, payoffs=X) for x, X in zip(prices, payoffs)]
        projections = [project_to_cone(market, tol) for market in markets]
        outside = [projection.residual_norm > cone._threshold(market.prices, tol)
                   for projection, market in zip(projections, markets)]
        for projection, out in zip(projections, outside):
            assert (projection.certificate is None) == (not out)
        ties[not outside[0]] += 1
        # the tie node is block 0, so a tree of these nodes fails exactly
        # where the reported residuals say, whatever the others are
        filtration = Filtration([Algebra(np.repeat(np.arange(4), k)),
                                 Algebra(np.arange(4 * k))])
        panel = MarketPanel(times=(0.0, 1.0), filtration=filtration,
                            prices=[SimpleFunction(filtration[0], prices),
                                    SimpleFunction(filtration[1], payoffs.reshape(-1, m))])
        found = find_tree_deflator(panel, tol)
        if any(outside):
            block = outside.index(True)
            assert isinstance(found, NodeArbitrage) and found.block == block
            assert (found.certificate.gamma.tobytes()
                    == projections[block].certificate.gamma.tobytes())
            witnessed += block == 0
        else:
            assert isinstance(found, DeflatorSequence)
    assert min(ties.values()) >= 50 and witnessed >= 50


def test_certificate_is_unit_norm_and_scales_with_market():
    """Doubling all prices and payoffs doubles the certificate's gain."""
    prices = np.array([100.0, 9.1])
    omegas = np.arange(0.0, 111.0, 10.0)
    payoffs = np.column_stack([omegas, np.maximum(omegas - 100.0, 0.0)])
    base = find_arbitrage(OnePeriodMarket(prices=prices, payoffs=payoffs))
    doubled = find_arbitrage(OnePeriodMarket(prices=2 * prices, payoffs=2 * payoffs))
    assert np.linalg.norm(base.gamma) == pytest.approx(1.0, abs=1e-12)
    assert doubled.setup_gain == pytest.approx(2 * base.setup_gain, rel=1e-9)


def test_zero_payoff_instrument_with_positive_price_is_arbitrage():
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.zeros((3, 1)))
    certificate = find_arbitrage(market)
    assert certificate is not None
    assert certificate.gamma[0] == pytest.approx(-1.0)


def test_single_fair_bond_has_deflator():
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.array([[1.05], [1.05]]))
    assert find_arbitrage(market) is None
    deflator = deflator_from_projection(project_to_cone(market))
    assert deflator.mass == pytest.approx(1 / 1.05)


# ---------------------------------------------------------------------------
# an exact oracle on degenerate cones


def exact_solve(G, h):
    """The solution of G z = h in Fractions, or None if G is singular."""
    n = len(h)
    M = [list(row) + [h[i]] for i, row in enumerate(G)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if M[r][c] != 0), None)
        if pivot is None:
            return None
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_cone_distance2(payoffs, prices):
    """The squared distance from integer prices to the cone of integer
    payoff rows, in exact arithmetic.  The nearest cone point is
    payoffs[S].T @ z for some set S of independent rows and z > 0 that
    solves least squares on S, with no row off S of positive gradient
    (KKT); the supports are enumerated from the smallest up."""
    A = [[Fraction(int(v)) for v in row] for row in payoffs]     # rows: outcomes
    b = [Fraction(int(v)) for v in prices]
    m = len(b)
    for size in range(min(m, len(A)) + 1):
        for S in combinations(range(len(A)), size):
            G = [[sum(A[i][t] * A[j][t] for t in range(m)) for j in S] for i in S]
            z = exact_solve(G, [sum(A[i][t] * b[t] for t in range(m)) for i in S])
            if z is None or any(v <= 0 for v in z):
                continue
            r = [b[t] - sum(v * A[i][t] for v, i in zip(z, S)) for t in range(m)]
            if all(sum(a * rt for a, rt in zip(row, r)) <= 0 for row in A):
                return sum(rt * rt for rt in r)
    raise AssertionError("no support satisfies KKT")


def degenerate_market(rng):
    """Small integer payoffs with duplicated outcomes, collinear
    instruments or a rank below min(outcomes, instruments), and prices
    inside the cone (often on a face), in its span or anywhere."""
    kind = ["duplicated", "collinear", "rank"][int(rng.integers(3))]
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    payoffs = rng.integers(-2, 6, size=(n, m))
    if kind == "duplicated" and n > 1:
        payoffs[-1] = payoffs[0]
    elif kind == "collinear" and m > 1:
        payoffs[:, -1] = 2 * payoffs[:, 0] - payoffs[:, int(rng.integers(m - 1))]
    elif kind == "rank":
        r = int(rng.integers(1, max(min(n, m) - 1, 1) + 1))
        payoffs = rng.integers(-2, 3, size=(n, r)) @ rng.integers(-2, 3, size=(r, m))
    where = int(rng.integers(3))
    if where == 0:
        prices = payoffs.T @ rng.integers(0, 3, size=n)
    elif where == 1:
        prices = payoffs.T @ rng.integers(-2, 3, size=n)
    else:
        prices = rng.integers(-4, 6, size=m)
    return payoffs, prices


def test_verdicts_match_the_exact_oracle_on_degenerate_cones():
    rng = np.random.default_rng(2019)
    band = verdicts = 0
    for _ in range(150):
        payoffs, prices = degenerate_market(rng)
        distance = float(exact_cone_distance2(payoffs, prices)) ** 0.5
        for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            market = OnePeriodMarket(prices=c * prices.astype(float),
                                     payoffs=c * payoffs.astype(float))
            threshold = cone._threshold(market.prices, DEFAULT_TOL)
            # scaling rounds the inputs by far less than the threshold,
            # so c * distance is the scaled market's distance
            if threshold / 4.0 < c * distance < 4.0 * threshold:
                band += 1
                continue
            inside = c * distance <= threshold
            certificate = find_arbitrage(market)
            assert (certificate is None) == inside
            if certificate is not None:
                assert certificate.setup_gain == pytest.approx(c * distance, abs=threshold)
            n = len(payoffs)
            _, stacked = cone._project_stack(market.payoffs, np.arange(n)[None],
                                             market.prices[None])
            assert stacked[0] == inside
            tree = find_tree_deflator(panel_from_one_period(market))
            assert isinstance(tree, DeflatorSequence) == inside
            verdicts += 1
    assert band <= 5 and verdicts >= 700


# ---------------------------------------------------------------------------
# position verification


def test_verify_position_flags_the_textbook_butterfly():
    omegas = np.array([90.0, 95.0, 100.0, 105.0, 110.0])
    market = OnePeriodMarket(
        prices=np.array([1.0, 100.0, 6.0]),
        payoffs=np.column_stack([np.ones(5), omegas,
                                 np.maximum(omegas - 100.0, 0.0)]))
    report = verify_position(market, [-90.0, 1.0, -2.0])
    assert report.cost == -2.0
    assert report.min_payoff == 0.0
    assert report.is_arbitrage


def test_verify_position_rejects_costly_positions():
    market = OnePeriodMarket(prices=np.array([1.0, 100.0]),
                             payoffs=np.array([[1.05, 90.0], [1.05, 120.0]]))
    report = verify_position(market, [1.0, 0.0])
    assert not report.is_arbitrage
    assert report.cost == 1.0


def test_verify_position_accepts_certificates_of_large_markets():
    """At scale 1e6 a valid certificate's least payoff is rounding noise
    of order 1e-9, which an absolute tolerance of 1e-9 would refuse."""
    rng = np.random.default_rng(5)
    noisy = 0
    for _ in range(1000):
        base = random_market(rng)
        market = OnePeriodMarket(prices=1e6 * base.prices, payoffs=1e6 * base.payoffs)
        certificate = find_arbitrage(market)
        if certificate is None:
            continue
        assert verify_position(market, certificate.gamma).is_arbitrage
        noisy += certificate.min_payoff < -1e-9
    assert noisy >= 20


def test_verify_position_reports_a_certificate_to_the_bit():
    # verify_position forms gamma . x and X gamma with the certificate's
    # products, np.einsum on small and large markets alike, so a
    # certificate reports cost -setup_gain and its min_payoff exactly
    rng = np.random.default_rng(11)
    markets = [load_market_spec(FIXTURES / "ex5.json").payload]
    for n, m in ((4, 2), (7, 3), (12, 5), (40, 4), (300, 12), (2000, 60)):
        for _ in range(20):
            payoffs = np.abs(rng.normal(size=(n, m))) * rng.lognormal(size=m)
            markets.append(OnePeriodMarket(prices=rng.normal(size=m), payoffs=payoffs))
    certified = 0
    for market in markets:
        certificate = find_arbitrage(market)
        if certificate is not None:
            report = verify_position(market, certificate.gamma)
            assert report.cost == -certificate.setup_gain
            assert report.min_payoff == certificate.min_payoff
            certified += 1
    assert certified >= 100


def payoffs_near_250():
    return OnePeriodMarket(prices=np.array([1.0, 250.0]),
                           payoffs=np.array([[1.05, 240.0], [1.05, 250.0]]))


def test_verify_position_slack_is_relative_to_the_market():
    # short 0.004 stock against (almost) enough bond: it loses 1.7e-7
    # in the up state, 7e-10 of the payoff scale
    market = payoffs_near_250()
    gamma = np.array([(1.0 - 1.7e-7) / 1.05, -0.004])
    report = verify_position(market, gamma)
    assert report.min_payoff == pytest.approx(-1.7e-7, rel=1e-6)
    assert report.cost < -0.04
    assert report.is_arbitrage


def test_verify_position_rejects_a_loss_of_a_thousandth_of_scale():
    for scale in (1e-6, 1.0, 1e6):
        base = payoffs_near_250()
        market = OnePeriodMarket(prices=scale * base.prices,
                                 payoffs=scale * base.payoffs)
        gamma = np.array([(1.0 - 0.25) / 1.05, -0.004])
        report = verify_position(market, gamma)
        assert report.min_payoff == pytest.approx(-0.25 * scale)
        assert report.cost < 0.0
        assert not report.is_arbitrage


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        OnePeriodMarket(prices=np.array([1.0, 2.0]),
                        payoffs=np.array([[1.0], [2.0]]))
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        verify_position(market, [1.0, 2.0])
    with pytest.raises(ValueError):
        OnePeriodMarket(prices=np.array([np.nan]),
                        payoffs=np.array([[1.0]]))
    with pytest.raises(ValueError):
        Deflator(atom_weights=np.array([0.5, -0.1]))


def counted_solves(monkeypatch):
    calls, solve = [], cone._project_stack
    monkeypatch.setattr(cone, "_project_stack",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    return calls


def fair_and_planted(rng, n=40, m=5):
    # positive payoffs priced by a positive deflator, and the same market
    # with a negative price on instrument 0, which is then free to buy
    payoffs = rng.lognormal(size=(n, m))
    fair = payoffs.T @ rng.uniform(0.1, 1.0, size=n)
    planted = fair * np.r_[-1.0, np.ones(m - 1)]
    return (OnePeriodMarket(prices=fair, payoffs=payoffs),
            OnePeriodMarket(prices=planted, payoffs=payoffs))


def test_find_arbitrage_then_project_to_cone_solves_once(monkeypatch):
    calls = counted_solves(monkeypatch)
    fair, planted = fair_and_planted(np.random.default_rng(41))
    assert find_arbitrage(fair) is None
    assert deflator_from_projection(project_to_cone(fair)) is not None
    assert len(calls) == 1
    certificate = find_arbitrage(planted)
    assert certificate is not None and verify_position(planted, certificate.gamma).is_arbitrage
    assert project_to_cone(planted).certificate is certificate
    assert len(calls) == 2


def test_only_the_last_market_and_tol_are_reused(monkeypatch):
    calls = counted_solves(monkeypatch)
    a, b = fair_and_planted(np.random.default_rng(43))
    for market in (a, b, a):
        project_to_cone(market)
    assert len(calls) == 3
    # an equal tol reuses, another solves again
    project_to_cone(a, DEFAULT_TOL * 1.0)
    assert len(calls) == 3
    project_to_cone(a, 1e-6)
    assert len(calls) == 4
    # an equal market is not the same market: markets compare and hash by identity
    twin = OnePeriodMarket(prices=a.prices, payoffs=a.payoffs)
    assert twin is not a and twin != a and a == a
    assert len({a, twin, a}) == 2 and hash(a) == hash(a)
    project_to_cone(twin, 1e-6)
    assert len(calls) == 5


def test_a_reused_projection_is_the_first_one_with_its_bytes():
    for market in fair_and_planted(np.random.default_rng(47)):
        first = project_to_cone(market)
        saved = [first.weights.tobytes(), first.x_star.tobytes(), first.prices.tobytes(),
                 first.residual_norm]
        find_arbitrage(market)
        again = project_to_cone(market)
        assert again is first
        assert [again.weights.tobytes(), again.x_star.tobytes(), again.prices.tobytes(),
                again.residual_norm] == saved
        cone._project.cache_clear()
        fresh = project_to_cone(market)
        assert fresh is not first
        assert [fresh.weights.tobytes(), fresh.x_star.tobytes(), fresh.prices.tobytes(),
                fresh.residual_norm] == saved


def test_a_market_keeps_its_own_copy_of_its_arrays():
    rng = np.random.default_rng(53)
    for market in fair_and_planted(rng):
        prices, payoffs = market.prices.copy(), market.payoffs.copy()
        built = OnePeriodMarket(prices=prices, payoffs=payoffs)
        want = project_to_cone(market)
        prices[:] = -rng.uniform(1.0, 2.0, size=prices.shape)
        payoffs *= -1.0
        got = project_to_cone(built)
        assert built.prices.tobytes() == market.prices.tobytes()
        assert built.payoffs.tobytes() == market.payoffs.tobytes()
        assert (got.certificate is None) == (want.certificate is None)
        assert got.weights.tobytes() == want.weights.tobytes()


def test_markets_and_projections_are_read_only():
    fair, planted = fair_and_planted(np.random.default_rng(59))
    inside, outside = project_to_cone(fair), project_to_cone(planted)
    arrays = [fair.prices, fair.payoffs, inside.weights, inside.x_star, inside.prices,
              outside.weights, outside.certificate.gamma]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # the deflator is the caller's own copy
    weight = inside.weights[0]
    deflator_from_projection(inside).atom_weights[0] = weight + 1.0
    assert inside.weights[0] == weight


def test_deflator_requires_nonnegative_weights_and_reports_mass():
    deflator = Deflator(atom_weights=np.array([0.25, 0.5]))
    assert deflator.mass == 0.75


# ---------------------------------------------------------------------------
# the one active-set solver: nnls runs _nnls_stack on a stack of one


def stacked_problems(seed, kind, m, k, scale, p=8):
    """p problems A (m, k), b (m,); about half of the b inside the cone."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, m, k))
    if kind == "duplicated" and k > 1:
        A[:, :, -1] = A[:, :, 0]
    elif kind == "collinear" and k > 2:
        A[:, :, -1] = 2.5 * A[:, :, 0] - 0.5 * A[:, :, 1]
    elif kind == "zero":
        A[:, :, 0] = 0.0
    b = rng.normal(size=(p, m))
    inside = rng.random(p) < 0.5
    b[inside] = np.einsum("pmk,pk->pm", A[inside],
                          rng.uniform(0.0, 1.0, size=(int(inside.sum()), k)))
    return scale * A, scale * b


def traced_stack(A, b, maxiter=None):
    """_nnls_stack(A, b, maxiter), and the count of subproblem solves of
    each problem, read from the solver's solves and live arrays while
    the problems are in the stack."""
    counts = np.zeros(len(b), dtype=int)

    def lines(frame, event, arg):
        v = frame.f_locals
        # between the compaction of live and of solves their sizes differ
        if "solves" in v and len(v["solves"]) == len(v["live"]):
            counts[v["live"]] = v["solves"]
        return lines

    sys.settrace(lambda frame, event, arg:
                 lines if frame.f_code is cone._nnls_stack.__code__ else None)
    try:
        w, rnorm = cone._nnls_stack(A, b, maxiter)
    finally:
        sys.settrace(None)
    return w, rnorm, counts


def mixed_stack(rng, shape=None):
    """Eight problems (m, k) of the four kinds, two of each, at scales
    1e-6 to 1e6; half of the b moved off the cone by a relative 1e-3 to
    1e-12, where the rounding of A.T @ r can lift a column in the span
    of the passive ones above its threshold.  The shape is drawn when
    not given."""
    m, k = shape or (int(rng.integers(1, 6)), int(rng.integers(1, 8)))
    parts = [stacked_problems(int(rng.integers(2 ** 32)), kind, m, k,
                              10.0 ** int(rng.integers(-6, 7)), p=2)
             for kind in ("random", "duplicated", "collinear", "zero")]
    A = np.concatenate([a for a, _ in parts])
    b = np.concatenate([y for _, y in parts])
    for i in np.flatnonzero(rng.random(len(b)) < 0.5):
        b[i] += 10.0 ** -int(rng.integers(3, 13)) * np.linalg.norm(b[i]) * rng.normal(size=m)
    return A, b


# one shape on each side of _nnls_stack's size cut: cone._EINSUM under
# 64 payoff entries, cone._MATMUL from 64 on
CUT_SHAPES = [(7, 9), (8, 8)]


def test_stacked_nnls_agrees_with_nnls():
    # nnls is a stack of one, ending in a solve on its support: against
    # a mixed stack it keeps the support and the verdict, with residuals
    # within the threshold, also where columns repeat, depend on others
    # or are zero; weights are compared where they are unique (the
    # random kind).
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for shape in [None] * 150 + CUT_SHAPES:
        A, b = mixed_stack(rng, shape)
        p, m, k = A.shape
        W, R = cone._nnls_stack(A, b)
        rows = A.transpose(0, 2, 1).reshape(-1, m)
        weights, inside = cone._project_stack(rows, np.arange(len(rows)).reshape(-1, k), b)
        for i in range(p):
            a = A[i]
            single, rnorm = nnls(a, b[i])
            threshold = cone._threshold(b[i], DEFAULT_TOL)
            np.testing.assert_array_equal(single > 0.0, W[i] > 0.0)
            assert (rnorm <= threshold) == (R[i] <= threshold)
            assert abs(rnorm - R[i]) <= threshold
            if i < 2:
                np.testing.assert_allclose(W[i], single, rtol=1e-9,
                                           atol=1e-12 * np.abs(single).max(initial=1.0))
            # rounding noise of b - A w, in units of its terms
            noise = eps * max(m, k) * (np.abs(b[i]).max() + np.abs(a).max() * W[i].sum())
            assert abs(R[i] - np.linalg.norm(b[i] - a @ W[i])) <= 100.0 * noise
            # KKT: w >= 0, no ascent direction off the support, a flat
            # gradient on it; the solver's own stopping tolerance bounds
            # the first
            assert (W[i] >= 0.0).all()
            g = a.T @ (b[i] - a @ W[i])
            unit = np.abs(a).max() * noise
            stop = 10.0 * eps * max(m, k) * max(np.abs(a.T @ b[i]).max(), 1.0)
            assert g.max() <= 100.0 * max(stop, unit)
            assert np.abs(g[W[i] > 0.0]).max(initial=0.0) <= 100.0 * unit
            # the level verdict is project_to_cone's, and an inside
            # verdict comes with weights that reprice within the threshold
            market = OnePeriodMarket(prices=b[i], payoffs=a.T)
            assert inside[i] == (project_to_cone(market).certificate is None)
            if inside[i]:
                assert (weights[i] >= 0.0).all()
                assert np.linalg.norm(a @ weights[i] - b[i]) <= threshold


def test_nnls_counts_solves_like_the_stacked_solver():
    # a problem alone, as nnls solves it, takes the same path as in a
    # stack of other problems, solve for solve, with the same support
    # and verdict; weights are compared on the random kind only.
    rng = np.random.default_rng(23)
    for shape in [None] * 150 + CUT_SHAPES:
        A, b = mixed_stack(rng, shape)
        p = len(b)
        W, R, S = traced_stack(A, b)
        # one short of the slowest problem's solves, exactly the problems
        # that need them come back NaN, where nnls raises, and the others
        # keep the weights of a stack without them, bit for bit, and its
        # verdicts; matmul rounds a residual by the widest factor in the
        # stack, so residuals agree within the threshold
        cap = int(S.max())
        short, fast = np.flatnonzero(S == cap), np.flatnonzero(S < cap)
        w_cut, r_cut = cone._nnls_stack(A, b, maxiter=cap - 1)
        assert np.isnan(w_cut[short]).all() and np.isnan(r_cut[short]).all()
        w_fast, r_fast = cone._nnls_stack(A[fast], b[fast], maxiter=cap - 1)
        assert w_cut[fast].tobytes() == w_fast.tobytes()
        threshold = cone._threshold(b[fast], DEFAULT_TOL)
        np.testing.assert_array_equal(r_cut[fast] <= threshold, r_fast <= threshold)
        assert (np.abs(r_cut[fast] - r_fast) <= threshold).all()
        with pytest.raises(NonConvergence, match=f"within {cap - 1} subproblem solves"):
            nnls(A[short[0]], b[short[0]], maxiter=cap - 1)
        for i in range(p):
            w, r, s = traced_stack(A[i:i + 1], b[i:i + 1])
            threshold = cone._threshold(b[i], DEFAULT_TOL)
            assert S[i] == s[0]
            np.testing.assert_array_equal(W[i] > 0.0, w[0] > 0.0)
            assert (R[i] <= threshold) == (r[0] <= threshold)
            assert abs(R[i] - r[0]) <= threshold
            if i < 2:
                np.testing.assert_allclose(W[i], w[0], rtol=1e-9,
                                           atol=1e-12 * np.abs(w[0]).max(initial=1.0))


def check_factor(X, P, Qt, Ri, cols, nk, i):
    """The factor of problem i holds its nk[i] columns cols[i, :nk[i]]:
    P has their rows of X, the rows of Qt are an orthonormal basis of
    their span, and R^-1 R = I for R = Qt P^T; past nk[i], Qt and R^-1
    are zero."""
    n = int(nk[i])
    Q, Pn = Qt[i, :n], P[i, :n]
    np.testing.assert_array_equal(Pn, X[i][cols[i, :n]])
    np.testing.assert_allclose(Q @ Q.T, np.eye(n), rtol=0.0, atol=1e-14)
    R = Q @ Pn.T
    np.testing.assert_allclose(Q.T @ R, Pn.T, rtol=0.0, atol=1e-14 * np.abs(X[i]).max())
    if n:
        bound = 10.0 * np.finfo(float).eps * n * np.linalg.cond(R)
        np.testing.assert_allclose(Ri[i, :n, :n] @ R, np.eye(n), rtol=0.0, atol=bound)
    assert not Qt[i, n:].any() and not Ri[i, n:].any() and not Ri[i, :, n:].any()


def test_stacked_qr_factor_follows_columns_in_and_out():
    rng = np.random.default_rng(37)
    p, m, k = 6, 5, 9
    A = rng.normal(size=(p, m, k)) * rng.lognormal(size=(p, 1, k))
    A[:, :, 7] = A[:, :, 2]                         # duplicated
    A[:, :, 8] = 2.0 * A[:, :, 1] - A[:, :, 4]      # collinear with two others
    X = A.transpose(0, 2, 1)
    cutoff = 10.0 * np.finfo(float).eps * k * np.linalg.norm(A, axis=1)
    # one slot past m: an append to a full factor is rejected as
    # dependent, where the solver stops such a problem instead
    P, Qt, Ri = np.zeros((p, m + 1, m)), np.zeros((p, m + 1, m)), np.zeros((p, m + 1, m + 1))
    cols, nk, wf = np.full((p, m + 1), -1), np.zeros(p, dtype=int), np.zeros((p, m + 1))
    rows = np.arange(p)
    entered = [[] for _ in range(p)]
    rejected = {"full": 0, "duplicated": 0, "collinear": 0}
    for _ in range(150):
        j = rng.integers(0, k, size=p)
        out = np.array([j[i] in entered[i] for i in range(p)])
        if out.any():
            i = np.flatnonzero(out)
            n = int(nk.max())
            # weights tagged by column, to follow them through the drop
            wf[rows[:, None], np.arange(m + 1)] = np.where(np.arange(m + 1) < nk[:, None],
                                                           cols + 1.0, 0.0)
            drop = (cols[i, :n] == j[i, None]) & (np.arange(n) < nk[i, None])
            cone._qr_drop_stack(P, Qt, Ri, cols, nk, wf, i, drop, cone._EINSUM)
            for s in i:
                entered[s].remove(j[s])
                np.testing.assert_array_equal(wf[s, :nk[s]], cols[s, :nk[s]] + 1.0)
                assert not wf[s, nk[s]:].any()
        why = {}
        for i in np.flatnonzero(~out):
            if len(entered[i]) == m:
                why[i] = "full"
            elif {2, 7} & set(entered[i]) and j[i] in {2, 7}:
                why[i] = "duplicated"
            elif j[i] in {1, 4, 8} and len({1, 4, 8} & set(entered[i])) == 2:
                why[i] = "collinear"
        before = Qt.copy(), Ri.copy(), cols.copy(), P.copy(), nk.copy()
        # a problem that just dropped j must not take it again: an
        # infinite cutoff rejects it
        # the caller records the column; a rejected one lands in the padding
        P[rows, nk], cols[rows, nk] = X[rows, j], j
        added = cone._qr_append_stack(Qt, Ri, nk, rows, int(nk.max()), X[rows, j],
                                      np.where(out, np.inf, cutoff[rows, j]), cone._EINSUM)
        for i, ok in enumerate(added):
            assert ok != (out[i] or i in why)
            if ok:
                entered[i].append(j[i])
            else:
                if i in why:
                    rejected[why[i]] += 1
                n = int(nk[i])
                assert n == before[4][i]
                for now, then in zip((Qt, Ri), before):
                    assert np.array_equal(now[i], then[i])
                assert np.array_equal(cols[i, :n], before[2][i, :n])
                assert np.array_equal(P[i, :n], before[3][i, :n])
        for i in range(p):
            assert nk[i] == len(entered[i]) and cols[i, :nk[i]].tolist() == entered[i]
            check_factor(X, P, Qt, Ri, cols, nk, i)
    assert min(rejected.values()) > 0


def solves_needed(a, b):
    """The least maxiter with which nnls solves (a, b)."""
    cap = 1
    while True:
        try:
            nnls(a, b, maxiter=cap)
            return cap
        except NonConvergence:
            cap += 1


def test_nnls_enters_the_largest_gradient_above_its_threshold():
    # column 0 is huge and nearly orthogonal to b: its gradient 0.71 is
    # the largest and twice its own threshold, while column 1 exceeds
    # its threshold by the most.  Column 0 enters first, and the step
    # back from the pair costs two more solves before column 1 is alone.
    A = np.array([[0.71, 0.5], [8e13, 0.866]])
    b = np.array([1.0, 0.0])
    assert solves_needed(A, b) == 3
    assert traced_stack(A[None], b[None])[2][0] == 3
    for got in (cone._nnls_stack(A[None], b[None])[0][0], nnls(A, b)[0]):
        assert got[0] == 0.0 and got[1] == pytest.approx(0.5 / (A[:, 1] @ A[:, 1]), rel=1e-12)


def test_stacked_nnls_leaves_nan_where_nnls_raises():
    A, b = stacked_problems(11, "random", 4, 6, 1.0)
    need = np.array([solves_needed(A[i], b[i]) for i in range(len(b))])
    cap = int(need.max()) - 1
    fast = np.flatnonzero(need <= cap)
    assert 0 < fast.size < len(b)
    # a slow problem stops alone: NaN weights and residual, where nnls
    # raises, and the others keep the bits of a stack without it
    W, R = cone._nnls_stack(A, b, maxiter=cap)
    slow = np.setdiff1d(np.arange(len(b)), fast)
    assert np.isnan(W[slow]).all() and np.isnan(R[slow]).all()
    for i in slow:
        with pytest.raises(NonConvergence):
            nnls(A[i], b[i], maxiter=cap)
    W_fast, R_fast = cone._nnls_stack(A[fast], b[fast], maxiter=cap)
    assert W[fast].tobytes() == W_fast.tobytes() and R[fast].tobytes() == R_fast.tobytes()
    for i, w in zip(fast, W_fast):
        np.testing.assert_allclose(w, nnls(A[i], b[i])[0], atol=1e-12)


def zero_step_taken(solve, A, b):
    """solve(A, b), and whether _nnls_stack took a zero step in it: a
    subproblem whose step back toward the previous iterate had length
    alpha == 0."""
    hit = []

    def lines(frame, event, arg):
        if np.any(frame.f_locals.get("alpha") == 0.0):
            hit.append(True)
        return lines

    sys.settrace(lambda frame, event, arg:
                 lines if frame.f_code is cone._nnls_stack.__code__ else None)
    try:
        out = solve(A, b)
    finally:
        sys.settrace(None)
    return out, bool(hit)


def near_duplicate_problem(rng):
    """A (m, k) whose last column is its first plus noise of relative
    size 1e-11 to 1e-15, and b moved just off A @ w for some w >= 0."""
    m, k = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    A = rng.normal(size=(m, k))
    A[:, -1] = A[:, 0] + (10.0 ** -rng.uniform(11, 15) * np.linalg.norm(A[:, 0])
                          * rng.normal(size=m))
    b = A @ (rng.uniform(0.0, 1.0, size=k) * (rng.random(k) < 0.6))
    b += 10.0 ** -rng.uniform(3, 8) * np.linalg.norm(b) * rng.normal(size=m)
    scale = 10.0 ** int(rng.integers(-6, 7))
    return scale * A, scale * b


def test_near_duplicates_take_no_zero_step_and_keep_the_verdicts_of_scipy():
    # where a column nearly repeats a passive one, a gradient taken on r
    # itself can lift it above its threshold on rounding alone, and its
    # coefficient then comes out nonpositive: a zero step.  Taken on r
    # off the passive span, no gradient does, and the residuals of nnls
    # and of the stack it runs both keep scipy's verdict.
    rng = np.random.default_rng(53)
    zero_steps = band = 0
    for _ in range(400):
        A, b = near_duplicate_problem(rng)
        (_, r), hit = zero_step_taken(nnls, A, b)
        zero_steps += hit
        R = cone._nnls_stack(A[None], b[None])[1]
        want = np.linalg.norm(A @ scipy.optimize.nnls(A, b)[0] - b)
        threshold = cone._threshold(b, DEFAULT_TOL)
        if threshold / 4.0 < want < 4.0 * threshold:
            band += 1
            continue
        for got in (r, R[0]):
            assert (got <= threshold) == (want <= threshold)
            assert abs(got - want) <= threshold
    assert zero_steps == 0 and band <= 40


def outer_step_factors(A, b):
    """Run _nnls_stack on the one problem (A, b) and return, at the head
    of every outer step, its passive columns by the solver's passive
    mask and its factor: (passive, X, P, Qt, Ri, cols, nk) per step."""
    lines, start = inspect.getsourcelines(cone._nnls_stack)
    head = start + 1 + next(i for i, line in enumerate(lines)
                            if line.strip() == "while True:")
    steps = []

    def lines_of(frame, event, arg):
        if event == "line" and frame.f_lineno == head:
            v = frame.f_locals
            steps.append(tuple(v[name][:1].copy()
                               for name in ("passive", "X", "P", "Qt", "Ri", "cols", "nk")))
        return lines_of

    sys.settrace(lambda frame, event, arg:
                 lines_of if frame.f_code is cone._nnls_stack.__code__ else None)
    try:
        cone._nnls_stack(A[None], b[None])
    finally:
        sys.settrace(None)
    return steps


def test_factor_holds_the_passive_set_at_every_outer_step():
    # a retired column must leave the factor, or the next subproblem
    # solves on a column that is no longer passive
    rng = np.random.default_rng(53)
    for _ in range(400):
        A, b = near_duplicate_problem(rng)
        steps = outer_step_factors(A, b)
        assert steps
        for passive, X, P, Qt, Ri, cols, nk in steps:
            n = int(nk[0])
            np.testing.assert_array_equal(np.sort(cols[0, :n]), np.flatnonzero(passive[0]))
            check_factor(X, P, Qt, Ri, cols, nk, 0)


def blocked_then_needed(seed):
    """A problem (3, 4), turned by a seeded rotation, whose column 2 is
    1e14 (a_0 / 10 - a_1) / sqrt(2): in the span of columns 0 and 1 but
    outside their cone.  Columns 0 and 1 enter first; at their solution
    the gradient of column 2 on r is rounding noise, which, where it is
    positive, beats the gradient of the small column 3.  Column 3 must
    enter and retire column 1, and b is in the cone only with column 2
    again: b = 0.03 a_0 + 100 a_3 + 1e-15 sqrt(2) a_2."""
    rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    h = 1e14 * np.sqrt(0.5)
    A = np.array([[10.0, 0.0, h, 0.0], [0.0, 1.0, -h, 6e-3], [0.0, 0.0, 0.0, 1e-6]])
    return rotation @ A, rotation @ np.array([0.4, 0.5, 1e-4])


def solver_entries(monkeypatch, A, b):
    """Solve (A, b) by _nnls_stack, and return the columns it tried to
    enter, in order, each with whether its factor took it
    (_qr_append_stack); the appends of a drop are not entries."""
    append, tried = cone._qr_append_stack, []

    def traced(*args):
        ok = append(*args)
        caller = sys._getframe(1)
        if caller.f_code is cone._nnls_stack.__code__:
            tried.append((int(caller.f_locals["enter"][0]), bool(ok[0])))
        return ok

    with monkeypatch.context() as patch:
        patch.setattr(cone, "_qr_append_stack", traced)
        cone._nnls_stack(A[None], b[None])
    return tried


def test_a_column_in_the_passive_span_outside_their_cone_enters_unrejected(monkeypatch):
    # the gradient of column 2 off the span of columns 0 and 1 is 0 up to
    # rounding, so it never enters while they are passive, where the
    # factor would reject it as dependent; once column 3 retires column
    # 1, column 2 enters and stays
    for seed in range(40):
        A, b = blocked_then_needed(seed)
        w, rnorm = nnls(A, b)
        threshold = cone._threshold(b, DEFAULT_TOL)
        assert rnorm <= threshold and w[2] > 0.0
        market = OnePeriodMarket(prices=b, payoffs=A.T)
        assert project_to_cone(market).certificate is None
        tried = solver_entries(monkeypatch, A, b)
        assert all(ok for _, ok in tried) and (2, True) in tried


def test_a_problem_that_repeats_a_rejected_entry_stops_at_its_cap(monkeypatch):
    # a factor that rejects the first entry of one problem every time:
    # the problem tries it again each outer step, each try counts as a
    # solve, and it leaves the stack NaN at its cap, where nnls raises;
    # the others keep the bits of a stack without it
    A, b = stacked_problems(11, "random", 4, 6, 1.0)
    target, others = 3, np.delete(np.arange(len(b)), 3)
    column = int(np.argmax(A[target].T @ b[target]))
    assert (A[target].T @ b[target])[column] > 0.0
    cap = max(solves_needed(A[i], b[i]) for i in others)
    W_others, R_others = cone._nnls_stack(A[others], b[others], maxiter=cap)
    append = cone._qr_append_stack

    def refuse(problem):
        def append_but(Qt, Ri, nk, rows, n, a, cutoff, k):
            caller = sys._getframe(1)
            if caller.f_code is cone._nnls_stack.__code__:
                v = caller.f_locals
                cutoff = np.where((v["live"] == problem) & (v["enter"] == column), np.inf, cutoff)
            return append(Qt, Ri, nk, rows, n, a, cutoff, k)
        return append_but

    monkeypatch.setattr(cone, "_qr_append_stack", refuse(target))
    W, R, S = traced_stack(A, b, maxiter=cap)
    assert np.isnan(W[target]).all() and np.isnan(R[target]) and S[target] == cap + 1
    assert W[others].tobytes() == W_others.tobytes() and R[others].tobytes() == R_others.tobytes()
    assert np.isfinite(W_others).all()
    monkeypatch.setattr(cone, "_qr_append_stack", refuse(0))
    with pytest.raises(NonConvergence, match=f"within {cap} subproblem solves"):
        nnls(A[target], b[target], maxiter=cap)


def test_a_column_nearly_in_the_passive_span_enters_before_the_solver_stops():
    # a tree node of three children whose rows are coplanar to 5e-9,
    # priced inside their cone by weights 0.354, 0.363 and 0.252; at the
    # solution on the two outer rows, r rounds by about eps * ||b|| in
    # their span, which turned the inner row's gradient negative, and the
    # solver stopped at residual 0.299, above the threshold 0.137
    A = np.array([[1032476.7454486034, 100265142.95562097, 101297619.70106958],
                  [1032474.1794898207, 86050696.83255062, 87083168.3064601],
                  [1032476.7454486033, 117018831.63853317, 118051308.38398178]]).T
    b = np.array([999999.069659281, 96184880.00904807, 97184878.09774399])
    w, rnorm = nnls(A, b)
    assert (w > 0.0).all() and rnorm <= 1e-3 * cone._threshold(b, DEFAULT_TOL)
    np.testing.assert_allclose(w, [0.354, 0.363, 0.252], atol=1e-3)
    assert project_to_cone(OnePeriodMarket(prices=b, payoffs=A.T)).certificate is None


def square_stack(rng, m, p, scale, singular):
    """p square markets on shared payoff rows: children index k == m
    rows, prices are inside their cones (nonnegative weights) or outside
    (one weight of -0.5).  Every fourth market pays two opposite rows,
    parallel up to rounding, with weights 1e9: a direct solve returns
    weights that need not reprice it.  With singular, every third market
    repeats a row whose entries are powers of two, so LU meets an exact
    zero pivot."""
    rows = scale * rng.uniform(0.5, 1.5, size=(3 * m + 3, m))
    rows[0] = scale * 2.0 ** rng.integers(-2, 3, size=m)
    rows[1] = -(1.0 - 1e-9) * rows[2]
    children = np.array([rng.choice(np.arange(3, 3 * m + 3), size=m, replace=False)
                         for _ in range(p)])
    w = rng.uniform(0.1, 1.0, size=(p, m))
    if m > 1:
        children[::4, :2], w[::4, :2] = (1, 2), 1e9
    if singular:
        children[1::3, :2] = 0
    w[rng.random(p) < 0.5, int(rng.integers(m))] = -0.5
    prices = np.einsum("pkm,pk->pm", rows[children], w)
    return rows, children, prices


def test_square_stacks_give_the_node_verdicts():
    # two-child nodes are solved directly, and go through nnls where a
    # direct solve meets an exact zero pivot or fails its check; the
    # square nodes of 3, 5 and 60 children, whose determinants under- or
    # overflow at 60, all go through nnls
    rng = np.random.default_rng(59)
    cases = [(m, 1.0, singular) for m in (2, 3, 5) for singular in (False, True)]
    cases += [(60, scale, singular) for scale in (1e-6, 1e6) for singular in (False, True)]
    for m, scale, singular in cases:
        for _ in range(3 if m == 60 else 20):
            rows, children, prices = square_stack(rng, m, 6 if m == 60 else 24, scale, singular)
            A = rows[children].transpose(0, 2, 1)
            if singular:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(A, prices[..., None])
            if m == 60:
                # past the double range, apart from the singular nodes
                logdet = np.linalg.slogdet(A)[1] / np.log(10.0)
                logdet = logdet[np.isfinite(logdet)]
                assert ((logdet < -330.0) if scale < 1.0 else (logdet > 330.0)).all()
            weights, inside = cone._project_stack(rows, children, prices)
            for i in range(len(prices)):
                market = OnePeriodMarket(prices=prices[i], payoffs=rows[children[i]])
                single = project_to_cone(market).certificate
                assert inside[i] == (single is None)
                if inside[i]:
                    # weights near 1e9 make the rounding of this check
                    # about as large as the threshold
                    threshold = cone._threshold(prices[i], DEFAULT_TOL)
                    assert (weights[i] >= 0.0).all()
                    residual = np.linalg.norm(market.payoffs.T @ weights[i] - prices[i])
                    assert residual <= 2.0 * threshold


def test_splitting_a_level_changes_no_result(monkeypatch):
    # a market's weights and verdict are its own: a level solved in
    # stacks of one or three markets gives the bits of one stack, on
    # square nodes (also exactly singular ones) and on nodes that go
    # through _nnls_stack, under the size cut
    rng = np.random.default_rng(67)
    levels = [square_stack(rng, m, 24, 1.0, singular)
              for m in (2, 3, 5) for singular in (False, True)]
    for shape in [None] * 20 + CUT_SHAPES[:1]:
        A, b = mixed_stack(rng, shape)
        p, m, k = A.shape
        levels.append((A.transpose(0, 2, 1).reshape(-1, m), np.arange(p * k).reshape(p, k), b))
    kinds = set()
    for rows, children, prices in levels:
        (p, k), m = children.shape, rows.shape[1]
        monkeypatch.setattr(cone, "_STACK_ENTRIES", p * k * m)
        weights, inside = cone._project_stack(rows, children, prices)
        for height in (1, 3):
            monkeypatch.setattr(cone, "_STACK_ENTRIES", height * k * m)
            w, ok = cone._project_stack(rows, children, prices)
            assert w.tobytes() == weights.tobytes()
            np.testing.assert_array_equal(ok, inside)
        if k == m:
            try:
                np.linalg.solve(rows[children].transpose(0, 2, 1), prices[..., None])
            except np.linalg.LinAlgError:
                kinds.add("zero pivot")
            kinds.add("square")
        else:
            kinds.add("nnls")
        if inside.any():
            kinds.add("inside")
        if not inside.all():
            kinds.add("outside")
    assert kinds == {"square", "zero pivot", "nnls", "inside", "outside"}


# two-child, two-instrument nodes: the direct solve of _solve_direct


def binomial_pairs(rng, p):
    """p well-conditioned binomial nodes on their own payoff rows: the
    bond pays R**(j + 1) in both children and costs R**j, and the stock
    costs s, within a factor 2 of R**j, and pays d*s < R*s < u*s, with
    u / R from 1.5 to 2.5 and d / R from 1e-6 to 0.63.  The children
    and the two instruments come in either order, so either row of a
    node may hold the pivot, and a solve without row exchanges loses
    the small stock payoff of many nodes."""
    R = rng.uniform(1.0, 1.1, size=p)
    j = rng.integers(0, 30, size=p)
    s = R ** j * 10.0 ** rng.uniform(-0.3, 0.3, size=p)
    up, down = R * rng.uniform(1.5, 2.5, size=p), R * 10.0 ** rng.uniform(-6.0, -0.2, size=p)
    bond = R ** (j + 1)
    first, second = np.stack((bond, up * s), axis=1), np.stack((bond, down * s), axis=1)
    prices = np.stack((R ** j, s), axis=1)
    flip = rng.random(p) < 0.5
    first[flip], second[flip] = second[flip], first[flip].copy()
    swap = rng.random(p) < 0.5
    for t in (first, second, prices):
        t[swap] = t[swap, ::-1]
    rows = np.concatenate((first, second))
    return rows, np.stack((np.arange(p), p + np.arange(p)), axis=1), prices


def cramer(u, v, x):
    """The exact weights of w0 * u + w1 * v = x on the float inputs."""
    (a, c), (b, d), (x0, x1) = ([Fraction(t) for t in r] for r in (u, v, x))
    det = a * d - b * c
    return (x0 * d - b * x1) / det, (a * x1 - x0 * c) / det


def test_two_child_nodes_are_within_8_ulp_of_cramer():
    rng = np.random.default_rng(71)
    for _ in range(10):
        rows, children, prices = binomial_pairs(rng, 200)
        weights, inside = cone._project_stack(rows, children, prices)
        w, resid = cone._solve_direct(rows, children, prices)
        # every node is solved directly, and these weights are the result
        assert inside.all() and (resid <= cone._threshold(prices, DEFAULT_TOL)).all()
        assert w.tobytes() == weights.tobytes()
        for i, (c0, c1) in enumerate(children):
            for got, want in zip(weights[i], cramer(rows[c0], rows[c1], prices[i])):
                assert abs(Fraction(got) - want) <= 8 * math.ulp(float(want))


def test_two_child_weights_keep_their_bits_under_power_of_two_scaling():
    rng = np.random.default_rng(73)
    rows, children, prices = binomial_pairs(rng, 500)
    weights, inside = cone._project_stack(rows, children, prices)
    assert inside.all()
    for e in range(-30, 31):
        w, ok = cone._project_stack(rows * 2.0 ** e, children, prices * 2.0 ** e)
        assert ok.all()
        assert w.tobytes() == weights.tobytes()


def test_two_child_zero_pivots_and_overflow_get_the_node_verdicts():
    # a repeated child row of powers of two, or a zero child row, makes
    # an exact zero pivot; a tiny second pivot under a large price makes
    # the direct weights overflow.  Each goes through nnls, silently
    rng = np.random.default_rng(79)
    rows, children, prices = [], [], []
    for i in range(120):
        kind = i % 4
        r = rng.choice([-1.0, 1.0], size=2) * 2.0 ** rng.integers(-4, 5, size=2)
        if kind == 0:
            pair = [r, r]
        elif kind == 1:
            pair = [r, np.zeros(2)]
        elif kind == 2:
            pair = [np.zeros(2), r]
        else:
            pair = [np.array([1.0, 0.0]), np.array([rng.uniform(0.5, 2.0), 1e-300])]
        inside = rng.random() < 0.5
        if kind == 3:
            x = np.array([1.0, 10.0 ** rng.uniform(9.0, 12.0)])
        elif inside:
            x = rng.uniform(0.0, 2.0) * r
        else:
            x = rng.normal(size=2) * 3.0
        children.append([len(rows), len(rows) + 1])
        rows += pair
        prices.append(x)
    rows, children, prices = np.array(rows), np.array(children), np.array(prices)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, resid = cone._solve_direct(rows, children, prices)
        weights, inside = cone._project_stack(rows, children, prices)
    # no direct solve got through: every direct residual is inf
    assert not np.isfinite(w).all(axis=1).any() and np.isinf(resid).all()
    assert inside.any() and not inside.all()
    for i in range(len(prices)):
        market = OnePeriodMarket(prices=prices[i], payoffs=rows[children[i]])
        projection = project_to_cone(market)
        assert inside[i] == (projection.certificate is None)
        if inside[i]:
            assert (weights[i] >= 0.0).all()
            residual = np.linalg.norm(market.payoffs.T @ weights[i] - prices[i])
            assert residual <= cone._threshold(prices[i], DEFAULT_TOL)


def near_tie_pairs(rng, p):
    """p two-child nodes on nearly opposite payoff rows u, v at an angle
    pi - e, e from 1e-6 to 1e-4, priced by weights W + a, W with W up to
    1e7 and |a| <= W e: the prices are about W e long, so the rounding
    of the repricing, about eps * W, is near the threshold tol * W e and
    a node's direct verdict turns on the rounding of its residual.  Laid
    out as binomial_pairs's."""
    W, e = 10.0 ** rng.uniform(3.0, 7.0, size=p), 10.0 ** rng.uniform(-6.0, -4.0, size=p)
    turn = rng.uniform(0.0, 2.0 * np.pi, size=p)
    u = np.stack((np.cos(turn), np.sin(turn)), axis=1)
    v = -np.stack((np.cos(turn + e), np.sin(turn + e)), axis=1)
    prices = (W * (1.0 + e * rng.uniform(-1.0, 1.0, size=p)))[:, None] * u + W[:, None] * v
    return np.concatenate((u, v)), np.stack((np.arange(p), p + np.arange(p)), axis=1), prices


def allowance_direct(rows, children, x, threshold, size):
    """_solve_direct on two-child nodes, its pivot row picked by gathers
    from raveled copies, decided as it was with a rounding allowance
    rel * size(A) * size(w) on the residual in pivot-row order: size
    np.hypot gives the Frobenius allowance rel * ||A||_F * ||w||_2, and
    largest the allowance rel * max|A_ij| * max|w_j| the direct path
    took before it decided on the residual _reprice reports."""
    u, v = rows[children[:, 0]], rows[children[:, 1]]
    top = 2 * np.arange(len(x)) + (np.abs(u[:, 1]) > np.abs(u[:, 0]))
    (a, b, y0), (c, d, y1) = ([t.ravel()[e] for t in (u, v, x)] for e in (top, top ^ 1))
    rel = 10.0 * np.finfo(float).eps * 2
    with np.errstate(all="ignore"):
        l = c / a
        pivot = d - l * b
        w1 = (y1 - l * y0) / pivot
        w0 = (y0 - b * w1) / a
        resid = np.hypot(a * w0 + b * w1 - y0, c * w0 + d * w1 - y1)
        resid += rel * size(size(a, b), size(c, d)) * size(w0, w1)
        ok = ((w0 >= 0.0) & (w1 >= 0.0) & (resid <= threshold)
              & (np.abs(pivot) > rel * np.maximum(np.abs(b), np.abs(d))))
    return np.stack([w0, w1], 1), ok


def largest(s, t):
    """max(|s|, |t|), elementwise."""
    return np.maximum(np.abs(s), np.abs(t))


def test_a_direct_node_is_decided_on_its_reported_residual():
    # the residual _solve_direct returns is the one _reprice reports on
    # its weights, to the bit, in _reprice's einsum products at k = 2-6
    # and at k = 40, at every scale; every node's verdict is its reported
    # residual within the threshold, and a node within it is taken
    # directly.  Every near tie the old allowance rel * max|A_ij| *
    # max|w_j| took directly is still taken, and some it sent to the
    # solver are taken now
    rng = np.random.default_rng(107)
    ties = 0
    draws = [partial(two_instrument_nodes, k=k) for k in (2, 3, 4, 5, 6, 40)]
    for draw in draws + [binomial_pairs, near_tie_pairs]:
        for _ in range(3):
            rows, children, x = draw(rng, 300)[:3]
            scale = 10.0 ** rng.uniform(-6.0, 6.0, size=len(x))
            row_scale = np.empty(len(rows))
            row_scale[children] = scale[:, None]
            rows, x = rows * row_scale[:, None], x * scale[:, None]
            X, threshold = rows[children], cone._threshold(x, DEFAULT_TOL)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                w, resid = cone._solve_direct(rows, children, x)
                weights, inside = cone._project_stack(rows, children, x)
            usable = np.isfinite(resid)
            assert usable.sum() >= 100
            reported = cone._reprice(w[usable], X[usable], x[usable])[2]
            assert resid[usable].tobytes() == reported.tobytes()
            np.testing.assert_array_equal(inside, cone._reprice(weights, X, x)[2] <= threshold)
            direct = resid <= threshold
            assert weights[direct].tobytes() == w[direct].tobytes()
            if draw is near_tie_pairs:
                old = allowance_direct(rows, children, x, threshold, largest)[1]
                assert not (old & ~direct).any()
                ties += (direct & ~old).sum()
    assert ties > 0


def test_every_node_the_frobenius_allowance_took_directly_is_still_taken_with_its_weights():
    # a direct node is decided on the residual it reports, which the
    # computed residual plus rel * ||A||_F * ||w||_2 bounds: every node
    # the Frobenius allowance took directly is still taken, with the same
    # weights.  A node it did not take went to the solver: it gets the
    # verdict the solver's reported residual gives it, and
    # project_to_cone's, and its own reported residual is within the
    # threshold
    rng = np.random.default_rng(103)
    flipped = 0
    for draw in (binomial_pairs, near_tie_pairs):
        for _ in range(5):
            rows, children, x = draw(rng, 400)
            scale = 10.0 ** rng.uniform(-6.0, 6.0, size=len(x))
            rows, x = rows * np.concatenate((scale, scale))[:, None], x * scale[:, None]
            threshold = cone._threshold(x, DEFAULT_TOL)
            w, resid = cone._solve_direct(rows, children, x)
            ok = resid <= threshold
            w_f, ok_f = allowance_direct(rows, children, x, threshold, np.hypot)
            assert not (ok_f & ~ok).any()
            assert w.tobytes() == w_f.tobytes()
            weights, inside = cone._project_stack(rows, children, x)
            assert weights[ok].tobytes() == w[ok].tobytes() and inside[ok].all()
            new = np.flatnonzero(ok & ~ok_f)
            X = rows[children[new]]
            W = cone._nnls_stack(X.transpose(0, 2, 1), x[new])[0]
            assert (cone._reprice(W, X, x[new])[2] <= threshold[new]).all()
            assert (cone._reprice(w[new], X, x[new])[2] <= threshold[new]).all()
            for i in new:
                market = OnePeriodMarket(prices=x[i], payoffs=rows[children[i]])
                assert project_to_cone(market).certificate is None
            flipped += new.size
            if draw is binomial_pairs:
                assert ok.all()
    assert flipped > 0


# two-instrument nodes of more than two children: _solve_direct on the
# pair that the active-set solver enters first

NODE_KINDS = ("fair", "arbitrage", "zero row", "duplicated", "one ray", "extreme ray")


def two_instrument_nodes(rng, p, k):
    """p two-instrument nodes of k children on their own payoff rows, of
    the six NODE_KINDS at random: prices inside the cone of positive weights
    (some of them 0), prices drawn anywhere, a zero child row, a child
    duplicated, all children on one ray, and prices a power of two times
    the child row of largest angle, exactly on an extreme ray when the
    cone is pointed.  Half the nodes pay positive rows, as a bond and a
    stock do, the others rows of any sign.  Returns the rows, children,
    prices and each node's kind."""
    X = rng.normal(size=(p, k, 2)) * rng.lognormal(size=(p, k, 1))
    positive = rng.random(p) < 0.5
    X[positive] = np.abs(X[positive])
    kind = rng.integers(len(NODE_KINDS), size=p)
    X[kind == 2, 0] = 0.0
    X[kind == 3, 1] = X[kind == 3, 0]
    ray = kind == 4
    X[ray] = X[ray, :1] * rng.uniform(0.1, 2.0, size=(ray.sum(), k, 1))
    q = rng.uniform(0.0, 1.0, size=(p, k)) * (rng.random((p, k)) < 0.8)
    x = np.einsum("pkm,pk->pm", X, q)
    arb = kind == 1
    x[arb] = rng.normal(size=(arb.sum(), 2)) * np.abs(x[arb]).max(axis=1, keepdims=True)
    edge = np.flatnonzero(kind == 5)
    j = np.arctan2(X[edge, :, 1], X[edge, :, 0]).argmax(axis=1)
    x[edge] = X[edge, j] * 2.0 ** rng.integers(-2, 3, size=(edge.size, 1))
    return X.reshape(-1, 2), np.arange(p * k).reshape(p, k), x, kind


def test_two_instrument_nodes_get_the_verdicts_and_weights_of_nnls():
    # the direct pair is the one _nnls_stack ends on, or the node goes to
    # it: same verdict, and on inside nodes weights within the rounding
    # of two backward-stable solves of the pair, 8 eps cond (under 1e-13
    # relative for a pair of condition up to 56); nodes that fall back
    # have its bits
    rng = np.random.default_rng(83)
    seen = {name: [0, 0] for name in NODE_KINDS}
    eps = np.finfo(float).eps
    for k in (3, 4, 5, 6):
        for _ in range(3):
            rows, children, x, kind = two_instrument_nodes(rng, 300, k)
            threshold = cone._threshold(x, DEFAULT_TOL)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                weights, inside = cone._project_stack(rows, children, x)
                direct = cone._solve_direct(rows, children, x)[1] <= threshold
            W, rnorm = cone._nnls_stack(rows[children].transpose(0, 2, 1), x)
            np.testing.assert_array_equal(inside, rnorm <= threshold)
            assert weights[~direct].tobytes() == W[~direct].tobytes()
            for i in np.flatnonzero(direct):
                pair = rows[children[i, (weights[i] != 0.0) | (W[i] != 0.0)]]
                cond = np.linalg.cond(pair) if len(pair) == 2 else 1.0
                gap = np.abs(weights[i] - W[i]).max()
                assert gap <= 8.0 * eps * cond * np.abs(W[i]).max()
            for name, s in zip(NODE_KINDS, np.arange(len(NODE_KINDS))[:, None] == kind):
                seen[name][0] += (s & direct).sum()
                seen[name][1] += (s & ~inside).sum()
    # every kind but one ray has directly solved nodes; a pair on one
    # ray has no direct solution, and only the drawn prices lie outside
    assert all(seen[name][0] > 0 for name in NODE_KINDS if name != "one ray")
    assert seen["one ray"][0] == 0
    assert seen["arbitrage"][1] > 0
    assert sum(outside for _, outside in seen.values()) == seen["arbitrage"][1]


def test_planted_trinomial_node_takes_its_certificate_from_nnls(monkeypatch):
    # the stock costs more than every child pays over R: no direct pair
    # reprices the node, so its weights, verdict and certificate are those
    # of the active-set solver, alone and as the root of a tree
    payoffs = np.array([[1.05, 80.0], [1.05, 100.0], [1.05, 125.0]])
    market = OnePeriodMarket(prices=np.array([1.0, 130.0]), payoffs=payoffs)
    prices = market.prices[None]
    resid = cone._solve_direct(payoffs, np.arange(3)[None], prices)[1]
    assert not (resid <= cone._threshold(prices, DEFAULT_TOL)).any()
    stack, solved = cone._nnls_stack, []

    def counted(A, b, maxiter=None):
        solved.append(len(A))
        return stack(A, b, maxiter)

    monkeypatch.setattr(cone, "_nnls_stack", counted)
    projection = project_to_cone(market)
    assert solved == [1]
    W = stack(payoffs.T[None], prices)[0][0]
    assert projection.weights.tobytes() == W.tobytes()
    want = cone._projection(payoffs, market.prices, W, False).certificate
    certificate = projection.certificate
    assert certificate.gamma.tobytes() == want.gamma.tobytes()
    assert (certificate.setup_gain, certificate.min_payoff) == (want.setup_gain, want.min_payoff)
    assert verify_position(market, certificate.gamma).is_arbitrage
    node = find_tree_deflator(panel_from_one_period(market))
    assert isinstance(node, NodeArbitrage) and (node.time, node.block) == (0, 0)
    assert node.certificate.gamma.tobytes() == want.gamma.tobytes()
    assert solved == [1, 1]


def trinomial_nodes(rng, p, k):
    """p fair bond-and-stock nodes of k children on their own payoff
    rows, shaped as binomial_pairs's: the bond pays R**(j + 1) and costs
    R**j, one child's stock pays u*s, one d*s and the others m*s, with
    u / R from 1.5 to 2.5, d / R from 1e-6 to 0.63 and m / R from 0.63 to
    1.5, in random order, priced by positive weights.  The two
    instruments come in either order."""
    R = rng.uniform(1.0, 1.1, size=(p, 1))
    j = rng.integers(0, 30, size=(p, 1))
    s = R ** j * 10.0 ** rng.uniform(-0.3, 0.3, size=(p, 1))
    moves = rng.uniform(0.63, 1.5, size=(p, k))
    moves[:, 0] = rng.uniform(1.5, 2.5, size=p)
    moves[:, 1] = 10.0 ** rng.uniform(-6.0, -0.2, size=p)
    X = np.stack((np.broadcast_to(R ** (j + 1), (p, k)), rng.permuted(moves, axis=1) * R * s),
                 axis=2)
    x = np.einsum("pkm,pk->pm", X, rng.uniform(0.2, 1.0, size=(p, k)))
    swap = rng.random(p) < 0.5
    X[swap], x[swap] = X[swap, :, ::-1], x[swap, ::-1]
    return X.reshape(-1, 2), np.arange(p * k).reshape(p, k), x


def test_many_child_nodes_are_within_8_ulp_of_cramer_on_their_pair():
    rng = np.random.default_rng(89)
    for k in (3, 4, 5, 6):
        for _ in range(3):
            rows, children, prices = trinomial_nodes(rng, 200, k)
            weights, inside = cone._project_stack(rows, children, prices)
            w, resid = cone._solve_direct(rows, children, prices)
            # every node is solved directly on two children
            assert inside.all() and (resid <= cone._threshold(prices, DEFAULT_TOL)).all()
            assert w.tobytes() == weights.tobytes()
            assert ((weights > 0.0).sum(axis=1) == 2).all()
            for i in range(len(prices)):
                c0, c1 = children[i, weights[i] > 0.0]
                pair = weights[i, weights[i] > 0.0]
                for got, want in zip(pair, cramer(rows[c0], rows[c1], prices[i])):
                    assert abs(Fraction(got) - want) <= 8 * math.ulp(float(want))


def gathered_twice_direct(rows, children, x):
    """_solve_direct on nodes of k > 2 children as it was: A^T x and A^T r
    by np.einsum, the pair picked from the gather X by a 2-D fancy index
    and gathered again from rows through children, then solved by the
    two-child branch, and its weights spread back over the k children."""
    (p, k), i = children.shape, np.arange(len(x))
    X = np.take(rows, children, axis=0)
    g = np.einsum("pkm,pm->pk", X, x)
    j1 = g.argmax(axis=1)
    first = X[i, j1]
    with np.errstate(all="ignore"):
        r = x - (g[i, j1] / np.einsum("pm,pm->p", first, first))[:, None] * first
    g = np.einsum("pkm,pm->pk", X, r)
    g[i, j1] = -np.inf
    j2 = g.argmax(axis=1)
    pair, resid = cone._solve_direct(rows, np.stack((children[i, j1], children[i, j2]), 1), x)
    w = np.zeros((p, k))
    w[i, j1], w[i, j2] = pair[:, 0], pair[:, 1]
    return w, resid


def test_many_child_direct_solve_keeps_the_bytes_of_the_double_gather():
    # the pair is taken from one gather of the child rows: the weights
    # and residuals keep the bytes of the pair gathered twice, at k = 3-6
    # and 40, at market scales 1e-6 to 1e6, with the child rows stored
    # out of node order; where A^T x ties on duplicated children the
    # first wins, and a pair with a negative weight keeps its inf
    rng = np.random.default_rng(113)
    ties = negative = 0
    for k in (3, 4, 5, 6, 40):
        for e in range(-6, 7, 3):
            rows, children, x, kind = two_instrument_nodes(rng, 200, k)
            scale = 10.0 ** (e + rng.uniform(-0.5, 0.5, size=len(x)))
            rows = rows * np.repeat(scale, k)[:, None]
            x = x * scale[:, None]
            order = rng.permutation(len(rows))
            rows, children = rows[order], np.argsort(order)[children]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                w, resid = cone._solve_direct(rows, children, x)
            want_w, want_resid = gathered_twice_direct(rows, children, x)
            assert w.tobytes() == want_w.tobytes()
            assert resid.tobytes() == want_resid.tobytes()
            # children 0 and 1 of a duplicated node tie for the first pick
            g = np.einsum("pkm,pm->pk", rows[children], x)
            ties += ((kind == 3) & (g[:, 0] == g.max(axis=1))).sum()
            negative += (np.isinf(resid) & np.isfinite(w).all(axis=1) & (w < 0.0).any(axis=1)).sum()
    assert ties > 0 and negative > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_one_period_verdicts_refuse_a_tolerance_not_finite_and_positive(tol):
    # at tol 0 the fair market's "certificate" was the bond, which costs
    # 1; at inf the overpriced one had a deflator with a negative weight,
    # as an inf residual passed an inf threshold; at -0.0046 the bond
    # position, which costs 1.0 and pays 1.05, was called an arbitrage
    fair = OnePeriodMarket([1.0, 100.0], [[1.05, 90.0], [1.05, 121.0]])
    overpriced = OnePeriodMarket([1.0, 130.0], fair.payoffs)
    for bad in (tol, -0.0046):
        for market in (fair, overpriced):
            calls = (lambda: project_to_cone(market, bad), lambda: find_arbitrage(market, bad),
                     lambda: find_arbitrage(market, tol=bad),
                     lambda: verify_position(market, [1.0, 0.0], bad))
            for call in calls:
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"tol: the tolerance must be finite and > 0, not {bad!r}"
    assert find_arbitrage(fair) is None and find_arbitrage(overpriced) is not None
    assert not verify_position(fair, [1.0, 0.0], 0.0046).is_arbitrage


def test_the_tolerance_rule_has_one_owner():
    # the CLI's --tol and options.tolerance use the library's rule
    from deflator import cli, market_files
    assert cli.check_tolerance is market_files.check_tolerance is cone.check_tolerance
    assert cone.check_tolerance(1, "tol") == 1.0 and type(cone.check_tolerance(1, "tol")) is float


def test_market_and_nnls_refuse_misshapen_input():
    with pytest.raises(DimensionMismatch, match="prices must be a vector and payoffs a matrix"):
        OnePeriodMarket(prices=[[1.0, 2.0]], payoffs=[[1.0, 2.0]])
    with pytest.raises(DimensionMismatch, match="3 labels for 2 outcomes"):
        OnePeriodMarket(prices=[1.0], payoffs=[[1.0], [2.0]], labels=("a", "b", "c"))
    for A, b in (([1.0, 2.0], [1.0, 2.0]), ([[1.0, 2.0]], [1.0, 2.0]), ([[1.0]], [[1.0]])):
        with pytest.raises(DimensionMismatch, match=r"nnls needs A \(m, n\) and b \(m,\)"):
            nnls(A, b)
