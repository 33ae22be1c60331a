"""Pricing, returns, and least squares hedging in one-period markets.

The hedge solver is checked against the closed-form two-instrument
regression and against brute perturbation (no nearby position does
better), and the binomial pricer against its replication algebra.
"""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from deflator import (
    Deflator,
    DimensionMismatch,
    OnePeriodMarket,
    SingularGram,
    ZeroCost,
    deflator_from_projection,
    find_arbitrage,
    least_squares_hedge,
    price_payoff,
    project_to_cone,
    realized_return,
    verify_position,
)
from deflator.market_files import load_market_spec

from _fixtures import (NoArbitrageViolation, binomial_price, binomial_price_states,
                       parity_and_carry_fixtures)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fair_binomial(R=1.05, s=100.0, d=0.9, u=1.2):
    market = OnePeriodMarket(prices=np.array([1.0, s]),
                             payoffs=np.array([[R, s * d], [R, s * u]]))
    deflator = deflator_from_projection(project_to_cone(market))
    assert deflator is not None
    return market, deflator


# ---------------------------------------------------------------------------
# pricing and returns


def test_price_payoff_reprices_the_market_instruments():
    market, deflator = fair_binomial()
    for col in range(market.n_instruments):
        price = price_payoff(market, deflator, market.payoffs[:, col])
        assert price == pytest.approx(market.prices[col], abs=1e-9)


def test_price_payoff_call_matches_binomial_formula():
    market, deflator = fair_binomial()
    call = np.maximum(market.payoffs[:, 1] - 100.0, 0.0)
    expected = binomial_price(1.05, 100.0, 0.9, 1.2,
                              lambda x: max(x - 100.0, 0.0))["value"]
    assert price_payoff(market, deflator, call) == pytest.approx(expected, abs=1e-9)


def test_realized_return_of_the_bond_is_its_rate():
    market, _ = fair_binomial(R=1.07)
    returns = realized_return(market, [1.0, 0.0])
    np.testing.assert_allclose(returns, [1.07, 1.07])


def test_realized_return_rejects_zero_cost_positions():
    # the slack is in units of the position: no position, and one that
    # costs nothing, raise at every market scale, while a bond position
    # of 1e-12 has its return
    market, _ = fair_binomial()
    for c in (1e-6, 1.0, 1e6):
        scaled = OnePeriodMarket(prices=c * market.prices, payoffs=c * market.payoffs)
        for gamma in ([100.0, -1.0], [0.0, 0.0]):
            with pytest.raises(ZeroCost):
                realized_return(scaled, gamma)
        np.testing.assert_allclose(realized_return(scaled, [1e-12, 0.0]), [1.05, 1.05])


def test_realized_return_divides_the_certificate_products():
    # X gamma and gamma . x are formed as for the certificate: a
    # certificate's returns are its payoffs over -setup_gain, and the
    # best of them its min_payoff over that cost, to the bit
    rng = np.random.default_rng(13)
    markets = [load_market_spec(FIXTURES / "ex5.json").payload]
    for n, m in ((4, 2), (7, 3), (12, 5), (300, 12)):
        for _ in range(20):
            payoffs = np.abs(rng.normal(size=(n, m))) * rng.lognormal(size=m)
            markets.append(OnePeriodMarket(prices=rng.normal(size=m), payoffs=payoffs))
    certified = 0
    for market in markets:
        certificate = find_arbitrage(market)
        if certificate is None:
            continue
        returns = realized_return(market, certificate.gamma)
        payoff = np.einsum("ij,j->i", market.payoffs, certificate.gamma)
        assert returns.tobytes() == (payoff / -certificate.setup_gain).tobytes()
        assert returns.max() == certificate.min_payoff / -certificate.setup_gain
        certified += 1
    assert certified >= 60


# ---------------------------------------------------------------------------
# least squares hedging


def test_replicable_payoff_is_hedged_exactly():
    market, deflator = fair_binomial()
    target_gamma = np.array([-3.0, 0.25])
    result = least_squares_hedge(market, deflator,
                                 market.payoffs @ target_gamma)
    np.testing.assert_allclose(result.gamma, target_gamma, atol=1e-9)
    assert result.least_squared_error == pytest.approx(0.0, abs=1e-12)
    assert result.hedge_cost == pytest.approx(target_gamma @ market.prices)


def test_hedge_matches_weighted_regression_closed_form():
    """Two instruments (bond, stock): shares are the weighted regression
    slope Cov(S, V) / Var(S) and the bond soaks up the mean."""
    rng = np.random.default_rng(5)
    R = 1.03
    omegas = np.array([70.0, 90.0, 100.0, 115.0, 140.0])
    payoffs = np.column_stack([np.full(5, R), omegas])
    pi = rng.uniform(0.05, 0.3, size=5)
    market = OnePeriodMarket(prices=payoffs.T @ pi, payoffs=payoffs)
    deflator = Deflator(atom_weights=pi)
    v = np.maximum(omegas - 95.0, 0.0) ** 1.5

    p = pi / pi.sum()
    var_s = p @ (omegas - p @ omegas) ** 2
    shares = (p @ ((omegas - p @ omegas) * (v - p @ v))) / var_s
    bond = (p @ v - shares * (p @ omegas)) / R

    result = least_squares_hedge(market, deflator, v)
    np.testing.assert_allclose(result.gamma, [bond, shares], rtol=1e-10)
    residual = v - payoffs @ result.gamma
    assert result.least_squared_error == pytest.approx(pi @ residual ** 2,
                                                       rel=1e-8, abs=1e-12)


def test_hedge_is_a_minimum_under_perturbation():
    rng = np.random.default_rng(11)
    omegas = np.linspace(50.0, 150.0, 7)
    payoffs = np.column_stack([np.ones(7), omegas, (omegas - 100.0) ** 2])
    pi = rng.uniform(0.01, 0.2, size=7)
    market = OnePeriodMarket(prices=payoffs.T @ pi, payoffs=payoffs)
    deflator = Deflator(atom_weights=pi)
    v = np.sin(omegas / 20.0) * 10.0
    result = least_squares_hedge(market, deflator, v)

    def lse(gamma):
        return pi @ (v - payoffs @ gamma) ** 2

    for _ in range(50):
        delta = rng.normal(size=3) * 0.1
        assert lse(result.gamma) <= lse(result.gamma + delta) + 1e-12


def test_collinear_instruments_raise_singular_gram():
    omegas = np.array([90.0, 110.0])
    payoffs = np.column_stack([omegas, 2.0 * omegas])
    market = OnePeriodMarket(prices=np.array([100.0, 200.0]), payoffs=payoffs)
    deflator = Deflator(atom_weights=np.array([0.5, 0.4]))
    with pytest.raises(SingularGram) as excinfo:
        least_squares_hedge(market, deflator, omegas)
    assert excinfo.value.index is not None


def near_collinear_market(distance):
    """Bond, stock and a third instrument whose deflator-weighted
    distance from their span is distance times the largest weighted
    column norm."""
    omegas = np.array([80.0, 95.0, 105.0, 130.0])
    pi = np.array([0.2, 0.3, 0.25, 0.2])
    root = np.sqrt(pi)
    two = np.column_stack([np.ones(4), omegas])
    bump = np.array([1.0, -2.0, 0.5, 3.0])
    coef = np.linalg.lstsq(two * root[:, None], bump * root, rcond=None)[0]
    bump = bump - two @ coef            # weighted-orthogonal to bond and stock
    bump /= np.linalg.norm(bump * root)
    scale = np.linalg.norm(omegas * root)
    third = 0.5 + 0.01 * omegas + distance * scale * bump
    assert np.linalg.norm(third * root) < scale
    payoffs = np.column_stack([two, third])
    return (OnePeriodMarket(prices=payoffs.T @ pi, payoffs=payoffs),
            Deflator(atom_weights=pi))


def test_singular_gram_cutoff_is_a_millionth_of_the_largest_column():
    # a Gram pivot at most 1e-12 of the largest Gram diagonal entry is a
    # diagonal entry of R at most 1e-6 of the largest weighted column norm
    market, deflator = near_collinear_market(1e-7)
    with pytest.raises(SingularGram) as excinfo:
        least_squares_hedge(market, deflator, market.payoffs[:, 1] ** 2)
    assert excinfo.value.index == 2
    market, deflator = near_collinear_market(1e-5)
    result = least_squares_hedge(market, deflator, market.payoffs[:, 1] ** 2)
    assert np.isfinite(result.gamma).all()


def test_more_instruments_than_outcomes_raise_at_the_first_extra():
    rng = np.random.default_rng(23)
    payoffs = rng.uniform(0.5, 2.0, size=(3, 5))
    pi = rng.uniform(0.1, 0.4, size=3)
    market = OnePeriodMarket(prices=payoffs.T @ pi, payoffs=payoffs)
    with pytest.raises(SingularGram) as excinfo:
        least_squares_hedge(market, Deflator(atom_weights=pi), np.ones(3))
    assert excinfo.value.index == market.n_outcomes


def test_fair_binomial_call_hedge_is_the_exact_replication():
    """Two outcomes and two instruments replicate the call exactly: the
    hedge is Cramer's rule on the fixture's floats, to a few ulp."""
    market = load_market_spec(FIXTURES / "fair_binomial.json").payload
    deflator = deflator_from_projection(project_to_cone(market))
    call = np.maximum(market.payoffs[:, 1] - 100.0, 0.0)
    gamma = least_squares_hedge(market, deflator, call).gamma
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in market.payoffs.tolist()]
    v0, v1 = (Fraction(x) for x in call.tolist())
    det = a * d - b * c
    for got, exact in zip(gamma.tolist(), ((v0 * d - b * v1) / det, (a * v1 - c * v0) / det)):
        assert abs(Fraction(got) - exact) <= 4 * math.ulp(float(exact))


# ---------------------------------------------------------------------------
# binomial pricing


def test_binomial_replication_identities():
    rng = np.random.default_rng(17)
    for _ in range(50):
        R = rng.uniform(1.0, 1.1)
        s = rng.uniform(10.0, 200.0)
        d = rng.uniform(0.6, R - 1e-9)
        u = rng.uniform(R + 1e-9, 1.8)
        k = s * rng.uniform(0.7, 1.3)
        quote = binomial_price(R, s, d, u, lambda x: max(x - k, 0.0))
        v_down, v_up = max(s * d - k, 0.0), max(s * u - k, 0.0)
        assert quote["shares"] == (v_up - v_down) / (s * u - s * d)
        # the replicating portfolio hits both terminal values
        assert quote["bond"] * R + quote["shares"] * s * d == pytest.approx(v_down, abs=1e-9)
        assert quote["bond"] * R + quote["shares"] * s * u == pytest.approx(v_up, abs=1e-9)
        assert quote["value"] == pytest.approx(quote["bond"] + quote["shares"] * s,
                                               rel=1e-12, abs=1e-12)


def test_binomial_rejects_dominated_markets():
    with pytest.raises(NoArbitrageViolation):
        binomial_price(1.2, 100.0, 0.9, 1.1, lambda x: x)   # R above u
    with pytest.raises(NoArbitrageViolation):
        binomial_price(0.8, 100.0, 0.9, 1.1, lambda x: x)   # R below d
    with pytest.raises(NoArbitrageViolation):
        binomial_price_states(1.0, 100.0, 100.0, 100.0, lambda x: x)


def test_binomial_boundary_rates_are_allowed():
    quote = binomial_price(1.1, 100.0, 1.1, 1.5, lambda x: max(x - 120.0, 0.0))
    assert quote["value"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# parity and carry fixtures


def test_parity_market_is_arbitrage_free_and_gamma_is_flat():
    parity, carry = parity_and_carry_fixtures()
    assert find_arbitrage(parity.market) is None
    assert find_arbitrage(carry.market) is None
    # the parity position has identically zero payoff and zero cost
    np.testing.assert_allclose(parity.market.payoffs @ parity.gamma,
                               np.zeros(parity.market.n_outcomes), atol=1e-9)
    assert parity.gamma @ parity.market.prices == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("offset", [0.5, -0.5])
def test_parity_violations_are_arbitrage(offset):
    parity, _ = parity_and_carry_fixtures(call_offset=offset)
    assert parity.arbitrage_expected
    certificate = find_arbitrage(parity.market)
    assert certificate is not None
    report = verify_position(parity.market, certificate.gamma, tol=1e-7)
    assert report.is_arbitrage
    # the flat parity position itself monetizes the mispricing one way
    flat = parity.gamma if offset > 0 else -parity.gamma
    assert verify_position(parity.market, flat).is_arbitrage


@pytest.mark.parametrize("offset", [2.0, -2.0])
def test_carry_market_forces_the_forward_price(offset):
    _, carry = parity_and_carry_fixtures(forward_offset=offset)
    assert find_arbitrage(carry.market) is not None


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_realized_return_refuses_a_tolerance_not_finite_and_positive(tol):
    market, _ = fair_binomial()
    with pytest.raises(ValueError, match="tol: the tolerance must be finite and > 0"):
        realized_return(market, [1.0, 0.0], tol)
    assert np.array_equal(realized_return(market, [1.0, 0.0]), [1.05, 1.05])


def test_payoff_of_the_wrong_length_names_both_counts():
    market = OnePeriodMarket(prices=[1.0, 100.0], payoffs=[[1.05, 95.0], [1.05, 115.0]])
    deflator = deflator_from_projection(project_to_cone(market))
    for call in (price_payoff, least_squares_hedge):
        with pytest.raises(DimensionMismatch, match=r"payoff has 3 values in shape \(3,\); "
                                             r"need one value per outcome \(2\)"):
            call(market, deflator, [1.0, 2.0, 3.0])
