"""Closed-form oracles and fixture markets shared by the tests.

Tests import these with ``from _fixtures import ...``; none of them is
part of the library: each is a check or a market with a known verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deflator import DeflatorError, OnePeriodMarket


class NoArbitrageViolation(DeflatorError):
    """Model parameters violate a no-arbitrage precondition."""


def binomial_price(R: float, s: float, d: float, u: float, payoff) -> dict:
    """Price and replicate a payoff in the two-state market.

    The stock moves from s to s*d or s*u while cash grows by the gross
    rate R.  Requires 0 < d <= R <= u, otherwise the market itself is an
    arbitrage and no price exists.

    payoff : callable evaluated at the terminal stock prices s*d, s*u.

    Returns {"value", "shares", "bond"}: the replication value
    (1/R) * ((u-R)/(u-d) V(sd) + (R-d)/(u-d) V(su)), the stock holding
    (V(su)-V(sd)) / (su-sd) and the cash position (V(sd) - shares*sd)/R.
    """
    return binomial_price_states(R, s, s * d, s * u, payoff)


def binomial_price_states(R: float, s: float, s_down: float, s_up: float,
                          payoff) -> dict:
    """General form of binomial_price with terminal states quoted directly.

    Requires s_down <= R*s <= s_up and s_down < s_up.
    """
    if not (s_down < s_up):
        raise NoArbitrageViolation("need two distinct terminal states")
    if not (s_down <= R * s <= s_up):
        raise NoArbitrageViolation(
            f"forward price {R * s} must lie in [{s_down}, {s_up}]")
    v_down, v_up = float(payoff(s_down)), float(payoff(s_up))
    spread = s_up - s_down
    value = ((s_up - R * s) * v_down + (R * s - s_down) * v_up) / (R * spread)
    shares = (v_up - v_down) / spread
    bond = (v_down - shares * s_down) / R
    return {"value": value, "shares": shares, "bond": bond}


@dataclass(frozen=True)
class MarketFixture:
    """A market with a known verdict, for exercising the detector."""

    name: str
    market: OnePeriodMarket
    arbitrage_expected: bool
    gamma: np.ndarray | None = None     # known flat position when one exists


def parity_and_carry_fixtures(R: float = 1.1, s: float = 100.0, k: float = 100.0,
                              put: float = 4.0, call_offset: float = 0.0,
                              forward_offset: float = 0.0) -> list[MarketFixture]:
    """Markets encoding put-call parity and the cost of carry.

    The parity market holds bond, stock, call and put sampled at the
    strike, the endpoints and a far point; the flat position
    gamma = (-k/R, 1, -1, 1) has identically zero payoff, so prices are
    arbitrage-free exactly when call - put = s - k/R.  call_offset
    perturbs the call away from parity.

    The carry market holds bond, stock and a forward contract with
    delivery price f = R*s + forward_offset; its payoff cone is spanned
    by the zero-stock outcome (R, 0, -f) and the large-stock ray
    (0, 1, 1), so prices (1, s, 0) are arbitrage-free exactly when
    f = R*s.
    """
    call = put + s - k / R + call_offset
    far = 10.0 * max(k, s)
    omegas = np.array([0.0, 0.5 * k, k, 2.0 * k, far])
    payoffs = np.column_stack([
        np.full_like(omegas, R),
        omegas,
        np.maximum(omegas - k, 0.0),
        np.maximum(k - omegas, 0.0),
    ])
    parity = MarketFixture(
        name="parity",
        market=OnePeriodMarket(
            prices=np.array([1.0, s, call, put]),
            payoffs=payoffs,
            labels=tuple(f"s={w:g}" for w in omegas)),
        arbitrage_expected=(call_offset != 0.0),
        gamma=np.array([-k / R, 1.0, -1.0, 1.0]),
    )

    f = R * s + forward_offset
    carry_payoffs = np.array([
        [R, 0.0, -f],           # stock worthless: forward pays -f
        [0.0, 1.0, 1.0],        # direction of unbounded stock outcomes
        [R, f, 0.0],            # stock at the delivery price
        [R, 2.0 * f, f],
    ])
    carry = MarketFixture(
        name="carry",
        market=OnePeriodMarket(
            prices=np.array([1.0, s, 0.0]),
            payoffs=carry_payoffs,
            labels=("s=0", "stock-ray", f"s={f:g}", f"s={2 * f:g}")),
        arbitrage_expected=(forward_offset != 0.0),
    )
    return [parity, carry]
