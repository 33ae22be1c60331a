"""Pricing, hedging and closed-form two-state results for one period.

All operations take a market as in :mod:`deflator.cone` together with a
deflator (state prices).  A payoff V is a vector with one entry per
outcome, aligned with the market's payoff rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import (DEFAULT_TOL, Deflator, OnePeriodMarket, _position, _products,
                   _qr_append_stack)
from .exceptions import (DimensionMismatch, NoArbitrageViolation, SingularGram,
                         ZeroCost)


def _payoff_vector(market: OnePeriodMarket, payoff) -> np.ndarray:
    v = np.asarray(payoff, dtype=float)
    if v.shape != (market.n_outcomes,):
        raise DimensionMismatch(
            f"payoff must have one value per outcome ({market.n_outcomes})")
    return v


def price_payoff(market: OnePeriodMarket, deflator: Deflator, payoff) -> float:
    """Deflator price of a payoff: sum_j V(omega_j) * pi_j."""
    v = _payoff_vector(market, payoff)
    if deflator.atom_weights.shape[0] != market.n_outcomes:
        raise DimensionMismatch("deflator must weight every outcome")
    return float(np.einsum("i,i->", v, deflator.atom_weights))


def realized_return(market: OnePeriodMarket, gamma, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Gross return of position gamma in each outcome: (X gamma) / (gamma . x).

    Raises ZeroCost when the position costs (almost) nothing, since the
    return is then undefined.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != market.prices.shape:
        raise DimensionMismatch("gamma must hold one position per instrument")
    cost, payoff = _position(market.payoffs, market.prices, gamma)
    scale = max(1.0, float(np.abs(market.prices).max()) * float(np.abs(gamma).max()))
    if abs(cost) <= tol * scale:
        raise ZeroCost(f"position cost {cost} is within tolerance of zero")
    return payoff / cost


@dataclass(frozen=True)
class HedgeResult:
    """Least squares hedge of a payoff in the market's instruments.

    gamma               : instrument holdings minimizing the deflator-
                          weighted squared replication error.
    least_squared_error : the minimized value <(V - X gamma)^2, Pi>.
    hedge_cost          : gamma . prices.
    """

    gamma: np.ndarray
    least_squared_error: float
    hedge_cost: float


def least_squares_hedge(market: OnePeriodMarket, deflator: Deflator,
                        payoff) -> HedgeResult:
    """Minimize <(V - X gamma)^2, Pi> = ||sqrt(Pi) (V - X gamma)||^2 over
    positions gamma.

    The weighted instrument columns sqrt(Pi) X_j enter a thin QR factor
    one at a time (cone._qr_append_stack), and gamma = R^-1 Q.T
    sqrt(Pi) V.  Raises SingularGram at the first column whose new
    diagonal entry of R is at most 1e-6 of the largest weighted column
    norm, i.e. whose Gram pivot is at most 1e-12 of the largest Gram
    diagonal entry: the instruments are collinear under the deflator.
    """
    v = _payoff_vector(market, payoff)
    pi = deflator.atom_weights
    if pi.shape[0] != market.n_outcomes:
        raise DimensionMismatch("deflator must weight every outcome")
    n, m = market.payoffs.shape
    mv, vm, vv = _products(n, m)            # picked by the market's shape
    root = np.sqrt(pi)
    A = market.payoffs.T * root             # row j is the weighted column j
    cutoff = np.full(1, 1e-6 * np.sqrt(vv(A, A).max(initial=0.0)))
    Qt, Ri = np.zeros((1, m, n)), np.zeros((1, m, m))
    nk, rows = np.zeros(1, int), np.zeros(1, int)
    for j in range(m):
        if not _qr_append_stack(Qt, Ri, nk, rows, j, A[None, j], cutoff, m)[0]:
            raise SingularGram(
                "instruments are collinear under the deflator "
                f"(Gram pivot {j} is degenerate)", index=j)
    b = (root * v)[None]
    gamma = mv(Ri, mv(Qt, b))
    r = b - vm(gamma, A[None])
    return HedgeResult(gamma=gamma[0],
                       least_squared_error=float(vv(r, r)[0]),
                       hedge_cost=float(vv(gamma, market.prices[None])[0]))


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
