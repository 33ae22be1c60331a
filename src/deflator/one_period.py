"""Pricing, returns and hedging for one period.

All operations take a market as in :mod:`deflator.cone` together with a
deflator (state prices).  A payoff V is a vector with one entry per
outcome, aligned with the market's payoff rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import DEFAULT_TOL, Deflator, OnePeriodMarket, _EINSUM, _factor, _slack
from .exceptions import DimensionMismatch, SingularGram, ZeroCost


def _payoff_vector(market: OnePeriodMarket, deflator: Deflator, payoff) -> np.ndarray:
    """payoff as one finite value per outcome of the market, all of which
    the deflator weights: DimensionMismatch or ValueError otherwise."""
    v = np.asarray(payoff, dtype=float)
    if v.shape != (market.n_outcomes,):
        raise DimensionMismatch(f"payoff has {v.size} values in shape {v.shape}; "
                                f"need one value per outcome ({market.n_outcomes})")
    if not np.isfinite(v).all():
        raise ValueError("payoff must be finite")
    if deflator.atom_weights.shape[0] != market.n_outcomes:
        raise DimensionMismatch("deflator must weight every outcome")
    return v


def price_payoff(market: OnePeriodMarket, deflator: Deflator, payoff) -> float:
    """Deflator price of a payoff: sum_j V(omega_j) * pi_j."""
    v = _payoff_vector(market, deflator, payoff)
    return float(np.einsum("i,i->", v, deflator.atom_weights))


def realized_return(market: OnePeriodMarket, gamma, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Gross return of position gamma in each outcome: (X gamma) / (gamma . x).

    Raises ZeroCost when the cost is within its slack of zero,
    tol * ||prices|| * ||gamma|| as in verify_position (cone._slack),
    gamma = 0 included, since the return is then undefined.  ValueError
    unless gamma and tol are finite, tol > 0.
    """
    cost, payoff, slack, _ = _slack(market, gamma, tol)
    if abs(cost) <= slack:
        raise ZeroCost(f"position cost {cost} is within tolerance of zero")
    return payoff / cost


@dataclass(frozen=True, eq=False)
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

    The weighted instrument columns sqrt(Pi) X_j are the rows of one thin
    QR factor (cone._factor), and gamma = R^-1 Q.T sqrt(Pi) V, by
    np.einsum.  Raises SingularGram at the first column whose new diagonal
    entry of R is at most 1e-6 of the largest weighted column norm, i.e.
    whose Gram pivot is at most 1e-12 of the largest Gram diagonal entry:
    the instruments are collinear under the deflator.
    """
    v = _payoff_vector(market, deflator, payoff)
    mv, vm, vv = _EINSUM
    root = np.sqrt(deflator.atom_weights)
    A = market.payoffs.T * root             # row j is the weighted column j
    Qt, Ri, went = _factor(A, np.full(len(A), 1e-6 * np.sqrt(vv(A, A).max(initial=0.0))))
    if not went.all():
        j = int(went.argmin())
        raise SingularGram("instruments are collinear under the deflator "
                           f"(Gram pivot {j} is degenerate)", index=j)
    b = (root * v)[None]
    gamma = mv(Ri, mv(Qt, b))
    r = b - vm(gamma, A[None])
    return HedgeResult(gamma=gamma[0],
                       least_squared_error=float(vv(r, r)[0]),
                       hedge_cost=float(vv(gamma, market.prices[None])[0]))
