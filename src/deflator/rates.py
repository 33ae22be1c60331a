"""Rates: short-rate deflators, discount curves, bonds, swaps, futures
and the Ho-Lee model.

The stochastic pieces run on the panel machinery: deflators built from
a short-rate process, zero coupon prices as deflator ratios, forward
rates, the telescoping value of a floating leg and futures quotes as
conditional projections.  The deterministic pieces (bond prices, par
coupons, par swap rates, forwards with dividends) work off a discount
curve with exact maturity lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import composite_gauss_legendre
from .exceptions import (AlgebraMismatch, DeflatorZeroBlock, DimensionMismatch,
                         InvalidInterval, MissingMaturity, NonpositiveRate,
                         NonPredictableDeflator)
from .filtration import (FAMeasure, Filtration, SimpleFunction, _restrict_product,
                         product, restrict)
from .multi_period import DeflatorSequence, MarketPanel, _price_at


# ---------------------------------------------------------------------------
# deterministic discounting


@dataclass(frozen=True)
class DiscountCurve:
    """Discount factors at a fixed set of maturities (in years).

    Lookup is exact: asking for a maturity that is not on the curve
    raises MissingMaturity rather than interpolating.
    """

    maturities: np.ndarray
    discounts: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.maturities, dtype=float))
        d = np.atleast_1d(np.asarray(self.discounts, dtype=float))
        if m.shape != d.shape or m.ndim != 1:
            raise DimensionMismatch("need one discount per maturity")
        if not np.isfinite(m).all() or (np.diff(m) <= 0).any() or (m < 0).any():
            raise ValueError("maturities must be finite, increasing and nonnegative")
        if (d <= 0).any() or not np.isfinite(d).all():
            raise ValueError("discount factors must be positive and finite")
        object.__setattr__(self, "maturities", m)
        object.__setattr__(self, "discounts", d)

    def discount(self, t: float) -> float:
        """D(t) at an exact curve maturity; D(0) = 1 even if unlisted.  A
        non-finite t matches no maturity."""
        # a maturity in years, matched to rounding: no market quantity,
        # so its floor of one year does not enter any verdict
        hits = np.flatnonzero(np.abs(self.maturities - t) <= 1e-9 * max(1.0, abs(t)))
        if hits.size and np.isfinite(t):
            return float(self.discounts[hits[0]])
        if t == 0.0:
            return 1.0
        raise MissingMaturity(f"no discount factor at maturity {t}")


def load_discount_curve(path) -> DiscountCurve:
    """Read a curve file: one '(maturity, discount)' pair per line.

    Parentheses and commas are optional; blank lines and lines starting
    with '#' are skipped.
    """
    maturities, discounts = [], []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip().strip("()")
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected a (maturity, "
                                 f"discount) pair, got {raw!r}")
            maturities.append(float(parts[0]))
            discounts.append(float(parts[1]))
    if not maturities:
        raise ValueError(f"{path}: empty curve file")
    return DiscountCurve(np.asarray(maturities), np.asarray(discounts))


@dataclass(frozen=True)
class Schedule:
    """Calculation times t_0 < ... < t_n and accrual fractions.

    fractions[j-1] is the daycount fraction for [t_{j-1}, t_j]; by
    default the plain year difference.
    """

    calc_times: tuple
    fractions: tuple = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.calc_times)
        if not np.isfinite(times).all():
            raise ValueError("schedule times must be finite")
        if len(times) < 2:
            raise ValueError("a schedule needs at least two times")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must increase")
        if self.fractions is None:
            fractions = tuple(b - a for a, b in zip(times, times[1:]))
        else:
            fractions = tuple(float(f) for f in self.fractions)
            if len(fractions) != len(times) - 1:
                raise DimensionMismatch("need one fraction per period")
            if not all(0 < f < np.inf for f in fractions):
                raise ValueError("accrual fractions must be positive and finite")
        object.__setattr__(self, "calc_times", times)
        object.__setattr__(self, "fractions", fractions)

    @property
    def n_periods(self) -> int:
        return len(self.calc_times) - 1

    def delta(self, j: int, k: int) -> float:
        """Accrual fraction over [t_j, t_k]: the period fractions summed."""
        if not 0 <= j < k <= self.n_periods:
            raise InvalidInterval(f"need 0 <= j < k <= {self.n_periods}")
        return float(sum(self.fractions[j:k]))


def _annuity(curve: DiscountCurve, schedule: Schedule) -> float:
    """sum_j delta_j D(t_j) over the payment times t_1..t_n."""
    return sum(f * curve.discount(t)
               for f, t in zip(schedule.fractions, schedule.calc_times[1:]))


def _finite(value: float, what: str) -> float:
    """value, or ValueError naming what when it is not finite: an
    annuity that underflows, or a coupon that overflows, gives inf."""
    if not np.isfinite(value):
        raise ValueError(f"the {what} is not finite ({value})")
    return value


def bond_price(curve: DiscountCurve, schedule: Schedule, coupon: float) -> float:
    """Price of the bond paying coupon * fraction at t_1..t_n plus one
    at t_n: c * sum_j delta_j D(t_j) + D(t_n).  ValueError when it is
    not finite."""
    return _finite(coupon * _annuity(curve, schedule)
                   + curve.discount(schedule.calc_times[-1]), "bond price")


def par_coupon(curve: DiscountCurve, schedule: Schedule) -> float:
    """The coupon making the bond price exactly one; ValueError when it
    is not finite."""
    return _finite((1.0 - curve.discount(schedule.calc_times[-1]))
                   / _annuity(curve, schedule), "par coupon")


def swap_par(curve: DiscountCurve, schedule: Schedule, t: float = 0.0) -> float:
    """Par rate of the swap exchanging fixed for floating over the schedule.

    Computed as (D(t_0) - D(t_n)) / sum_j delta_j D(t_j); with a
    deterministic curve the valuation time t cancels out of the ratio,
    so it is only validated (t must not be past the start t_0).
    ValueError when the rate is not finite.
    """
    if t > schedule.calc_times[0]:
        raise InvalidInterval("valuation after the swap start")
    return _finite((curve.discount(schedule.calc_times[0])
                    - curve.discount(schedule.calc_times[-1])) / _annuity(curve, schedule),
                   "par swap rate")


def forward_price(spot: float, curve: DiscountCurve, maturity: float,
                  dividends=()) -> float:
    """Forward price for delivery at maturity, spot carried past dividends.

    F = sum_j d_j / D(t_j) + spot / D(maturity): each dividend and the
    terminal stock are financed at the curve's discount factors.  With
    no dividends this is the plain cost of carry spot / D(maturity).
    ValueError when it is not finite, as when a discount factor is
    subnormal.
    """
    total = 0.0
    for t_j, d_j in dividends:
        if not 0.0 < t_j <= maturity:
            raise InvalidInterval(f"dividend time {t_j} outside (0, {maturity}]")
        total += d_j / curve.discount(t_j)
    return _finite(total + spot / curve.discount(maturity), "forward price")


# ---------------------------------------------------------------------------
# deflators from a short rate


@dataclass(frozen=True)
class ShortRateProcess:
    """Gross one-period rates R_j, each a scalar simple function known
    at the start of its period."""

    rates: tuple

    def __post_init__(self):
        rates = tuple(self.rates)
        if not rates:
            raise DimensionMismatch("need at least one period rate")
        for j, r in enumerate(rates):
            if r.is_vector:
                raise DimensionMismatch("period rates are scalar functions")
            if (r.values <= 0).any():
                raise NonpositiveRate(f"gross rate at time {j} must be positive")
        object.__setattr__(self, "rates", rates)

    @property
    def n_periods(self) -> int:
        return len(self.rates)


def deflators_from_short_rate(filtration: Filtration, short_rate: ShortRateProcess,
                              base_measure: FAMeasure) -> DeflatorSequence:
    """Deflators Pi_j = base / (R_0 ... R_{j-1}), blockwise on level j.

    The running discount through time j is known one period earlier, so
    each Pi_j is the base measure restricted to level j and scaled by a
    function measurable at level j-1.
    """
    n = short_rate.n_periods
    if len(filtration) != n + 1:
        raise DimensionMismatch("need one algebra per time, one rate per period")
    for j, r in enumerate(short_rate.rates):
        if r.algebra != filtration[j]:
            raise AlgebraMismatch(f"rate {j} lives off the filtration")
    if base_measure.algebra != filtration[n]:
        raise AlgebraMismatch("base measure must live on the finest algebra")
    measures = [restrict(base_measure, filtration[0])]
    inv_growth = SimpleFunction(filtration[0], np.ones(filtration[0].n_blocks))
    for j in range(1, n + 1):
        inv_growth = SimpleFunction(
            filtration[j - 1],
            inv_growth.values / short_rate.rates[j - 1].values).lift(filtration[j])
        measures.append(product(inv_growth, restrict(base_measure, filtration[j])))
    return DeflatorSequence(measures)


def short_rate_panel(filtration: Filtration,
                     short_rate: ShortRateProcess) -> MarketPanel:
    """The panel of one-period deposits implied by a short rate.

    Deposit j trades at price one exactly at time j and is worthless at
    other times; entering costs the unit cash flow -1 at time j (j >= 1)
    and holding returns R_j at time j+1.  Deposit 0 is paid through its
    time-0 price instead of a cash flow.
    """
    n = short_rate.n_periods
    prices, cashflows = [], []
    for i in range(n + 1):
        blocks = filtration[i].n_blocks
        px = np.zeros((blocks, n))
        if i < n:
            px[:, i] = 1.0
        cf = np.zeros((blocks, n))
        if 1 <= i < n:
            cf[:, i] = -1.0
        if i >= 1:
            cf[:, i - 1] = short_rate.rates[i - 1].lift(filtration[i]).values
        prices.append(SimpleFunction(filtration[i], px))
        cashflows.append(SimpleFunction(filtration[i], cf))
    return MarketPanel(times=np.arange(n + 1.0), filtration=filtration,
                       prices=prices, cashflows=cashflows)


def zcb_price(deflators: DeflatorSequence, j: int, k: int) -> SimpleFunction:
    """Zero coupon prices D_j(k) = Pi_k restricted to level j, over Pi_j:
    multi_period._price_at of the unit claim paid at k."""
    if not 0 <= j <= k <= len(deflators) - 1:
        raise InvalidInterval(f"need 0 <= j <= k <= {len(deflators) - 1}")
    return _price_at(j, deflators, [(k, ())])


def forward_rate(source, i: int, j: int, k: int, schedule: Schedule):
    """Simple forward rate F_i(j, k) = (D_i(j) - D_i(k)) / (delta(j,k) D_i(k)).

    source is a DiscountCurve (deterministic, the level index i is
    ignored beyond validation) or a DeflatorSequence (the result is a
    simple function on level i).  Evaluated in this order the one-period
    case reproduces swap_par bit for bit.  ValueError when the rate is
    not finite.
    """
    if not 0 <= i <= j < k:
        raise InvalidInterval("need valuation i <= accrual start j < end k")
    delta = schedule.delta(j, k)
    if isinstance(source, DiscountCurve):
        d_j = source.discount(schedule.calc_times[j])
        d_k = source.discount(schedule.calc_times[k])
        return _finite((d_j - d_k) / (delta * d_k), "forward rate")
    d_j = zcb_price(source, i, j).values
    d_k = zcb_price(source, i, k).values
    if (d_k <= 0).any():
        raise DeflatorZeroBlock(f"zero coupon price D_{i}({k}) vanishes on a block")
    return SimpleFunction(source[i].algebra, (d_j - d_k) / (delta * d_k))


def floating_leg_value(deflators: DeflatorSequence, schedule: Schedule) -> np.ndarray:
    """Value, per time-0 block, of the floating leg paying
    F_{j-1}(j-1, j) * delta_j at each t_j.

    The payments are set one period ahead at the then-current zero
    coupon price, so discounting them telescopes: the total equals
    Pi_0 - Pi_n restricted to time 0, whatever the rate tree.
    """
    n = len(deflators) - 1
    if schedule.n_periods != n:
        raise DimensionMismatch("schedule must cover every deflator period")
    base = deflators[0].algebra
    total = np.zeros(base.n_blocks)
    for j in range(1, n + 1):
        d_prev = zcb_price(deflators, j - 1, j)
        if (d_prev.values <= 0).any():
            raise DeflatorZeroBlock(f"one-period price at time {j - 1} vanishes")
        # F * delta = 1/D - 1; the accrual fraction cancels by design
        payment = SimpleFunction(d_prev.algebra, 1.0 / d_prev.values - 1.0)
        paid = (payment.lift(deflators[j].algebra),)
        total = total + _restrict_product(paid, deflators[j], base)
    return total


# ---------------------------------------------------------------------------
# futures


def futures_quotes(deflators: DeflatorSequence, underlying: SimpleFunction,
                   expiry: int) -> list[SimpleFunction]:
    """Futures quotes Phi_0..Phi_expiry settling daily to the underlying.

    Phi_expiry is the underlying itself; each earlier quote is the
    projection of the next one under the child weights of the next
    deflator, which is exactly the zero-value condition for a contract
    with price zero and cash flows Phi_j - Phi_{j-1}.  Blocks whose
    children carry no deflator mass admit no such projection
    (NonPredictableDeflator).
    """
    if not 0 < expiry < len(deflators):
        raise InvalidInterval(f"expiry must be in 1..{len(deflators) - 1}")
    if underlying.is_vector:
        raise DimensionMismatch("the underlying quote is a scalar function")
    if underlying.algebra != deflators[expiry].algebra:
        raise AlgebraMismatch("underlying must live on the expiry algebra")
    quotes = [underlying]
    for j in range(expiry - 1, -1, -1):
        coarse = deflators[j].algebra
        mass = restrict(deflators[j + 1], coarse).weights
        value = _restrict_product(quotes[:1], deflators[j + 1], coarse)
        if (mass <= 0).any():
            raise NonPredictableDeflator(
                f"no deflator mass below some block at time {j}")
        quotes.insert(0, SimpleFunction(coarse, value / mass))
    return quotes


def futures_panel(deflators: DeflatorSequence, underlying: SimpleFunction,
                  expiry: int) -> MarketPanel:
    """One-instrument panel for the futures contract: price identically
    zero, cash flow the quote change Phi_j - Phi_{j-1} each period."""
    quotes = futures_quotes(deflators, underlying, expiry)
    filtration = Filtration([mu.algebra for mu in deflators.measures])
    prices, cashflows = [], []
    for j in range(len(deflators)):
        blocks = filtration[j].n_blocks
        prices.append(SimpleFunction(filtration[j], np.zeros((blocks, 1))))
        if 1 <= j <= expiry:
            change = quotes[j].values - quotes[j - 1].lift(filtration[j]).values
            cashflows.append(SimpleFunction(filtration[j], change[:, None]))
        else:
            cashflows.append(SimpleFunction(filtration[j], np.zeros((blocks, 1))))
    return MarketPanel(times=np.arange(len(deflators), dtype=float),
                       filtration=filtration, prices=prices, cashflows=cashflows)


def futures_convexity(forward_payoffs, discounts, weights=None) -> float:
    """Futures minus forward bias -Cov(F, D) / E D from joint samples.

    F is the payoff the contract settles to and D the stochastic
    discount over the quote period; weights default to uniform.
    """
    f = np.asarray(forward_payoffs, dtype=float)
    d = np.asarray(discounts, dtype=float)
    if f.shape != d.shape or f.ndim != 1:
        raise DimensionMismatch("need matching sample vectors")
    if weights is None:
        w = np.full(f.size, 1.0 / f.size)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    mean_f = float(np.einsum("i,i->", w, f))
    mean_d = float(np.einsum("i,i->", w, d))
    cov = float(np.einsum("i,i->", w, (f - mean_f) * (d - mean_d)))
    return -cov / mean_d


# ---------------------------------------------------------------------------
# Ho-Lee


@dataclass(frozen=True)
class HoLeeParams:
    """Ho-Lee short rate: deterministic drift phi(t) plus a Brownian
    term with volatility sigma.

    sigma may be a constant or a deterministic function of time; in the
    latter case its antiderivative Sigma (with Sigma(0) = 0) must be
    supplied, since the discount formula only sees Sigma differences.
    """

    phi: Callable[[float], float]
    sigma: float | Callable[[float], float]
    Sigma: Callable[[float], float] | None = None

    def __post_init__(self):
        if callable(self.sigma) and self.Sigma is None:
            raise ValueError("time-dependent sigma needs its antiderivative Sigma")

    def vol_antiderivative(self, t: float) -> float:
        if callable(self.sigma):
            return float(self.Sigma(t))
        return float(self.sigma) * t


def _integral(f, a: float, b: float) -> float:
    """int_a^b f by composite_gauss_legendre to the absolute tolerance
    1e-10, for f mapping a float to a float: it is called once per node."""
    f = np.vectorize(f, otypes=[float])
    return float(composite_gauss_legendre(lambda s, w: np.einsum("i,i->", w, f(s)), a, b, 1e-10))


def ho_lee_discount(params: HoLeeParams, t: float, u: float, b_t: float) -> float:
    """Price at time t of one unit at u >= t, given Brownian level b_t.

    D_t(u) = exp(-int_t^u [phi(s) - (Sigma(s) - Sigma(u))^2 / 2] ds
                 + (Sigma(u) - Sigma(t)) b_t).

    With constant sigma the volatility integral is sigma^2 (u-t)^3 / 6;
    the others go by composite_gauss_legendre to the absolute 1e-10.
    """
    if u < t:
        raise InvalidInterval(f"maturity {u} before valuation {t}")
    if u == t:
        return 1.0
    drift = _integral(params.phi, t, u)
    if callable(params.sigma):
        s_u = params.vol_antiderivative(u)
        convexity = _integral(
            lambda s: 0.5 * (params.vol_antiderivative(s) - s_u) ** 2, t, u)
    else:
        convexity = float(params.sigma) ** 2 * (u - t) ** 3 / 6.0
    slope = params.vol_antiderivative(u) - params.vol_antiderivative(t)
    return float(np.exp(-drift + convexity + slope * b_t))


def ho_lee_convexity(params: HoLeeParams, t: float) -> float:
    """Expected quote drift of the t-maturity one-period future over the
    forward: sigma^2 t^2 / 2 for constant volatility."""
    if callable(params.sigma):
        raise TypeError("closed-form convexity needs constant sigma")
    if t < 0:
        raise InvalidInterval("need t >= 0")
    return 0.5 * float(params.sigma) ** 2 * t ** 2


def ho_lee_stochastic_discount(params: HoLeeParams, t: float, b_t: float) -> float:
    """Expected realized discount to time t given the Brownian endpoint.

    The rolled-up account discounts by exp(-int_0^t r_s ds), which
    depends on the whole path; conditioning on B_t = b leaves a normal
    integral with mean t b / 2 and variance t^3 / 12, so

        E[exp(-int_0^t r) | B_t = b]
            = exp(-int_0^t phi + sigma^2 t^3 / 24 + sigma t b / 2).

    Pairing this with ho_lee_discount makes the discounted bond price a
    martingale: E[SD(t, B_t) D_t(u, B_t)] = D_0(u).
    """
    if callable(params.sigma):
        raise TypeError("the conditional discount is implemented for constant sigma")
    if t < 0:
        raise InvalidInterval("need t >= 0")
    if t == 0:
        return 1.0
    drift = _integral(params.phi, 0.0, t)
    sig = float(params.sigma)
    return float(np.exp(-drift + sig ** 2 * t ** 3 / 24.0 + sig * t * b_t / 2.0))
