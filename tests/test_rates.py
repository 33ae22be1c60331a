"""Curves, schedules, short-rate deflators, futures, and Ho-Lee."""

import math
import pathlib

import numpy as np
import pytest

from deflator import (
    Algebra,
    AlgebraMismatch,
    DeflatorSequence,
    DeflatorZeroBlock,
    DimensionMismatch,
    DiscountCurve,
    FAMeasure,
    Filtration,
    HoLeeParams,
    InvalidInterval,
    MissingMaturity,
    NonConvergence,
    NonPredictableDeflator,
    NonpositiveRate,
    NotCoarser,
    Schedule,
    ShortRateProcess,
    SimpleFunction,
    binary_tree_filtration,
    bond_price,
    check_deflator,
    deflators_from_short_rate,
    floating_leg_value,
    forward_price,
    forward_rate,
    futures_convexity,
    futures_panel,
    futures_quotes,
    ho_lee_convexity,
    ho_lee_discount,
    ho_lee_stochastic_discount,
    load_discount_curve,
    par_coupon,
    restrict,
    short_rate_panel,
    swap_par,
    zcb_price,
)


def random_rate_tree(rng, n, low=1.01, high=1.12):
    """Binary tree, uniform base measure, independent node rates."""
    filtration = binary_tree_filtration(n)
    rates = tuple(
        SimpleFunction(filtration[j],
                       rng.uniform(low, high, size=filtration[j].n_blocks))
        for j in range(n))
    base = FAMeasure(filtration[n], np.full(2 ** n, 2.0 ** -n))
    return filtration, ShortRateProcess(rates), base


# ------------------------------------------------------------------ curves


def test_curve_lookup_and_missing_maturity():
    curve = DiscountCurve([0.5, 1.0, 2.0], [0.99, 0.97, 0.93])
    assert curve.discount(1.0) == 0.97
    assert curve.discount(0.0) == 1.0
    with pytest.raises(MissingMaturity):
        curve.discount(1.5)


def test_curve_validation():
    with pytest.raises(ValueError):
        DiscountCurve([1.0, 1.0], [0.9, 0.9])
    with pytest.raises(ValueError):
        DiscountCurve([1.0, 2.0], [0.9, -0.1])
    with pytest.raises(DimensionMismatch):
        DiscountCurve([1.0, 2.0], [0.9])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curves_and_schedules_refuse_non_finite_numbers(bad, tmp_path):
    # every comparison with NaN is false, so each check passed it; a
    # (nan, 0.97) row loaded and was never matched
    with pytest.raises(ValueError, match="maturities must be finite"):
        DiscountCurve([0.5, bad], [0.99, 0.97])
    with pytest.raises(ValueError, match="maturities must be finite"):
        DiscountCurve([bad, 1.0], [0.99, 0.97])
    path = tmp_path / "curve.txt"
    path.write_text(f"(0.5, 0.99)\n({bad}, 0.97)\n")
    with pytest.raises(ValueError, match="maturities must be finite"):
        load_discount_curve(path)
    for times in ((0.0, bad), (bad, 1.0), (0.0, 1.0, bad)):
        with pytest.raises(ValueError, match="schedule times must be finite"):
            Schedule(times)
    with pytest.raises(ValueError, match="accrual fractions must be positive and finite"):
        Schedule((0.0, 1.0), fractions=(bad,))


def test_discount_at_a_non_finite_time_matches_no_maturity():
    # its match window 1e-9 * max(1, |t|) was inf at t = inf, which matched
    # the first maturity, 0.5 years
    curve = load_discount_curve(pathlib.Path(__file__).parent / "fixtures" / "curve.txt")
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(MissingMaturity):
            curve.discount(t)
    assert curve.discount(0.5) == 0.99 and curve.discount(2.0) == 0.94


def test_load_discount_curve(tmp_path):
    text = "\n".join([
        "# curve with parenthesized rows",
        "(0.5, 0.99)",
        "",
        "(1.0, 0.97)",
        "2.0 0.93",
    ]) + "\n"
    path = tmp_path / "curve.txt"
    path.write_text(text)
    curve = load_discount_curve(path)
    assert np.allclose(curve.maturities, [0.5, 1.0, 2.0])
    assert curve.discount(2.0) == 0.93

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 0.97 extra\n")
    with pytest.raises(ValueError):
        load_discount_curve(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_discount_curve(empty)


def test_par_bond_prices_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        times = np.cumsum(rng.uniform(0.25, 1.5, size=rng.integers(2, 9)))
        times = np.concatenate([[0.0], times])
        discounts = np.exp(-rng.uniform(0.005, 0.08) * times[1:]
                           - rng.normal(0.0, 0.01, size=times.size - 1).cumsum() * 0.1)
        discounts = np.minimum.accumulate(np.clip(discounts, 0.5, 1.0))
        discounts = discounts * np.linspace(1.0, 0.99, discounts.size)  # force strict decrease
        curve = DiscountCurve(times[1:], discounts)
        schedule = Schedule(tuple(times))
        coupon = par_coupon(curve, schedule)
        assert bond_price(curve, schedule, coupon) == pytest.approx(1.0, abs=1e-12)


def test_flat_curve_par_coupon_is_the_simple_rate():
    v = 1.0 / 1.04
    schedule = Schedule((0.0, 1.0, 2.0, 3.0, 4.0))
    curve = DiscountCurve([1.0, 2.0, 3.0, 4.0], [v, v ** 2, v ** 3, v ** 4])
    assert par_coupon(curve, schedule) == pytest.approx(0.04, rel=1e-14)


def test_one_period_swap_equals_forward_rate():
    curve = DiscountCurve([1.0, 1.5], [0.96, 0.935])
    schedule = Schedule((1.0, 1.5))
    fra = forward_rate(curve, 0, 0, 1, schedule)
    assert swap_par(curve, schedule) == fra
    # and both recover the discount ratio
    assert fra == pytest.approx((0.96 / 0.935 - 1.0) / 0.5, rel=1e-15)


def test_swap_par_valuation_time_validated():
    curve = DiscountCurve([1.0, 2.0], [0.96, 0.92])
    schedule = Schedule((1.0, 2.0))
    with pytest.raises(InvalidInterval):
        swap_par(curve, schedule, t=1.5)


def test_forward_price_cost_of_carry_and_dividends():
    curve = DiscountCurve([0.5, 1.0], [0.98, 0.95])
    assert forward_price(100.0, curve, 1.0) == pytest.approx(100.0 / 0.95)
    with_div = forward_price(100.0, curve, 1.0, dividends=[(0.5, 2.0)])
    assert with_div == pytest.approx(2.0 / 0.98 + 100.0 / 0.95)
    with pytest.raises(InvalidInterval):
        forward_price(100.0, curve, 1.0, dividends=[(1.5, 2.0)])


def test_schedule_delta_and_validation():
    schedule = Schedule((0.0, 0.5, 1.25, 2.0))
    assert schedule.delta(0, 3) == pytest.approx(2.0)
    assert schedule.delta(1, 2) == pytest.approx(0.75)
    with pytest.raises(InvalidInterval):
        schedule.delta(2, 2)
    with pytest.raises(ValueError):
        Schedule((1.0,))
    with pytest.raises(DimensionMismatch):
        Schedule((0.0, 1.0), fractions=(0.5, 0.5))


# ------------------------------------------------------- short-rate trees


def test_short_rate_deflators_are_discounted_base():
    rng = np.random.default_rng(23)
    filtration, short_rate, base = random_rate_tree(rng, 3)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    # by hand: per-atom running discount, then block sums of the base
    growth = np.ones(8)
    for j in range(3):
        lifted = short_rate.rates[j].lift(filtration[3]).values
        per_atom = base.weights / growth / lifted
        growth = growth * lifted
        by_hand = restrict(FAMeasure(filtration[3], per_atom), filtration[j + 1])
        assert np.allclose(deflators[j + 1].weights, by_hand.weights, rtol=1e-14)
    assert np.allclose(deflators[0].weights, [1.0])


def test_short_rate_panel_passes_deflator_check():
    rng = np.random.default_rng(31)
    filtration, short_rate, base = random_rate_tree(rng, 5)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    panel = short_rate_panel(filtration, short_rate)
    result = check_deflator(panel, deflators, tol=1e-12)
    assert result.ok


def test_zcb_prices_match_path_enumeration():
    rng = np.random.default_rng(47)
    filtration, short_rate, base = random_rate_tree(rng, 4)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    # oracle: D_j(k) on block b is the base-weighted mean over the
    # block's atoms of the inverse rate product over [j, k)
    for j, k in [(0, 4), (1, 3), (2, 4), (0, 1), (3, 4)]:
        inv = np.ones(16)
        for i in range(j, k):
            inv = inv / short_rate.rates[i].lift(filtration[4]).values
        atom_parent = filtration[4].coarse_block_map(filtration[j])
        expected = np.zeros(filtration[j].n_blocks)
        mass = np.zeros(filtration[j].n_blocks)
        np.add.at(expected, atom_parent, base.weights * inv)
        np.add.at(mass, atom_parent, base.weights)
        expected = expected / mass
        got = zcb_price(deflators, j, k)
        assert np.allclose(got.values, expected, rtol=1e-13)
        assert (got.values < 1.0).all()  # positive rates discount


def test_zcb_degenerate_interval_is_identity():
    rng = np.random.default_rng(5)
    filtration, short_rate, base = random_rate_tree(rng, 2)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    assert np.allclose(zcb_price(deflators, 1, 1).values, 1.0)
    with pytest.raises(InvalidInterval):
        zcb_price(deflators, 2, 1)


def two_period_deflators(level_1, level_2):
    """Deflators on the two-period binary tree: 1 at time 0, then the
    given weights, which may vanish on a block."""
    filtration = binary_tree_filtration(2)
    return DeflatorSequence([FAMeasure(filtration[j], np.asarray(w, dtype=float))
                             for j, w in enumerate(([1.0], level_1, level_2))])


def test_zcb_price_refuses_a_deflator_that_vanishes_on_a_block():
    deflators = two_period_deflators([0.0, 1.0], [0.0, 0.0, 0.5, 0.5])
    with pytest.raises(DeflatorZeroBlock, match="deflator at time 1 vanishes on a block"):
        zcb_price(deflators, 1, 2)
    assert zcb_price(deflators, 0, 2).values.tolist() == [1.0]


def test_forward_rate_refuses_a_zero_coupon_price_that_vanishes_on_a_block():
    # D_1(2) is 0 under block 0 of time 1, where the time-2 deflator is 0
    deflators = two_period_deflators([0.5, 0.5], [0.0, 0.0, 0.25, 0.25])
    schedule = Schedule((0.0, 1.0, 2.0))
    with pytest.raises(DeflatorZeroBlock, match=r"zero coupon price D_1\(2\) vanishes"):
        forward_rate(deflators, 1, 1, 2, schedule)
    assert forward_rate(deflators, 0, 0, 1, schedule).values.tolist() == [0.0]


def test_floating_leg_refuses_a_one_period_price_that_vanishes_on_a_block():
    deflators = two_period_deflators([0.5, 0.5], [0.0, 0.0, 0.25, 0.25])
    with pytest.raises(DeflatorZeroBlock, match="one-period price at time 1 vanishes"):
        floating_leg_value(deflators, Schedule((0.0, 1.0, 2.0)))


def test_forward_rate_on_tree_matches_zcb_ratio():
    rng = np.random.default_rng(53)
    filtration, short_rate, base = random_rate_tree(rng, 4)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    schedule = Schedule((0.0, 1.0, 2.0, 3.0, 4.0))
    f = forward_rate(deflators, 1, 2, 4, schedule)
    d2 = zcb_price(deflators, 1, 2).values
    d4 = zcb_price(deflators, 1, 4).values
    assert np.allclose(f.values, (d2 / d4 - 1.0) / 2.0, rtol=1e-14)


def test_floating_leg_telescopes_on_random_trees():
    rng = np.random.default_rng(61)
    for trial in range(50):
        n = int(rng.integers(1, 6))
        filtration = binary_tree_filtration(n)
        rates = tuple(
            SimpleFunction(filtration[j],
                           rng.uniform(1.001, 1.2, size=filtration[j].n_blocks))
            for j in range(n))
        weights = rng.uniform(0.1, 2.0, size=2 ** n)
        base = FAMeasure(filtration[n], weights)
        deflators = deflators_from_short_rate(filtration, ShortRateProcess(rates),
                                              base)
        schedule = Schedule(tuple(float(j) for j in range(n + 1)))
        value = floating_leg_value(deflators, schedule)
        target = deflators[0].weights - restrict(deflators[n], filtration[0]).weights
        assert np.abs(value - target).max() <= 1e-12
        # positive rates make the leg strictly valuable
        assert (value > 0).all()


def test_short_rate_validation():
    filtration = binary_tree_filtration(1)
    flat = SimpleFunction(filtration[0], np.array([0.0]))
    with pytest.raises(NonpositiveRate):
        ShortRateProcess((flat,))
    vector = SimpleFunction(filtration[0], np.array([[1.05, 1.05]]))
    with pytest.raises(DimensionMismatch):
        ShortRateProcess((vector,))


# ----------------------------------------------------------------- futures


def test_futures_quotes_deterministic_rates_match_forward():
    # constant rate: daily settlement earns nothing, futures == forward
    rng = np.random.default_rng(71)
    n = 4
    filtration = binary_tree_filtration(n)
    R = 1.03
    rates = tuple(SimpleFunction(filtration[j],
                                 np.full(filtration[j].n_blocks, R))
                  for j in range(n))
    base = FAMeasure(filtration[n], rng.uniform(0.2, 1.0, size=2 ** n))
    deflators = deflators_from_short_rate(filtration, ShortRateProcess(rates), base)
    underlying = SimpleFunction(filtration[n], rng.uniform(50.0, 150.0, size=2 ** n))
    quotes = futures_quotes(deflators, underlying, expiry=n)
    d0 = zcb_price(deflators, 0, n).values[0]
    forward = None
    # forward from the deflators directly: E[S Pi_n] / Pi_0 / D_0(n)
    from deflator import pairing, product
    spot_value = restrict(product(underlying, deflators[n]), filtration[0]).weights[0]
    forward = spot_value / deflators[0].weights[0] / d0
    assert quotes[0].values[0] == pytest.approx(forward, rel=1e-12)
    assert np.allclose(quotes[n].values, underlying.values)


def test_futures_panel_is_priced_by_the_deflators():
    rng = np.random.default_rng(73)
    filtration, short_rate, base = random_rate_tree(rng, 4)
    deflators = deflators_from_short_rate(filtration, short_rate, base)
    underlying = SimpleFunction(filtration[4], rng.uniform(80.0, 120.0, size=16))
    panel = futures_panel(deflators, underlying, expiry=4)
    assert check_deflator(panel, deflators, tol=1e-12).ok


def test_futures_panel_needs_deflators_on_a_filtration():
    # the quotes stop at the expiry, but the panel spans every deflator,
    # and the last algebra does not refine the one before it
    filtration = binary_tree_filtration(2)
    crossing = Algebra.from_blocks([[0, 3], [1, 2]])
    deflators = DeflatorSequence([FAMeasure(filtration[0], [1.0]),
                                  FAMeasure(filtration[1], [0.5, 0.5]),
                                  FAMeasure(crossing, [0.25, 0.25])])
    underlying = SimpleFunction(filtration[1], [90.0, 110.0])
    assert futures_quotes(deflators, underlying, expiry=1)[0].values[0] == 100.0
    with pytest.raises(NotCoarser):
        futures_panel(deflators, underlying, expiry=1)


def test_futures_convexity_sign_and_value():
    # rates up when payoff down: discounts and payoffs positively
    # correlated, so the future trades below the forward
    f = np.array([90.0, 110.0])
    d = np.array([0.93, 0.97])
    bias = futures_convexity(f, d)
    mean_d = 0.95
    cov = ((90.0 - 100.0) * (0.93 - 0.95) + (110.0 - 100.0) * (0.97 - 0.95)) / 2
    assert bias == pytest.approx(-cov / mean_d, rel=1e-15)
    assert bias < 0
    # flip the discount leg: positive bias
    assert futures_convexity(f, d[::-1]) > 0
    # weights shift the means
    assert futures_convexity(f, d, weights=[1.0, 0.0]) == 0.0


def test_futures_need_deflator_mass_below_every_block():
    filtration = binary_tree_filtration(2)
    weights = np.array([1.0, 1.0, 0.0, 0.0])  # no mass under one time-1 block
    deflators = DeflatorSequence([
        FAMeasure(filtration[0], np.array([1.0])),
        FAMeasure(filtration[1], np.array([0.5, 0.5])),
        FAMeasure(filtration[2], weights / 4),
    ])
    underlying = SimpleFunction(filtration[2], np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(NonPredictableDeflator):
        futures_quotes(deflators, underlying, expiry=2)


# ------------------------------------------------------------------ Ho-Lee


def flat_phi(r):
    return lambda t: r


def test_ho_lee_zero_vol_is_the_deterministic_curve():
    params = HoLeeParams(phi=flat_phi(0.03), sigma=0.0)
    for t, u in [(0.0, 2.0), (0.5, 1.0), (1.0, 1.0)]:
        target = math.exp(-0.03 * (u - t))
        assert ho_lee_discount(params, t, u, b_t=1.7) == pytest.approx(target, rel=1e-12)
    assert ho_lee_convexity(params, 3.0) == 0.0
    assert ho_lee_stochastic_discount(params, 2.0, b_t=-0.4) == pytest.approx(
        math.exp(-0.06), rel=1e-12)


def test_ho_lee_convexity_scaling():
    params = HoLeeParams(phi=flat_phi(0.02), sigma=0.015)
    t = 1.75
    base = ho_lee_convexity(params, t)
    assert base == pytest.approx(0.5 * 0.015 ** 2 * t * t, rel=1e-15)
    assert ho_lee_convexity(params, 2 * t) == pytest.approx(4 * base, rel=1e-15)


def test_ho_lee_callable_sigma_matches_constant():
    const = HoLeeParams(phi=flat_phi(0.025), sigma=0.02)
    fancy = HoLeeParams(phi=flat_phi(0.025), sigma=lambda t: 0.02,
                        Sigma=lambda t: 0.02 * t)
    for t, u, b in [(0.0, 3.0, 0.0), (0.5, 2.0, 1.1), (1.0, 4.0, -0.6)]:
        assert ho_lee_discount(fancy, t, u, b) == pytest.approx(
            ho_lee_discount(const, t, u, b), rel=1e-9)
    with pytest.raises(ValueError):
        HoLeeParams(phi=flat_phi(0.02), sigma=lambda t: 0.02)
    with pytest.raises(TypeError):
        ho_lee_convexity(fancy, 1.0)


def test_ho_lee_discounted_bond_is_a_martingale():
    # E[SD(t, B_t) D_t(u, B_t)] must equal D_0(u); Gauss-Hermite in the
    # Brownian endpoint b = sqrt(t) z makes this a pure quadrature check
    params = HoLeeParams(phi=lambda t: 0.02 + 0.01 * t, sigma=0.018)
    nodes, weights = np.polynomial.hermite_e.hermegauss(151)
    weights = weights / np.sqrt(2 * np.pi)
    for t, u in [(1.0, 3.0), (0.5, 5.0), (2.0, 2.5)]:
        b = math.sqrt(t) * nodes
        vals = np.array([ho_lee_stochastic_discount(params, t, bi)
                         * ho_lee_discount(params, t, u, bi) for bi in b])
        lhs = float(weights @ vals)
        rhs = ho_lee_discount(params, 0.0, u, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-8)
        # and the account alone reprices the t-maturity bond
        sd = np.array([ho_lee_stochastic_discount(params, t, bi) for bi in b])
        assert float(weights @ sd) == pytest.approx(
            ho_lee_discount(params, 0.0, t, 0.0), rel=1e-8)


def test_ho_lee_drift_integral_matches_its_closed_form():
    # phi(t) = 0.02 + 0.01 sin t integrates to
    # 0.02 (u - t) - 0.01 (cos u - cos t).  math.sin takes one float, so
    # this also checks that phi is called once per node.
    params = HoLeeParams(phi=lambda t: 0.02 + 0.01 * math.sin(t), sigma=0.0)
    drift = lambda t, u: 0.02 * (u - t) - 0.01 * (math.cos(u) - math.cos(t))
    for t, u in [(0.0, 2.0), (0.5, 7.5), (3.0, 3.25)]:
        assert -math.log(ho_lee_discount(params, t, u, b_t=0.4)) == pytest.approx(
            drift(t, u), rel=1e-12)
    assert -math.log(ho_lee_stochastic_discount(params, 4.0, b_t=-1.0)) == (
        pytest.approx(drift(0.0, 4.0), rel=1e-12))


def test_ho_lee_convexity_integral_matches_its_closed_form():
    # sigma(t) = 0.01 + 0.02 t has Sigma(t) = 0.01 t + 0.01 t^2, and
    # Sigma(s) - Sigma(u) = 0.01 d (d + c) with d = s - u, c = 2u + 1, so
    # int_t^u (Sigma(s) - Sigma(u))^2 / 2 ds
    #   = 0.5e-4 (L^5 / 5 - c L^4 / 2 + c^2 L^3 / 3), L = u - t
    params = HoLeeParams(phi=flat_phi(0.0), sigma=lambda s: 0.01 + 0.02 * s,
                         Sigma=lambda s: 0.01 * s + 0.01 * s * s)
    for t, u in [(0.0, 2.0), (0.5, 6.0), (2.0, 2.5)]:
        L, c = u - t, 2.0 * u + 1.0
        convexity = 0.5e-4 * (L ** 5 / 5 - c * L ** 4 / 2 + c ** 2 * L ** 3 / 3)
        assert math.log(ho_lee_discount(params, t, u, b_t=0.0)) == pytest.approx(
            convexity, rel=1e-12)


def test_ho_lee_integrals_have_a_node_cap():
    # a jump in phi keeps the composite rule's error near the panel width
    params = HoLeeParams(phi=lambda t: 0.02 if t < 1.0 / 3.0 else 0.03,
                         sigma=0.01)
    with pytest.raises(NonConvergence):
        ho_lee_discount(params, 0.0, 1.0, b_t=0.0)


def test_ho_lee_validation():
    params = HoLeeParams(phi=flat_phi(0.02), sigma=0.01)
    with pytest.raises(InvalidInterval):
        ho_lee_discount(params, 1.0, 0.5, 0.0)
    with pytest.raises(InvalidInterval):
        ho_lee_convexity(params, -1.0)
    assert ho_lee_stochastic_discount(params, 0.0, 0.0) == 1.0


def test_curve_results_that_overflow_raise():
    # each returned inf: an accrual fraction of 1e-320 leaves an annuity
    # that underflows, and a coupon of 1e308 overflows the bond price
    curve = load_discount_curve(pathlib.Path(__file__).parent / "fixtures" / "curve.txt")
    tiny = Schedule((0.0, 1.0), (1e-320,))
    for call, message in (
            (lambda: par_coupon(curve, tiny), "the par coupon is not finite"),
            (lambda: swap_par(curve, tiny), "the par swap rate is not finite"),
            (lambda: forward_rate(curve, 0, 0, 1, Schedule((0.5, 1.0), (1e-320,))),
             "the forward rate is not finite"),
            (lambda: bond_price(curve, Schedule((0.0, 0.5, 1.0, 1.5, 2.0)), 1e308),
             "the bond price is not finite")):
        with pytest.raises(ValueError, match=message):
            call()


def test_forward_price_must_be_finite():
    # before, a subnormal discount factor gave a forward price of inf
    with pytest.raises(ValueError, match=r"^the forward price is not finite \(inf\)$"):
        forward_price(100.0, DiscountCurve([1.0], [1e-320]), 1.0)
    assert forward_price(100.0, DiscountCurve([1.0], [0.5]), 1.0) == 200.0


def _one_rate(periods=1, rate_level=0, base_level=1):
    """deflators_from_short_rate on a binary tree of the given periods,
    with one flat gross rate on level rate_level and the uniform base
    measure on level base_level."""
    filtration = binary_tree_filtration(periods)
    rate, base = filtration[rate_level], filtration[base_level]
    return deflators_from_short_rate(
        filtration, ShortRateProcess((SimpleFunction(rate, np.full(rate.n_blocks, 1.05)),)),
        FAMeasure(base, np.full(base.n_blocks, 1.0 / base.n_blocks)))


def _two_period_deflators():
    return deflators_from_short_rate(*random_rate_tree(np.random.default_rng(0), 2))


def _futures(level, values, expiry):
    """futures_quotes on _two_period_deflators of the underlying with the
    given values on the given level."""
    deflators = _two_period_deflators()
    return futures_quotes(deflators, SimpleFunction(deflators[level].algebra, values), expiry)


REFUSALS = [
    ("schedule times that repeat", ValueError, "schedule times must increase",
     lambda: Schedule((0.0, 1.0, 1.0))),
    ("no period rate", DimensionMismatch, "need at least one period rate",
     lambda: ShortRateProcess(())),
    ("a rate tree shorter than the filtration", DimensionMismatch,
     "need one algebra per time, one rate per period",
     lambda: _one_rate(periods=2)),
    ("a rate off the filtration", AlgebraMismatch, "rate 0 lives off the filtration",
     lambda: _one_rate(rate_level=1)),
    ("a base measure off the finest algebra", AlgebraMismatch,
     "base measure must live on the finest algebra",
     lambda: _one_rate(base_level=0)),
    ("a forward rate that accrues backwards", InvalidInterval,
     "need valuation i <= accrual start j < end k",
     lambda: forward_rate(DiscountCurve([1.0], [0.95]), 0, 1, 1, Schedule((0.0, 1.0)))),
    ("a floating leg on a short schedule", DimensionMismatch,
     "schedule must cover every deflator period",
     lambda: floating_leg_value(_two_period_deflators(), Schedule((0.0, 1.0)))),
    ("futures expiring now", InvalidInterval, r"expiry must be in 1\.\.2",
     lambda: _futures(0, [1.0], 0)),
    ("a vector underlying", DimensionMismatch, "the underlying quote is a scalar function",
     lambda: _futures(2, np.ones((4, 2)), 2)),
    ("an underlying off the expiry algebra", AlgebraMismatch,
     "underlying must live on the expiry algebra",
     lambda: _futures(1, [1.0, 2.0], 2)),
    ("samples of two lengths", DimensionMismatch, "need matching sample vectors",
     lambda: futures_convexity([1.0, 2.0], [0.9])),
    ("no samples", ValueError, "samples must be nonempty and finite",
     lambda: futures_convexity([], [])),
    ("a nan sample", ValueError, "samples must be nonempty and finite",
     lambda: futures_convexity([1.0, np.nan], [0.9, 0.95])),
    ("weights that sum to zero", ValueError,
     "weights must be finite and nonnegative with a positive sum",
     lambda: futures_convexity([1.0, 2.0], [0.9, 0.95], weights=[1.0, -1.0])),
    ("one weight for two samples", DimensionMismatch, "need one weight per sample",
     lambda: futures_convexity([1.0, 2.0], [0.9, 0.95], weights=[1.0])),
    ("discounts whose mean is zero", ValueError, "the mean discount is zero",
     lambda: futures_convexity([1.0, 2.0], [1.0, -1.0])),
    ("a covariance that overflows", ValueError,
     r"the futures convexity is not finite \(-inf\)",
     lambda: futures_convexity([1e300, -1e300], [1e300, 1.0])),
    ("a swap valued at nan", ValueError, r"the valuation time is not finite \(nan\)",
     lambda: swap_par(DiscountCurve([1.0, 2.0], [0.95, 0.9]), Schedule((1.0, 2.0)), t=np.nan)),
    ("a conditional discount with a volatility curve", TypeError,
     "the conditional discount is implemented for constant sigma",
     lambda: ho_lee_stochastic_discount(
         HoLeeParams(phi=lambda s: 0.03, sigma=lambda s: 0.01, Sigma=lambda s: 0.01 * s),
         1.0, 0.0)),
    ("a conditional discount to a past time", InvalidInterval, "need t >= 0",
     lambda: ho_lee_stochastic_discount(HoLeeParams(phi=lambda s: 0.03, sigma=0.01), -1.0, 0.0)),
]


@pytest.mark.parametrize("exception, message, call", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_constructors_and_calls_refuse_ill_formed_input(exception, message, call):
    with pytest.raises(exception, match=f"^{message}$"):
        call()
