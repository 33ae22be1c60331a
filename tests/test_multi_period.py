"""Panels, trading strategies, deflator sequences, and the tree search."""

import argparse
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from deflator import (
    DEFAULT_TOL,
    Algebra,
    AlgebraMismatch,
    ArbitrageInInput,
    ArbitrageVerdict,
    DeflatorSequence,
    DeflatorZeroBlock,
    DimensionMismatch,
    FAMeasure,
    Filtration,
    InvalidInterval,
    MarketPanel,
    NodeArbitrage,
    NonConvergence,
    NotClosedOut,
    NotCoarser,
    NotSelfFinancing,
    OnePeriodMarket,
    SimpleFunction,
    Schedule,
    Strategy,
    account_process,
    binary_tree_filtration,
    binomial_stock_panel,
    check_deflator,
    deflator_from_projection,
    deterministic_panel,
    find_arbitrage,
    find_tree_deflator,
    floating_leg_value,
    futures_quotes,
    is_arbitrage_strategy,
    load_market_spec,
    pairing,
    panel_from_one_period,
    price_payoff,
    project_to_cone,
    propagate_prices,
    random_walk,
    replication_cost,
    restrict,
    product,
    zcb_price,
)
from deflator import cli, cone, multi_period
from deflator.market_files import MarketSpec

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fair_binomial_panel(n, R=1.05, s=100.0, sigma=0.3):
    # e^mu = R / cosh(sigma) makes every node a fair coin toss
    mu = np.log(R / np.cosh(sigma))
    return binomial_stock_panel(n, R=R, s=s, mu=mu, sigma=sigma), mu


def fair_deflators(panel, R):
    """Half-half node weights discounted by R**-j, by hand."""
    measures = []
    for j in range(panel.n_periods + 1):
        alg = panel.filtration[j]
        measures.append(FAMeasure(alg, np.full(alg.n_blocks, 2.0 ** -j / R ** j)))
    return DeflatorSequence(measures)


# ---------------------------------------------------------------- accounts


def test_account_process_entries():
    # bond 1 -> R, stock s -> s*u / s*d on a one-period tree
    panel, _ = fair_binomial_panel(1)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0] = [2.0, 3.0]
    strategy.trades[1].values[:] = [-2.0, -3.0]
    account = account_process(panel, strategy)
    x0 = panel.prices[0].values[0]
    assert account.entries[0].values[0] == pytest.approx(-(2.0 * x0[0] + 3.0 * x0[1]))
    x1 = panel.prices[1].values
    expected = 2.0 * x1[:, 0] + 3.0 * x1[:, 1]
    assert np.allclose(account.entries[1].values, expected)


def test_account_requires_trade_per_time():
    panel, _ = fair_binomial_panel(2)
    short = Strategy([SimpleFunction(panel.filtration[0], np.zeros((1, 2)))])
    with pytest.raises(DimensionMismatch):
        account_process(panel, short)


def test_buy_and_hold_fair_bond_is_not_arbitrage():
    panel, _ = fair_binomial_panel(3)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 0] = 1.0
    strategy.trades[3].values[:, 0] = -1.0
    verdict = is_arbitrage_strategy(panel, strategy)
    assert not verdict.is_arbitrage
    # opening trade pays out cash, so the violation is at the start
    assert verdict.first_violation == (0, 0)


def test_open_position_raises():
    panel, _ = fair_binomial_panel(2)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 0] = 1.0
    with pytest.raises(NotClosedOut):
        is_arbitrage_strategy(panel, strategy)


def test_mispriced_bond_gives_arbitrage_strategy():
    # deterministic world where the bond sells below its discounted payout
    panel = deterministic_panel(
        times=[0.0, 1.0],
        price_rows=[[0.9, 1.0], [1.0, 1.0]],
    )
    # short the fair instrument, buy the cheap one
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0] = [1.0, -1.0]
    strategy.trades[1].values[0] = [-1.0, 1.0]
    verdict = is_arbitrage_strategy(panel, strategy)
    assert verdict.is_arbitrage
    assert verdict.first_violation is None


def test_zero_strategy_is_not_arbitrage():
    # its slack is 0, and so is its position: neither check refuses it
    # as not closed out, at any market scale
    panel, _ = fair_binomial_panel(3)
    deflators = find_tree_deflator(panel)
    for c in (1e-6, 1.0, 1e6):
        scaled = MarketPanel(times=panel.times, filtration=panel.filtration,
                             prices=[SimpleFunction(f.algebra, c * f.values)
                                     for f in panel.prices])
        zero = Strategy.zero(scaled)
        assert is_arbitrage_strategy(scaled, zero) == ArbitrageVerdict(False, None)
        result = replication_cost(scaled, deflators, zero)
        assert not result.cost.values.any() and result.pairing_gap == 0.0


# ------------------------------------------------------------- deflators


def test_fair_binomial_deflator_check():
    panel, _ = fair_binomial_panel(6)
    deflators = find_tree_deflator(panel)
    assert isinstance(deflators, DeflatorSequence)
    result = check_deflator(panel, deflators, tol=1e-12)
    assert result.ok
    assert result.max_violation <= 1e-12 * panel.scale()
    # half-half weights are the unique node weights on this tree
    hand = fair_deflators(panel, R=1.05)
    for j in range(7):
        assert np.allclose(deflators[j].weights, hand[j].weights, atol=1e-12)


def test_drifted_binomial_yields_node_arbitrage():
    # mu bumped out of the no-arbitrage band at small sigma
    R, sigma = 1.05, 0.005
    mu = np.log(R / np.cosh(sigma)) + 0.01
    panel = binomial_stock_panel(4, R=R, s=100.0, mu=mu, sigma=sigma)
    node = find_tree_deflator(panel)
    assert isinstance(node, NodeArbitrage)
    assert node.certificate.setup_gain > 0 or node.certificate.min_payoff > 0
    assert node.certificate.min_payoff >= -1e-9
    # the lifted strategy monetizes the node on the full panel
    verdict = is_arbitrage_strategy(panel, node.strategy)
    assert verdict.is_arbitrage


def test_embedded_one_period_arbitrage_is_found_at_its_node():
    # butterfly of calls with a hump: arbitrage in a one-period market,
    # planted as the subtree of an otherwise fair panel via direct payoffs
    strikes = np.array([100.0, 105.0, 110.0])
    omegas = np.array([95.0, 100.0, 105.0, 110.0, 115.0])
    payoffs = np.column_stack([np.maximum(omegas[:, None] - strikes, 0.0)])
    prices = np.array([7.0, 5.0, 1.0])  # middle call too dear
    market = OnePeriodMarket(prices=prices, payoffs=payoffs)
    assert find_arbitrage(market) is not None

    panel = panel_from_one_period(market)
    node = find_tree_deflator(panel)
    assert isinstance(node, NodeArbitrage)
    assert node.time == 0
    assert node.block == 0
    assert is_arbitrage_strategy(panel, node.strategy).is_arbitrage


def test_check_deflator_rejects_wrong_weights():
    panel, _ = fair_binomial_panel(3)
    deflators = fair_deflators(panel, R=1.05)
    broken = [deflators[j] for j in range(4)]
    bad = broken[2].weights.copy()
    bad[0] *= 1.01
    broken[2] = FAMeasure(panel.filtration[2], bad)
    result = check_deflator(panel, DeflatorSequence(broken))
    assert not result.ok
    assert result.max_violation > 1e-6


def test_propagate_prices_recovers_panel_prices():
    panel, _ = fair_binomial_panel(5)
    deflators = find_tree_deflator(panel)
    for j in range(5):
        recovered = propagate_prices(panel, deflators, j, 5)
        gap = np.abs(recovered.values - panel.prices[j].values).max()
        assert gap <= 1e-10 * panel.scale()


def test_propagate_prices_with_cashflows():
    # coupon instrument alongside cash: flows enter the telescoping sum
    filtration = Filtration([Algebra.trivial(1)] * 3)
    R = 1.05
    coupon = 4.0
    bond = (coupon + (coupon + 100.0) / R) / R
    prices = [
        SimpleFunction(filtration[0], np.array([[1.0, bond]])),
        SimpleFunction(filtration[1], np.array([[R, (coupon + 100.0) / R]])),
        SimpleFunction(filtration[2], np.array([[R * R, 0.0]])),
    ]
    cashflows = [
        SimpleFunction(filtration[0], np.zeros((1, 2))),
        SimpleFunction(filtration[1], np.array([[0.0, coupon]])),
        SimpleFunction(filtration[2], np.array([[0.0, coupon + 100.0]])),
    ]
    panel = MarketPanel(times=[0.0, 1.0, 2.0], filtration=filtration,
                        prices=prices, cashflows=cashflows)
    deflators = DeflatorSequence(
        [FAMeasure(filtration[j], np.array([R ** -j])) for j in range(3)])
    assert check_deflator(panel, deflators, tol=1e-12).ok
    recovered = propagate_prices(panel, deflators, 0, 2)
    assert recovered.values[0, 1] == pytest.approx(bond, rel=1e-12)


def propagated_by_measures(panel, deflators, j, k):
    """propagate_prices as whole vector measures: restrict(product(...))
    of settle(k) and of every cash flow between, divided by Pi_j."""
    coarse = panel.filtration[j]
    acc = restrict(product(panel.settle(k), deflators[k]), coarse).weights
    for i in range(j + 1, k):
        acc = acc + restrict(product(panel.cashflows[i], deflators[i]), coarse).weights
    return acc / deflators[j].weights[:, None]


def floating_leg_by_measures(deflators, n):
    """floating_leg_value as whole measures: restrict(product(...)) of
    each payment 1/D - 1, D = restrict(Pi_j) / Pi_{j-1}, summed."""
    base, total = deflators[0].algebra, 0.0
    for j in range(1, n + 1):
        coarse = deflators[j - 1].algebra
        d_prev = restrict(deflators[j], coarse).weights / deflators[j - 1].weights
        payment = SimpleFunction(coarse, 1.0 / d_prev - 1.0).lift(deflators[j].algebra)
        total = total + restrict(product(payment, deflators[j]), base).weights
    return total


def futures_by_measures(deflators, underlying, expiry):
    """futures_quotes as whole measures, earliest quote first."""
    quotes = [underlying]
    for j in range(expiry - 1, -1, -1):
        coarse = deflators[j].algebra
        value = restrict(product(quotes[0], deflators[j + 1]), coarse).weights
        quotes.insert(0, SimpleFunction(coarse, value / restrict(deflators[j + 1], coarse).weights))
    return quotes


@pytest.mark.parametrize("children, pays", [(2, False), (2, True), (3, False), (3, True)],
                         ids=["binomial", "binomial-paying", "trinomial", "trinomial-paying"])
def test_prices_keep_the_bits_of_the_measure_products(children, pays):
    # every price formed by multi_period._price_at, and every restriction
    # of rates, has the bytes of the public restrict(product(...)) forms
    rng = np.random.default_rng(13 + 2 * children + pays)
    n = 5 if children == 2 else 4
    panel = tree_panel([np.full(children ** i, children) for i in range(n)], rng, dividends=pays)
    if not pays:
        panel = MarketPanel(panel.times, panel.filtration, panel.prices)
    deflators = DeflatorSequence([FAMeasure(alg, rng.uniform(0.1, 1.0, alg.n_blocks))
                                  for alg in panel.filtration.algebras])
    for j in range(n + 1):
        for k in range(j, n + 1):
            want = restrict(deflators[k], deflators[j].algebra).weights / deflators[j].weights
            assert zcb_price(deflators, j, k).values.tobytes() == want.tobytes()
            if j < k:
                got = propagate_prices(panel, deflators, j, k).values
                assert got.tobytes() == propagated_by_measures(panel, deflators, j, k).tobytes()
    got = floating_leg_value(deflators, Schedule(np.arange(n + 1.0)))
    assert got.tobytes() == floating_leg_by_measures(deflators, n).tobytes()
    for expiry in range(1, n + 1):
        underlying = SimpleFunction(panel.filtration[expiry],
                                    rng.uniform(50.0, 150.0, panel.filtration[expiry].n_blocks))
        for got, want in zip(futures_quotes(deflators, underlying, expiry),
                             futures_by_measures(deflators, underlying, expiry), strict=True):
            assert got.values.tobytes() == want.values.tobytes()
    # the CLI's panel price, on the deflator that the tree search assembles
    tree = find_tree_deflator(panel)
    stock = panel.settle(n).values[:, -1]
    for payoff, values in (("call 100", np.maximum(stock - 100.0, 0.0)),
                           ("const 1", np.ones_like(stock))):
        fields, code = cli.cmd_price(argparse.Namespace(payoff=payoff),
                                     MarketSpec("panel", panel), DEFAULT_TOL)
        claim = SimpleFunction(panel.filtration[n], values)
        want = restrict(product(claim, tree[n]), panel.filtration[0]).weights / tree[0].weights
        assert code == 0 and fields["prices"]["per_block"].tobytes() == want.tobytes()


def test_zcb_price_restricts_the_deflator_itself():
    # the unit claim is no array: zcb_price holds its result, the
    # restriction it divides and two block masks, and nothing the size of
    # level 18 but Pi_18; for k > j + 1 it also composes the block maps
    filtration = binary_tree_filtration(18)
    deflators = DeflatorSequence([FAMeasure(alg, np.full(alg.n_blocks, 0.5 ** i))
                                  for i, alg in enumerate(filtration.algebras)])
    out, peak = traced_peak(lambda: zcb_price(deflators, 17, 18).values)
    np.testing.assert_array_equal(out, 2.0 * 0.5 ** 18 / 0.5 ** 17)
    assert peak < 2 * out.nbytes + 2 ** 18 * 8 // 4


@pytest.mark.parametrize("j", [17, 0])
def test_propagate_prices_holds_no_vector_measure_of_the_fine_level(j):
    # one instrument at a time: the result, one product column of the
    # finest level and its restriction, and for j < 17 the composed map;
    # neither the (2**18, 2) product nor a strided copy of its column
    panel = binomial_stock_panel(18, R=1.05, s=100.0, mu=0.0, sigma=0.2)
    deflators = DeflatorSequence([FAMeasure(alg, np.full(alg.n_blocks, 0.5 ** i))
                                  for i, alg in enumerate(panel.filtration.algebras)])
    tracemalloc.start()
    try:
        out = propagate_prices(panel, deflators, j, 18).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fine, coarse = 2 ** 18 * 8, 2 ** j * 8
    composed = fine if j < 17 else 0
    assert peak < out.nbytes + fine + coarse + composed + 2 ** 16
    assert out.tobytes() == propagated_by_measures(panel, deflators, j, 18).tobytes()


def traced_peak(call):
    """call() and the tracemalloc peak of the allocations it makes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_paying_panel_is_checked_and_propagated_without_its_settlement():
    # cash flow and price are added one column at a time: zero cash
    # flows, given explicitly, change neither the bits nor, within 10%,
    # the peak memory of the panel built without them
    free = binomial_stock_panel(16, R=1.05, s=100.0, mu=0.0, sigma=0.2)
    algebras = free.filtration.algebras
    paying = MarketPanel(free.times, free.filtration, free.prices,
                         [SimpleFunction(alg, np.zeros((alg.n_blocks, 2))) for alg in algebras])
    deflators = DeflatorSequence([FAMeasure(alg, np.full(alg.n_blocks, 0.5 ** i))
                                  for i, alg in enumerate(algebras)])
    for call in (lambda panel: check_deflator(panel, deflators),
                 lambda panel: propagate_prices(panel, deflators, 15, 16).values,
                 lambda panel: propagate_prices(panel, deflators, 0, 16).values):
        (want, low), (got, peak) = (traced_peak(lambda: call(panel)) for panel in (free, paying))
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got.max_violation == want.max_violation and got.ok == want.ok
        assert peak <= 1.1 * low


# ------------------------------------------------------------ replication


def test_replication_cost_matches_backward_induction():
    panel, _ = fair_binomial_panel(3)
    deflators = find_tree_deflator(panel)
    R = 1.05
    strike = 100.0
    terminal_stock = panel.prices[3].values[:, 1]
    values = np.maximum(terminal_stock - strike, 0.0)

    # backward induction, solving bond/stock replication at every node
    filtration = panel.filtration
    trades = [np.zeros((filtration[j].n_blocks, 2)) for j in range(4)]
    level = values
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
    assert result.cost.values[0] == pytest.approx(level[0], rel=1e-12)
    assert np.allclose(result.terminal.values, values, atol=1e-9)
    assert result.pairing_gap <= 1e-9 * panel.scale()

    # and the pairing identity ties cost to the deflated payoff
    payoff = SimpleFunction(filtration[3], values)
    direct = pairing(payoff, deflators[3]) / deflators[0].weights[0]
    assert result.cost.values[0] == pytest.approx(direct, rel=1e-12)


def test_replication_rejects_interior_cash():
    panel, _ = fair_binomial_panel(2)
    deflators = find_tree_deflator(panel)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 0] = 1.0
    strategy.trades[1].values[:, 0] = -0.5   # sells half, pockets cash
    strategy.trades[2].values[:, 0] = -0.5
    with pytest.raises(NotSelfFinancing) as exc:
        replication_cost(panel, deflators, strategy)
    assert exc.value.time == 1


def test_replication_requires_close_out():
    panel, _ = fair_binomial_panel(2)
    deflators = find_tree_deflator(panel)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 1] = 2.0
    with pytest.raises(NotClosedOut):
        replication_cost(panel, deflators, strategy)


def refuses_to_close_out(check, *args):
    """True when check raises NotClosedOut; the checks it reaches after a
    passing close-out check may refuse the strategy on other grounds."""
    try:
        check(*args)
    except NotClosedOut:
        return True
    except (NotSelfFinancing, ValueError):
        pass
    return False


def test_both_checks_refuse_the_same_residual_positions():
    # a residual just above or just below tol * trade scale, left
    # at the last active trade, which is sometimes before the horizon
    rng = np.random.default_rng(61)
    for trial in range(40):
        if trial % 2:
            children = [np.full(3 ** i, 3) for i in range(int(rng.integers(1, 4)))]
            panel = tree_panel(children, rng, dividends=bool(rng.integers(2)))
        else:
            panel = fair_binomial_panel(int(rng.integers(1, 5)))[0]
        deflators = find_tree_deflator(panel)
        filtration, n = panel.filtration, panel.n_periods
        k = int(rng.integers(1, n + 1))
        i = int(rng.integers(0, k))
        strategy = Strategy.zero(panel)
        opening = strategy.trades[i].values
        opening[:] = rng.normal(size=opening.shape) * 10.0 ** rng.uniform(-3, 3)
        up = filtration[k].coarse_block_map(filtration[i])
        strategy.trades[k].values[:] = -opening[up]
        trade_scale = float(np.abs(opening).max())
        above = trial % 4 < 2
        residual = (1.01 if above else 0.99) * DEFAULT_TOL * trade_scale
        b = int(rng.integers(filtration[k].n_blocks))
        strategy.trades[k].values[b, int(rng.integers(2))] += residual
        position = account_process(panel, strategy).position
        assert (np.abs(position).max() > DEFAULT_TOL * trade_scale) == above
        arbitrage = refuses_to_close_out(is_arbitrage_strategy, panel, strategy)
        replication = refuses_to_close_out(replication_cost, panel, deflators, strategy)
        assert arbitrage == replication == above


def test_random_self_financing_strategies_satisfy_pairing():
    rng = np.random.default_rng(7)
    panel, _ = fair_binomial_panel(4)
    deflators = find_tree_deflator(panel)
    filtration = panel.filtration
    for _ in range(20):
        # random opening trade, then roll the position into bonds at a
        # random interior time, all cash-neutral by construction
        trades = [np.zeros((filtration[j].n_blocks, 2)) for j in range(5)]
        opening = rng.normal(size=2)
        trades[0][0] = opening
        switch = int(rng.integers(1, 4))
        for b in range(filtration[switch].n_blocks):
            x = panel.prices[switch].values[b]
            proceeds = opening @ x
            trades[switch][b] = [proceeds / x[0] - opening[0], -opening[1]]
        hold = np.zeros((filtration[switch].n_blocks, 2))
        hold[:, 0] = trades[switch][:, 0] + opening[0]
        child_map = filtration[4].coarse_block_map(filtration[switch])
        trades[4] = -hold[child_map]
        strategy = Strategy([SimpleFunction(filtration[j], trades[j])
                             for j in range(5)])
        result = replication_cost(panel, deflators, strategy)
        assert result.pairing_gap <= 1e-9 * panel.scale()


# -------------------------------------------------------------- builders


def test_binomial_panel_prices():
    panel, mu = fair_binomial_panel(3, R=1.07, s=50.0, sigma=0.2)
    assert panel.n_periods == 3
    assert panel.n_instruments == 2
    assert np.allclose(panel.prices[2].values[:, 0], 1.07 ** 2)
    _, walk, _ = random_walk(3)
    expected = 50.0 * np.exp(mu * 3 + 0.2 * walk[3].values)
    assert np.allclose(panel.prices[3].values[:, 1], expected)


def test_binomial_panel_prices_are_the_walk_formula_bit_for_bit():
    for n in range(1, 9):
        R, s, mu, sigma = 1.03, 90.0, 0.01 * n - 0.04, 0.05 * n
        panel = binomial_stock_panel(n, R=R, s=s, mu=mu, sigma=sigma)
        _, walk, _ = random_walk(n)
        for j in range(n + 1):
            np.testing.assert_array_equal(panel.prices[j].values[:, 0], np.full(2 ** j, R ** j))
            np.testing.assert_array_equal(panel.prices[j].values[:, 1],
                                          s * np.exp(mu * j + sigma * walk[j].values))


def test_settle_on_panels_with_and_without_cash_flows():
    panel, _ = fair_binomial_panel(4)
    for j in range(5):
        assert panel.settle(j) is panel.prices[j]
    assert panel.scale() == max(np.abs(f.values).max() for f in panel.prices)
    rng = np.random.default_rng(7)
    flows = [SimpleFunction(alg, rng.normal(size=(alg.n_blocks, 2)) if j else
                            np.zeros((1, 2)))
             for j, alg in enumerate(panel.filtration.algebras)]
    paying = MarketPanel(panel.times, panel.filtration, panel.prices, flows)
    for j in range(5):
        np.testing.assert_array_equal(paying.settle(j).values,
                                      flows[j].values + panel.prices[j].values)
    assert paying.scale() == (max(np.abs(f.values).max() for f in panel.prices)
                              + max(np.abs(f.values).max() for f in flows))


def test_check_deflator_reports_the_largest_blockwise_gap_exactly():
    # the gap of both sides as whole vector measures, each restriction
    # summed by np.add.at in fine-block order
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        panel, _ = fair_binomial_panel(n)
        if trial % 2:
            flows = [SimpleFunction(alg, rng.normal(size=(alg.n_blocks, 2)) if j else
                                    np.zeros((1, 2)))
                     for j, alg in enumerate(panel.filtration.algebras)]
            panel = MarketPanel(panel.times, panel.filtration, panel.prices, flows)
        deflators = DeflatorSequence([FAMeasure(alg, rng.uniform(0.1, 1.0, alg.n_blocks))
                                      for alg in panel.filtration.algebras])
        want = 0.0
        for i in range(n):
            up = panel.filtration[i + 1].coarse_block_map(panel.filtration[i])
            rhs = np.zeros((panel.filtration[i].n_blocks, 2))
            np.add.at(rhs, up, (panel.cashflows[i + 1].values + panel.prices[i + 1].values)
                      * deflators[i + 1].weights[:, None])
            lhs = panel.prices[i].values * deflators[i].weights[:, None]
            want = max(want, float(np.abs(lhs - rhs).max()))
        assert check_deflator(panel, deflators).max_violation == want


def test_deterministic_panel_shapes_and_zero_time0_flows():
    panel = deterministic_panel(
        times=[0.0, 0.5, 1.0],
        price_rows=[[1.0, 2.0], [1.1, 2.2], [1.21, 0.0]],
        cashflow_rows=[[0.0, 0.0], [0.0, 0.1], [0.0, 2.42]],
    )
    assert panel.n_periods == 2
    assert panel.cashflows[1].values[0, 1] == 0.1
    with pytest.raises(ValueError):
        deterministic_panel(times=[0.0, 1.0],
                            price_rows=[[1.0], [1.1]],
                            cashflow_rows=[[0.5], [0.0]])


def test_panel_from_one_period_agrees_with_direct_pricing():
    prices = np.array([1.0, 100.0])
    payoffs = np.array([[1.07, 80.0], [1.07, 125.0]])
    market = OnePeriodMarket(prices=prices, payoffs=payoffs)
    panel = panel_from_one_period(market)
    deflators = find_tree_deflator(panel)
    target = np.maximum(payoffs[:, 1] - 100.0, 0.0)
    direct = price_payoff(market, deflator_from_projection(project_to_cone(market)),
                          target)
    payoff = SimpleFunction(panel.filtration[1], target)
    vault = pairing(payoff, deflators[1])
    assert vault == pytest.approx(direct, rel=1e-10)


def test_times_must_increase():
    with pytest.raises(ValueError):
        deterministic_panel(times=[0.0, 0.0], price_rows=[[1.0], [1.0]])


def test_deflator_sequence_validation():
    alg = Algebra.trivial(1)
    with pytest.raises(ValueError):
        DeflatorSequence([FAMeasure(alg, np.array([0.0]))])
    fine = Algebra.discrete(2)
    with pytest.raises(ValueError):
        DeflatorSequence([FAMeasure(alg, np.array([1.0])),
                          FAMeasure(fine, np.array([0.5, -0.5]))])


def test_restricted_deflator_mass_is_conserved_by_tree_search():
    panel, _ = fair_binomial_panel(4)
    deflators = find_tree_deflator(panel)
    # node weights multiply along paths; restricting the terminal measure
    # down the filtration recovers each intermediate one times the bond
    for j in range(4):
        pushed = restrict(deflators[4], panel.filtration[j]).weights
        ratio = pushed / deflators[j].weights
        assert np.allclose(ratio, ratio[0])


# ------------------------------------------------- level-batched tree search


def per_node_search(panel, tol=DEFAULT_TOL):
    """The node-by-node tree search, the oracle of the pack solves: one
    projection per node in (time, block) order.  Returns the deflator
    weights per time, or (time, block, certificate) of the first node
    outside its cone."""
    filtration = panel.filtration
    weights = [np.ones(filtration[0].n_blocks)]
    for i in range(panel.n_periods):
        fine, coarse = filtration[i + 1], filtration[i]
        parent = np.empty(fine.n_blocks, dtype=int)
        parent[fine.block_of] = coarse.block_of
        settle = panel.settle(i + 1).values
        next_weights = np.zeros(fine.n_blocks)
        for b in range(coarse.n_blocks):
            children = np.flatnonzero(parent == b)
            local = OnePeriodMarket(prices=panel.prices[i].values[b],
                                    payoffs=settle[children])
            projection = project_to_cone(local, tol)
            certificate = projection.certificate
            if certificate is not None:
                return i, b, certificate
            next_weights[children] = weights[i][b] * projection.weights
        weights.append(next_weights)
    return weights


def assert_matches_per_node_search(panel):
    got, want = find_tree_deflator(panel), per_node_search(panel)
    if isinstance(want, tuple):
        time, block, certificate = want
        assert isinstance(got, NodeArbitrage)
        assert (got.time, got.block) == (time, block)
        # the witness's weights in its pack solve are its own: the
        # certificate has the bits of the node projected alone
        np.testing.assert_array_equal(got.certificate.gamma, certificate.gamma)
        assert got.certificate.setup_gain == certificate.setup_gain
        assert got.certificate.min_payoff == certificate.min_payoff
        assert is_arbitrage_strategy(panel, got.strategy).is_arbitrage
        return got
    assert isinstance(got, DeflatorSequence)
    for j, w in enumerate(want):
        np.testing.assert_allclose(got[j].weights, w, rtol=1e-9,
                                   atol=1e-12 * w.max())
    assert check_deflator(panel, got).ok
    return got


def tree_panel(children, rng, R=1.04, s=100.0, dividends=False, leaves=None):
    """A fair bond-and-stock panel on a tree: children[i][b] is the
    number of children of block b at time i.  Terminal stock prices are
    `leaves` or drawn, and every node is priced by positive weights
    summing to 1/R, so each node is inside its cone by construction."""
    parents = [np.repeat(np.arange(len(c)), c) for c in children]
    n = len(children)
    n_leaves = parents[-1].size
    block_of = [np.arange(n_leaves)]
    for parent in reversed(parents):
        block_of.insert(0, parent[block_of[0]])
    filtration = Filtration([Algebra(b) for b in block_of])
    stock = [None] * (n + 1)
    cash = [np.zeros(len(b)) for b in [np.zeros(1)] + parents]
    stock[n] = (s * rng.lognormal(0.0, 0.3, size=n_leaves) if leaves is None
                else np.asarray(leaves, dtype=float))
    for i in reversed(range(n)):
        if dividends:
            cash[i + 1] = rng.uniform(0.0, 2.0, size=parents[i].size)
        q = rng.uniform(0.2, 1.0, size=parents[i].size)
        q /= R * np.bincount(parents[i], weights=q)[parents[i]]
        stock[i] = np.bincount(parents[i], weights=q * (stock[i + 1] + cash[i + 1]))
    prices = [SimpleFunction(filtration[j], np.column_stack(
        [np.full(len(stock[j]), R ** j), stock[j]])) for j in range(n + 1)]
    cashflows = [SimpleFunction(filtration[j], np.column_stack(
        [np.zeros(len(cash[j])), cash[j]])) for j in range(n + 1)]
    return MarketPanel(times=np.arange(n + 1.0), filtration=filtration,
                       prices=prices, cashflows=cashflows)


def test_tree_search_matches_per_node_search_on_criterion_trees():
    rng = np.random.default_rng(88)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        R = rng.uniform(1.01, 1.1)
        sigma = rng.uniform(0.05, 0.5)
        panel = binomial_stock_panel(n, R=R, s=100.0,
                                     mu=math.log(R / math.cosh(sigma)), sigma=sigma)
        assert_matches_per_node_search(panel)
    sigma = 0.005
    drifted = binomial_stock_panel(6, R=1.05, s=100.0,
                                   mu=math.log(1.05 / math.cosh(sigma)) + 0.01,
                                   sigma=sigma)
    assert isinstance(assert_matches_per_node_search(drifted), NodeArbitrage)


def test_tree_search_matches_per_node_search_on_the_panel_fixture():
    panel = load_market_spec(FIXTURES / "binomial_panel.json").payload
    assert_matches_per_node_search(panel)


def test_tree_search_matches_per_node_search_on_a_trinomial_tree():
    rng = np.random.default_rng(3)
    children = [np.full(3 ** i, 3) for i in range(5)]
    assert_matches_per_node_search(tree_panel(children, rng))
    assert_matches_per_node_search(tree_panel(children, rng, dividends=True))


def test_tree_search_with_one_two_and_three_children_in_a_level():
    rng = np.random.default_rng(17)
    children = [np.array([3]), np.array([1, 2, 3]), np.array([2, 1, 3, 1, 2, 3])]
    for dividends in (False, True):
        panel = tree_panel(children, rng, dividends=dividends)
        assert_matches_per_node_search(panel)


def test_tree_search_square_node_with_duplicated_children():
    rng = np.random.default_rng(5)
    # both children of block 1 settle alike: a singular 2 x 2 node
    panel = tree_panel([np.array([2]), np.array([2, 2])], rng,
                       leaves=[80.0, 125.0, 104.0, 104.0])
    settle = panel.settle(2).values
    assert np.array_equal(settle[2], settle[3])
    deflators = assert_matches_per_node_search(panel)
    assert deflators[2].weights[2:].sum() == pytest.approx(deflators[1].weights[1] / 1.04)


def planted_binomial(n, plants):
    """The fair binomial panel with the stock at each (time, block) of
    plants quoted 25% above its up child's discounted price."""
    panel, _ = fair_binomial_panel(n)
    for time, block in plants:
        up = panel.prices[time + 1].values[2 * block + 1, 1]
        panel.prices[time].values[block, 1] = 1.25 * up / 1.05
    return panel


def test_tree_search_witness_is_the_lowest_failing_block():
    panel = planted_binomial(4, [(2, 3), (2, 1)])
    node = assert_matches_per_node_search(panel)
    assert (node.time, node.block) == (2, 1)
    # the other planted node fails on its own too
    children = panel.prices[3].values[[6, 7]]
    assert find_arbitrage(OnePeriodMarket(prices=panel.prices[2].values[3],
                                          payoffs=children)) is not None
    # a failing node at a later level does not move the witness
    node = assert_matches_per_node_search(planted_binomial(4, [(3, 7), (2, 3)]))
    assert (node.time, node.block) == (2, 3)


def test_tree_search_witness_is_the_lowest_block_across_child_counts():
    # a level is solved in stacks of equal child count, the 1-child
    # stack first; the witness is still the lowest failing block
    rng = np.random.default_rng(17)
    panel = tree_panel([np.array([3]), np.array([3, 1, 2])], rng)
    for block, children in ((0, [0, 1, 2]), (1, [3])):
        panel.prices[1].values[block, 1] = 1.25 * panel.prices[2].values[children, 1].max() / 1.04
    node = assert_matches_per_node_search(panel)
    assert (node.time, node.block) == (1, 0)


def test_tree_search_solves_each_node_once(monkeypatch):
    # the witness is built from its pack solve: no node is projected
    # again, by project_to_cone or otherwise, on a fair panel or on one
    # that fails at its last node
    solved, stack = [], cone._project_stack
    for module in (cone, multi_period):
        monkeypatch.setattr(module, "_project_stack", lambda rows, children, *a:
                            solved.append(len(children)) or stack(rows, children, *a))
    assert isinstance(find_tree_deflator(fair_binomial_panel(8)[0]), DeflatorSequence)
    assert sum(solved) == 2 ** 8 - 1
    solved.clear()
    assert isinstance(find_tree_deflator(planted_binomial(6, [(5, 31)])), NodeArbitrage)
    assert sum(solved) == 2 ** 6 - 1


def test_tree_search_needs_a_refining_filtration():
    # a panel lives on a Filtration, which refuses a chain that stops refining
    middle = Algebra.from_blocks([[0, 1], [2, 3]])
    crossing = Algebra.from_blocks([[0, 2], [1, 3]])
    with pytest.raises(NotCoarser):
        Filtration([Algebra.trivial(4), middle, crossing])


def with_bond_plus_stock(panel):
    """panel with a third instrument, one bond plus one stock: still fair,
    and its three-instrument nodes go through the active-set solver,
    where two-instrument nodes are solved directly."""
    def widen(fs):
        return [SimpleFunction(f.algebra, np.column_stack([f.values, f.values.sum(axis=1)]))
                for f in fs]
    return MarketPanel(times=panel.times, filtration=panel.filtration,
                       prices=widen(panel.prices), cashflows=widen(panel.cashflows))


def test_tree_search_propagates_nonconvergence(monkeypatch):
    rng = np.random.default_rng(3)
    panel = with_bond_plus_stock(tree_panel([np.full(3 ** i, 3) for i in range(3)], rng))
    # the one solver gives up on every node past one subproblem solve:
    # the lowest such node of the first level is the witness, and raises
    stack = cone._nnls_stack
    monkeypatch.setattr(cone, "_nnls_stack", lambda A, b, maxiter=None: stack(A, b, 1))
    with pytest.raises(NonConvergence):
        find_tree_deflator(panel)


def stuck_at(monkeypatch, prices):
    """The solver, patched so that every node quoting prices passes its
    subproblem cap: NaN, as the solver leaves it."""
    stack = cone._nnls_stack

    def stack_stuck(A, b, maxiter=None):
        w, rnorm = stack(A, b, maxiter)
        hit = (b == prices).all(axis=1)
        w[hit], rnorm[hit] = np.nan, np.nan
        return w, rnorm

    monkeypatch.setattr(cone, "_nnls_stack", stack_stuck)


def test_tree_search_nonconvergence_keeps_the_lowest_block_witness(monkeypatch):
    rng = np.random.default_rng(3)
    panel = with_bond_plus_stock(tree_panel([np.full(3 ** i, 3) for i in range(3)], rng))
    # block 2 of time 1 passes its subproblem cap
    stuck_at(monkeypatch, panel.prices[1].values[2].copy())
    # nothing below the stuck node fails: the search reaches it
    with pytest.raises(NonConvergence):
        find_tree_deflator(panel)
    # the stock at block 0 of the same level quoted above every child
    panel.prices[1].values[0, 1] = 1.25 * panel.prices[2].values[:3, 1].max() / 1.04
    node = assert_matches_per_node_search(panel)
    assert (node.time, node.block) == (1, 0)


def test_tree_search_refuses_prices_made_infinite_after_the_panel_was_built():
    # a panel checks its prices once; the witness of a level refuses them
    # again, and gives no certificate of NaN.  The pack solve meets inf -
    # inf on the way, as it did when the witness was solved again alone.
    panel = binomial_stock_panel(3, R=1.05, s=100.0, mu=0.0, sigma=0.2)
    panel.prices[1].values[1, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        find_tree_deflator(panel)


def test_check_deflator_refuses_a_product_that_overflows():
    # a finite price times a finite deflator weight can overflow; the
    # check refuses it, as a product measure does, instead of holding an
    # inf gap to a bound made inf by the same price.  A terminal price
    # is only ever restricted, an interior one also priced at its node
    for time, block in ((3, 5), (1, 1)):
        panel, _ = fair_binomial_panel(3)
        deflators = find_tree_deflator(panel)
        large = DeflatorSequence([FAMeasure(mu.algebra, mu.weights * 1e10)
                                  for mu in deflators.measures])
        panel.prices[time].values[block, 1] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            check_deflator(panel, large)


def test_fair_trinomial_tree_needs_neither_nnls_nor_lapack(monkeypatch):
    # every node of a bond-and-stock tree is solved directly on two of
    # its three children: no node reaches the active-set solver, and no
    # LAPACK solver is called, so the weights hold no BLAS kernel's bits
    def refuse(*args, **kwargs):
        raise AssertionError("solver called")

    rng = np.random.default_rng(97)
    panel = tree_panel([np.full(3 ** i, 3) for i in range(6)], rng)
    monkeypatch.setattr(cone, "_nnls_stack", refuse)
    for name in ("lstsq", "qr", "inv", "solve", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    deflators = find_tree_deflator(panel)
    assert isinstance(deflators, DeflatorSequence)
    assert check_deflator(panel, deflators).ok


def test_tree_search_on_a_wide_node():
    # one node of 60 children: many more columns than the passive set
    rng = np.random.default_rng(9)
    payoffs = rng.lognormal(size=(60, 4))
    fair = payoffs.T @ rng.uniform(0.0, 0.1, 60)
    for prices in (fair, fair * [1.0, 1.0, 1.0, 0.0]):
        market = OnePeriodMarket(prices=prices, payoffs=payoffs)
        assert_matches_per_node_search(panel_from_one_period(market))


# ------------------------------------------------- packs of tree levels


def level_by_level_search(panel, tol=DEFAULT_TOL):
    """The tree search with one _solve_level call per level, the oracle
    of the packed search: a DeflatorSequence, or the NodeArbitrage of the
    lowest failing block of the first failing level."""
    filtration = panel.filtration
    weights = [np.ones(filtration[0].n_blocks)]
    for i in range(panel.n_periods):
        child_parent = filtration[i + 1].coarse_block_map(filtration[i])
        settle = panel.settle(i + 1).values
        prices = panel.prices[i].values
        node_w, b = multi_period._solve_level(child_parent, settle, prices, tol)
        if b is not None:
            children = np.flatnonzero(child_parent == b)
            certificate = cone._projection(settle[children], prices[b], node_w[children],
                                           False).certificate
            strategy = Strategy.zero(panel)
            strategy.trades[i].values[b] = certificate.gamma
            strategy.trades[i + 1].values[children] = -certificate.gamma
            return NodeArbitrage(time=i, block=b, certificate=certificate, strategy=strategy)
        node_w *= weights[i][child_parent]
        weights.append(node_w)
    return DeflatorSequence([FAMeasure(filtration[j], weights[j])
                             for j in range(panel.n_periods + 1)])


def assert_packed_is_level_by_level(panel):
    """The packed search gives the level-by-level search's bytes: every
    level's weights, or the witness, its certificate and its strategy."""
    got, want = find_tree_deflator(panel), level_by_level_search(panel)
    assert type(got) is type(want)
    if isinstance(want, NodeArbitrage):
        assert (got.time, got.block) == (want.time, want.block)
        assert got.certificate.gamma.tobytes() == want.certificate.gamma.tobytes()
        assert got.certificate.setup_gain == want.certificate.setup_gain
        for a, b in zip(got.strategy.trades, want.strategy.trades, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
    else:
        for a, b in zip(got.measures, want.measures, strict=True):
            assert a.weights.tobytes() == b.weights.tobytes()
    return got


def pack_sizes(panel):
    """The number of levels in each pack of the search on panel."""
    return [len(levels) for levels in multi_period._packs(panel.filtration,
                                                           panel.n_instruments)]


def test_packed_search_is_level_by_level_on_fair_binomial_panels():
    # depth 11 is one pack; from 12 on the larger levels are packs of their own
    for n, sizes in ((1, [1]), (2, [2]), (5, [5]), (11, [11]), (12, [11, 1]),
                     (14, [11, 1, 1, 1])):
        panel, _ = fair_binomial_panel(n)
        assert pack_sizes(panel) == sizes
        assert isinstance(assert_packed_is_level_by_level(panel), DeflatorSequence)


def test_packed_search_is_level_by_level_on_trinomial_and_paying_panels():
    rng = np.random.default_rng(29)
    children = [np.full(3 ** i, 3) for i in range(8)]
    for dividends in (False, True):
        panel = tree_panel(children, rng, dividends=dividends)
        assert pack_sizes(panel) == [7, 1]
        assert isinstance(assert_packed_is_level_by_level(panel), DeflatorSequence)


def test_packed_search_is_level_by_level_with_mixed_child_counts():
    # levels of one, two and three children per node in one pack: a pack
    # is solved in stacks of equal child count across its levels
    rng = np.random.default_rng(31)
    children = [np.array([3])]
    for _ in range(4):
        children.append(rng.integers(1, 4, size=int(children[-1].sum())))
    for dividends in (False, True):
        panel = tree_panel(children, rng, dividends=dividends)
        assert pack_sizes(panel) == [5]
        assert isinstance(assert_packed_is_level_by_level(panel), DeflatorSequence)
        # a planted node in the last level of the pack, lowest of its level
        parent = panel.filtration[5].coarse_block_map(panel.filtration[4])
        block = int(np.flatnonzero(np.bincount(parent) == 3)[0])
        top = panel.settle(5).values[parent == block, 1].max()
        panel.prices[4].values[block, 1] = 1.25 * top / 1.04
        node = assert_packed_is_level_by_level(panel)
        assert (node.time, node.block) == (4, block)


def test_packed_search_is_level_by_level_on_three_instrument_nodes():
    # bond, stock and their sum: every node goes through _nnls_stack, in
    # stacks that mix the levels of a pack
    rng = np.random.default_rng(37)
    trinomial = with_bond_plus_stock(tree_panel([np.full(3 ** i, 3) for i in range(7)], rng,
                                                dividends=True))
    binomial = with_bond_plus_stock(fair_binomial_panel(12)[0])
    assert pack_sizes(trinomial) == [6, 1] and pack_sizes(binomial) == [10, 1, 1]
    for panel in (trinomial, binomial):
        assert isinstance(assert_packed_is_level_by_level(panel), DeflatorSequence)


def test_packed_search_finds_a_planted_arbitrage_at_every_level():
    # planted at up children (odd blocks), so their parents stay fair
    for time in range(8):
        for block in {0} if time == 0 else {1, 2 ** time // 3 | 1, 2 ** time - 1}:
            node = assert_packed_is_level_by_level(planted_binomial(8, [(time, block)]))
            assert (node.time, node.block) == (time, block)


def test_the_earlier_level_wins_inside_one_pack():
    # both failures are in the one pack of an 8-period panel; the later
    # level's failing block is lower than the earlier one's
    for plants, witness in (([(6, 1), (3, 5)], (3, 5)), ([(7, 1), (2, 3)], (2, 3)),
                            ([(5, 9), (5, 3)], (5, 3))):
        node = assert_packed_is_level_by_level(planted_binomial(8, plants))
        assert (node.time, node.block) == witness


def test_a_node_past_the_cap_raises_only_as_the_witness(monkeypatch):
    rng = np.random.default_rng(3)
    panel = with_bond_plus_stock(tree_panel([np.full(3 ** i, 3) for i in range(4)], rng))
    assert pack_sizes(panel) == [4]

    def above_its_children(time, block):
        # the stock quoted above every child, and the node fails alone
        children = np.flatnonzero(
            panel.filtration[time + 1].coarse_block_map(panel.filtration[time]) == block)
        x = panel.prices[time].values[block]
        x[1] = 1.25 * panel.prices[time + 1].values[children, 1].max() / 1.04
        x[2] = x[:2].sum()
        local = OnePeriodMarket(prices=x, payoffs=panel.settle(time + 1).values[children])
        assert find_arbitrage(local) is not None

    stuck_at(monkeypatch, panel.prices[2].values[4].copy())
    for search in (find_tree_deflator, level_by_level_search):
        with pytest.raises(NonConvergence):
            search(panel)
    # an arbitrage at a later level of the same pack does not hide it
    above_its_children(3, 0)
    for search in (find_tree_deflator, level_by_level_search):
        with pytest.raises(NonConvergence):
            search(panel)
    # an arbitrage at an earlier level is the witness, and nothing raises
    above_its_children(1, 2)
    node = assert_packed_is_level_by_level(panel)
    assert (node.time, node.block) == (1, 2)


def test_the_tree_search_makes_one_stack_per_pack(monkeypatch):
    # the benchmark's panels: a 2^14-leaf binomial and a 3^9-leaf
    # trinomial panel, levels 0-10 and 0-6 in one stack each, every
    # larger level in its own
    solved, stack = [], cone._project_stack
    monkeypatch.setattr(multi_period, "_project_stack", lambda rows, children, *a:
                        solved.append(len(children)) or stack(rows, children, *a))
    assert isinstance(find_tree_deflator(fair_binomial_panel(14)[0]), DeflatorSequence)
    assert solved == [2 ** 11 - 1, 2 ** 11, 2 ** 12, 2 ** 13]
    solved.clear()
    rng = np.random.default_rng(41)
    panel = tree_panel([np.full(3 ** i, 3) for i in range(9)], rng)
    assert isinstance(find_tree_deflator(panel), DeflatorSequence)
    assert solved == [(3 ** 7 - 1) // 2, 3 ** 7, 3 ** 8]
    assert sum(solved) == (3 ** 9 - 1) // 2


def test_a_pack_holds_no_more_memory_than_its_largest_level():
    # a level larger than one stack is passed in place, never concatenated
    panel, _ = fair_binomial_panel(16)
    got, peak = traced_peak(lambda: find_tree_deflator(panel))
    want, oracle_peak = traced_peak(lambda: level_by_level_search(panel))
    assert peak <= 1.1 * oracle_peak
    for a, b in zip(got.measures, want.measures, strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_panel_verdicts_refuse_a_tolerance_not_finite_and_positive(tol):
    # at -1 and nan the fair panel's tree search returned a node
    # "arbitrage" at (0, 0) that gains +100 and pays as little as -135.6
    panel, _ = fair_binomial_panel(6)
    deflators = find_tree_deflator(panel)
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 0] = 1.0
    strategy.trades[6].values[:, 0] = -1.0
    for call in (lambda: find_tree_deflator(panel, tol),
                 lambda: check_deflator(panel, deflators, tol),
                 lambda: is_arbitrage_strategy(panel, strategy, tol),
                 lambda: replication_cost(panel, deflators, strategy, tol)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"tol: the tolerance must be finite and > 0, not {tol!r}"
    assert check_deflator(panel, deflators).ok
    assert not is_arbitrage_strategy(panel, strategy).is_arbitrage
    assert replication_cost(panel, deflators, strategy).cost.values[0] == 1.0


def test_propagate_prices_refuses_a_deflator_that_vanishes_on_a_block():
    panel, _ = fair_binomial_panel(2)
    weights = [mu.weights.copy() for mu in fair_deflators(panel, 1.05).measures]
    weights[1][0] = 0.0
    deflators = DeflatorSequence([FAMeasure(panel.filtration[j], w)
                                  for j, w in enumerate(weights)])
    with pytest.raises(DeflatorZeroBlock, match="deflator at time 1 vanishes on a block"):
        propagate_prices(panel, deflators, 1, 2)
    # level 0 divides by the positive time-0 deflator
    assert propagate_prices(panel, deflators, 0, 2).values.shape == (1, 2)


def test_market_panel_refuses_misshapen_and_non_finite_input():
    panel = binomial_stock_panel(2, R=1.05, s=100.0, mu=0.0, sigma=0.2)
    times, filtration, prices = panel.times, panel.filtration, panel.prices
    scalar = [SimpleFunction(f.algebra, f.values[:, 0]) for f in prices]
    for args, message in (
            ((times[:2], filtration, prices), "need one time per algebra"),
            ((times, filtration, prices[:2]), "need one price function per time"),
            ((times, filtration, scalar), "prices must be vector-valued"),
            ((times, filtration, prices, panel.cashflows[:2]),
             "need one cash flow function per time")):
        with pytest.raises(DimensionMismatch, match=message):
            MarketPanel(*args)
    # a NaN time passed the increase check
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="times must be finite and increase"):
            MarketPanel([0.0, bad, 2.0], filtration, prices)


def test_propagate_prices_refuses_deflators_off_the_panel():
    # before, a one-block measure at time 1 divided both time-1 blocks and
    # gave a wrong price, and a sequence of two measures raised IndexError
    panel, _ = fair_binomial_panel(3)
    deflators = fair_deflators(panel, 1.05)
    np.testing.assert_allclose(propagate_prices(panel, deflators, 1, 3).values,
                               panel.prices[1].values, rtol=1e-12)
    coarse = list(deflators.measures)
    coarse[1] = FAMeasure(panel.filtration[0], [0.5 / 1.05])
    for bad, exception, message in (
            (DeflatorSequence(coarse), AlgebraMismatch, "deflator 1 lives off the filtration"),
            (DeflatorSequence(deflators.measures[:2]), DimensionMismatch,
             "need one deflator measure per time")):
        with pytest.raises(exception, match=f"^{message}$"):
            propagate_prices(panel, bad, 1, 3)
        with pytest.raises(exception, match=f"^{message}$"):
            check_deflator(panel, bad)


def _with_prices(panel, j, f):
    prices = list(panel.prices)
    prices[j] = f
    return MarketPanel(panel.times, panel.filtration, prices)


def _bond_held_to_the_horizon(panel):
    strategy = Strategy.zero(panel)
    strategy.trades[0].values[0, 0] = 1.0
    strategy.trades[-1].values[:, 0] = -1.0
    return strategy


def _horizon_doubled(deflators):
    last = deflators[len(deflators) - 1]
    return DeflatorSequence([*deflators.measures[:-1], FAMeasure(last.algebra, 2 * last.weights)])


REFUSALS = [
    ("price on another algebra", AlgebraMismatch,
     r"prices\[1\] must live on the filtration's algebra",
     lambda p, d: _with_prices(p, 1, p.prices[2])),
    ("price of three instruments", DimensionMismatch,
     r"prices\[1\] must hold one row of 2 instruments per block",
     lambda p, d: _with_prices(p, 1, SimpleFunction(p.filtration[1], np.zeros((2, 3))))),
    ("strategy without trades", DimensionMismatch, "a strategy needs at least one trade time",
     lambda p, d: Strategy([])),
    ("no deflator", DimensionMismatch, "need at least one measure",
     lambda p, d: DeflatorSequence([])),
    ("vector deflator", DimensionMismatch, "deflators are scalar measures",
     lambda p, d: DeflatorSequence([FAMeasure(p.filtration[0], np.ones((1, 2)))])),
    ("an interval that ends before it starts", InvalidInterval, "need 0 <= j < k <= 2",
     lambda p, d: propagate_prices(p, d, 2, 1)),
    ("deflators that misprice", ValueError,
     r"pairing identity fails by 1\.0; the deflators do not price this panel",
     lambda p, d: replication_cost(p, _horizon_doubled(d), _bond_held_to_the_horizon(p))),
]


@pytest.mark.parametrize("exception, message, call", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_calls_refuse_input_that_does_not_fit_the_panel(exception, message, call):
    panel, _ = fair_binomial_panel(2)
    with pytest.raises(exception, match=f"^{message}$"):
        call(panel, fair_deflators(panel, 1.05))
