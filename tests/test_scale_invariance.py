"""Every verdict is free of units.

If theta is an arbitrage, so is c * theta for every c > 0, and a
deflator is defined only up to a positive factor.  So each check must
give the same verdict when the market is rescaled by 1e-6 or 1e6, and
when the position or the deflator is multiplied by 1e-9 up to 1e9.
Scaling by 1e-6 or 1e6 is not exact in binary, so a draw within 1e-6 of
its tie (residual / threshold near 1 at scale 1) is skipped: rounding
alone may flip it.  Every market here but the wide one-period markets
has under 64 payoff entries per node, so its products, and these
verdicts, hold no BLAS kernel's bits.  The wide markets, up to 4,800
entries, take BLAS products, whose last bits depend on the kernel, so
only their verdicts are checked.
"""

import numpy as np

from deflator import (
    DEFAULT_TOL,
    Algebra,
    DeflatorSequence,
    FAMeasure,
    Filtration,
    MarketPanel,
    NodeArbitrage,
    OnePeriodMarket,
    SimpleFunction,
    Strategy,
    check_deflator,
    find_tree_deflator,
    is_arbitrage_strategy,
    project_to_cone,
    verify_position,
)
from deflator import cone

SCALES = (1e-6, 1.0, 1e6)
FACTORS = 10.0 ** np.arange(-9, 10, 3)


def near_tie(residual, prices):
    """residual / threshold within 1e-6 of 1; a zero price vector, exact
    at every scale, is not near its tie of 0 / 0."""
    threshold = cone._threshold(prices, DEFAULT_TOL)
    return abs(residual - threshold) < 1e-6 * threshold


def near_tie_market(rng, outcomes=(2, 8), instruments=(2, 4)):
    """Prices that nonnegative weights of the outcomes give, some 0, then
    moved by a relative gap from 1e-12 to 1e-2 in a random direction;
    some outcomes duplicated, and sometimes a last instrument that is a
    sum of others.  The counts are drawn from the inclusive ranges."""
    n = int(rng.integers(outcomes[0], outcomes[1] + 1))
    m = int(rng.integers(instruments[0], instruments[1] + 1))
    payoffs = rng.normal(size=(n, m)) * rng.lognormal(size=(n, m))
    payoffs[rng.integers(n, size=n // 3)] = payoffs[0]
    if rng.random() < 0.3:
        payoffs[:, -1] = payoffs[:, 0] + payoffs[:, 1 % (m - 1)]
    prices = payoffs.T @ (rng.uniform(size=n) * (rng.random(n) < 0.5))
    u = rng.normal(size=m)
    gap = 10.0 ** rng.uniform(-12.0, -2.0)
    prices = prices + gap * np.linalg.norm(prices) * u / np.linalg.norm(u)
    return OnePeriodMarket(prices=prices, payoffs=payoffs)


def scaled_market(market, c):
    return OnePeriodMarket(prices=c * market.prices, payoffs=c * market.payoffs)


def test_one_period_verdicts_are_the_same_at_every_scale():
    rng = np.random.default_rng(2021)
    seen, verified = {True: 0, False: 0}, {True: 0, False: 0}
    for _ in range(400):
        market = near_tie_market(rng)
        projection = project_to_cone(market)
        if near_tie(projection.residual_norm, market.prices):
            continue
        fair = projection.certificate is None
        seen[fair] += 1
        certificate = projection.certificate
        gamma = rng.normal(size=market.n_instruments) if fair else certificate.gamma
        want = verify_position(market, gamma).is_arbitrage
        verified[want] += 1
        for c in SCALES:
            market_c = scaled_market(market, c)
            assert (project_to_cone(market_c).certificate is None) == fair
            for f in FACTORS:
                assert verify_position(market_c, f * gamma).is_arbitrage == want
    assert min(seen.values()) >= 100 and min(verified.values()) >= 100


def test_wide_one_period_verdicts_are_the_same_at_every_scale():
    # 40-400 outcomes by 2-12 instruments, 80 to 4,800 payoff entries
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        seen = {True: 0, False: 0}
        for _ in range(300):
            market = near_tie_market(rng, outcomes=(40, 400), instruments=(2, 12))
            projection = project_to_cone(market)
            if near_tie(projection.residual_norm, market.prices):
                continue
            fair = projection.certificate is None
            seen[fair] += 1
            for c in (1e-6, 1e6):
                assert (project_to_cone(scaled_market(market, c)).certificate is None) == fair
        assert min(seen.values()) >= 50, seen


def tree_panel(rng):
    """A panel on a tree of 1 to 3 periods whose nodes have 1 to 3
    children, or 2 (binomial) or 3 (trinomial) everywhere: bond, stock
    and sometimes their sum, with and without cash flows, some children
    duplicated.  Each node is priced by nonnegative weights, some 0, of
    its children's cash flow plus price; one node's prices then move by
    a relative gap from 1e-12 to 1e-2, which plants an arbitrage there
    or leaves it fair.  Returns the panel and whether that node is near
    its tie."""
    n = int(rng.integers(1, 4))
    width = int(rng.integers(1, 4))
    counts, blocks = [], 1
    for _ in range(n):
        c = (rng.integers(1, 4, size=blocks) if width == 1
             else np.full(blocks, width))
        counts.append(c)
        blocks = int(c.sum())
    parents = [np.repeat(np.arange(len(c)), c) for c in counts]
    block_of = [np.arange(blocks)]
    for parent in reversed(parents):
        block_of.insert(0, parent[block_of[0]])
    filtration = Filtration([Algebra(b) for b in block_of])
    R = rng.uniform(1.0, 1.1)
    collinear, pays = rng.random() < 0.3, rng.random() < 0.5
    m = 3 if collinear else 2

    def rows(bond, stock):
        cols = [bond, stock] + ([bond + stock] if collinear else [])
        return np.column_stack(cols)

    leaf_stock = 100.0 * rng.lognormal(0.0, 0.3, size=blocks)
    dup = rng.integers(blocks, size=blocks // 4)
    leaf_stock[dup] = leaf_stock[np.maximum(dup - 1, 0)]
    prices = [None] * n + [rows(np.full(blocks, R ** n), leaf_stock)]
    cash = [np.zeros((size, m)) for size in [1] + [len(p) for p in parents]]
    at = int(rng.integers(n))
    block = int(rng.integers(len(counts[at])))
    for i in reversed(range(n)):
        if pays:
            cash[i + 1] = rows(np.zeros(len(parents[i])),
                               rng.uniform(0.0, 2.0, size=len(parents[i])))
        q = rng.uniform(0.2, 1.0, size=parents[i].size) * (rng.random(parents[i].size) < 0.8)
        total = np.bincount(parents[i], weights=q, minlength=len(counts[i]))
        q = np.where(total[parents[i]] > 0.0, q, 1.0)
        q /= R * np.bincount(parents[i], weights=q)[parents[i]]
        settle = cash[i + 1] + prices[i + 1]
        prices[i] = np.stack([np.bincount(parents[i], weights=q * settle[:, j])
                              for j in range(m)], axis=1)
        if i == at:
            x = prices[i][block]
            u = rng.normal(size=m)
            gap = 10.0 ** rng.uniform(-12.0, -2.0)
            prices[i][block] = x + gap * np.linalg.norm(x) * u / np.linalg.norm(u)
            node = OnePeriodMarket(prices=prices[i][block], payoffs=settle[parents[i] == block])
            residual = project_to_cone(node).residual_norm
    return (MarketPanel(times=np.arange(n + 1.0), filtration=filtration,
                        prices=[SimpleFunction(filtration[j], prices[j]) for j in range(n + 1)],
                        cashflows=([SimpleFunction(filtration[j], cash[j]) for j in range(n + 1)]
                                   if pays else None)),
            near_tie(residual, node.prices))


def scaled_panel(panel, c):
    prices = [SimpleFunction(f.algebra, c * f.values) for f in panel.prices]
    cashflows = [SimpleFunction(f.algebra, c * f.values) for f in panel.cashflows]
    return MarketPanel(times=panel.times, filtration=panel.filtration, prices=prices,
                       cashflows=cashflows)


def scaled_deflators(deflators, f, last=1.0):
    measures = [FAMeasure(mu.algebra, f * mu.weights) for mu in deflators.measures]
    measures[-1] = FAMeasure(measures[-1].algebra, last * measures[-1].weights)
    return DeflatorSequence(measures)


def scaled_strategy(strategy, f):
    return Strategy([SimpleFunction(g.algebra, f * g.values) for g in strategy.trades])


def verdict(found):
    return ((found.time, found.block) if isinstance(found, NodeArbitrage)
            else type(found))


def test_tree_verdicts_are_the_same_at_every_scale():
    rng = np.random.default_rng(1021)
    seen, strategies = {True: 0, False: 0}, {True: 0, False: 0}
    for _ in range(150):
        panel, tie = tree_panel(rng)
        if tie:
            continue
        found = find_tree_deflator(panel)
        fair = isinstance(found, DeflatorSequence)
        seen[fair] += 1
        if fair:
            # a closed-out strategy: buy on one block, sell on its children
            strategy = Strategy.zero(panel)
            strategy.trades[0].values[0] = rng.normal(size=panel.n_instruments)
            strategy.trades[1].values[:] = -strategy.trades[0].values[0]
            assert check_deflator(panel, found).ok
            assert not check_deflator(panel, scaled_deflators(found, 1.0, 1.01)).ok
        else:
            strategy = found.strategy
        want = is_arbitrage_strategy(panel, strategy)
        strategies[want.is_arbitrage] += 1
        for c in SCALES:
            panel_c = scaled_panel(panel, c)
            found_c = find_tree_deflator(panel_c)
            assert verdict(found_c) == verdict(found)
            if fair:
                # the scaled panel's own deflators, and every multiple of
                # the unscaled ones; 1% off at the last time fails
                assert check_deflator(panel_c, found_c).ok
                for f in FACTORS:
                    assert check_deflator(panel_c, scaled_deflators(found, f)).ok
                    assert not check_deflator(panel_c, scaled_deflators(found, f, 1.01)).ok
            for f in FACTORS:
                assert is_arbitrage_strategy(panel_c, scaled_strategy(strategy, f)) == want
    assert min(seen.values()) >= 30 and min(strategies.values()) >= 10
