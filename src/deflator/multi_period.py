"""Multi-period market panels, trading strategies and deflator sequences.

A panel quotes every instrument's price and cash flow as simple
functions along a filtration.  A strategy trades at each time; its
account process collects what the trades cost and what the positions
earn.  A deflator sequence prices the panel when, blockwise at every
node, today's price measure equals the restriction of tomorrow's
(cash flow + price) measure.  On tree filtrations that condition is
checked constructively by projecting each node's prices onto the cone
of its children, which either assembles the deflators or exhibits an
arbitrage localized at one node.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cone import (_STACK_ENTRIES, DEFAULT_TOL, ArbitrageCertificate, OnePeriodMarket,
                   _project_stack, _projection, _threshold, check_tolerance)
from .exceptions import (AlgebraMismatch, DeflatorZeroBlock, DimensionMismatch,
                         InvalidInterval, NotClosedOut, NotSelfFinancing)
from .filtration import (Algebra, FAMeasure, Filtration, SimpleFunction, _bincount,
                         _restrict_product, _walk_levels, binary_tree_filtration, pairing,
                         product)


def _vector_on(algebra: Algebra, f: SimpleFunction, what: str, m: int) -> None:
    if f.algebra != algebra:
        raise AlgebraMismatch(f"{what} must live on the filtration's algebra")
    if not f.is_vector or f.values.shape[1] != m:
        raise DimensionMismatch(f"{what} must hold one row of {m} instruments per block")


class MarketPanel:
    """Instrument prices and cash flows along a filtration.

    prices[j] and cashflows[j] are vector simple functions on the j-th
    algebra; cashflows[0] is identically zero (time-0 quotes carry no
    coupon) and cashflows=None means no instrument ever pays one (the
    cash flows are then read-only zero rows that take no memory).
    Cash flow plus price must be finite at every time (ValueError).
    The panel keeps its own copy of times; it holds the caller's price
    and cash flow functions.
    """

    def __init__(self, times, filtration: Filtration, prices, cashflows=None):
        times = np.array(times, dtype=float)
        if times.ndim != 1 or times.size != len(filtration):
            raise DimensionMismatch("need one time per algebra")
        if not np.isfinite(times).all() or (np.diff(times) <= 0).any():
            raise ValueError("times must be finite and increase")
        prices = list(prices)
        if len(prices) != len(filtration):
            raise DimensionMismatch("need one price function per time")
        m = prices[0].values.shape[1] if prices[0].is_vector else 0
        if m == 0:
            raise DimensionMismatch("prices must be vector-valued simple functions")
        for j, f in enumerate(prices):
            _vector_on(filtration[j], f, f"prices[{j}]", m)
        self._pays = cashflows is not None
        if cashflows is None:
            cashflows = [SimpleFunction(alg, np.broadcast_to(0.0, (alg.n_blocks, m)))
                         for alg in filtration.algebras]
        else:
            cashflows = list(cashflows)
            if len(cashflows) != len(filtration):
                raise DimensionMismatch("need one cash flow function per time")
            for j, f in enumerate(cashflows):
                _vector_on(filtration[j], f, f"cashflows[{j}]", m)
            if np.any(cashflows[0].values != 0.0):
                raise ValueError("time-0 cash flows must be zero")
            # settle adds them: a sum that overflows would reach the solves as inf
            with np.errstate(over="ignore"):
                finite = [np.isfinite(c.values + x.values).all()
                          for c, x in zip(cashflows, prices)]
            if not all(finite):
                raise ValueError(f"cash flow plus price overflows at time {finite.index(False)}")
        self.times = times
        self.filtration = filtration
        self.prices = prices
        self.cashflows = cashflows
        self.n_instruments = m

    @property
    def n_periods(self) -> int:
        return len(self.filtration) - 1

    def scale(self) -> float:
        """max |price| + max |cash flow|, the market's unit in the checks
        (each a max of max and -min: np.abs would copy every level)."""
        return sum(max(float(max(f.values.max(), -f.values.min())) for f in fs)
                   for fs in ((self.prices, self.cashflows) if self._pays else (self.prices,)))

    def settle(self, j: int) -> SimpleFunction:
        """Cash flow plus price at time j: what holding into t_j delivers.
        On a panel that pays no cash flows this is the price function."""
        if not self._pays:
            return self.prices[j]
        return SimpleFunction(self.filtration[j],
                              self.cashflows[j].values + self.prices[j].values)

    def _settle_terms(self, j: int):
        """The terms of settle(j), whose elementwise sum it is: cash flow
        and price, or the price alone on a panel that pays none."""
        return (self.cashflows[j], self.prices[j]) if self._pays else (self.prices[j],)


class Strategy:
    """Trades per time: trades[j] adds to the position on each block of
    the j-th algebra.  Positions are the running sums, lifted forward."""

    def __init__(self, trades):
        self.trades = list(trades)
        if not self.trades:
            raise DimensionMismatch("a strategy needs at least one trade time")

    @classmethod
    def zero(cls, panel: MarketPanel) -> "Strategy":
        return cls([SimpleFunction(panel.filtration[j],
                                   np.zeros((panel.filtration[j].n_blocks,
                                             panel.n_instruments)))
                    for j in range(panel.n_periods + 1)])


def _row_dot(a: SimpleFunction, b: SimpleFunction) -> np.ndarray:
    return np.einsum("bm,bm->b", a.values, b.values)


@dataclass(frozen=True, eq=False)
class AccountProcess:
    """entries[j] is the cash generated at time j: trades at t_0 cost
    -trade . price, later entries collect position . cashflow minus the
    cost of the new trade; position is Xi_n, held after the last trade."""

    entries: list[SimpleFunction]
    position: np.ndarray


def account_process(panel: MarketPanel, strategy: Strategy) -> AccountProcess:
    """The cash account A_j = Xi_{j-1} . C_j - Gamma_j . X_j."""
    return AccountProcess(*_account(panel, strategy)[:2])


def _held(quotes: SimpleFunction, holding: SimpleFunction, tol: float) -> np.ndarray:
    """cone._threshold of each block's quotes times its holding's norm."""
    return _threshold(quotes.values, tol) * np.linalg.norm(holding.values, axis=1)


def _account(panel: MarketPanel, strategy: Strategy, tol=None):
    """account_process's entries and Xi_n and, given tol, each entry's
    slack, formed in the walk that lifts the positions: A_j(b) is held to
    _threshold(X_j)(b) ||Gamma_j(b)|| + _threshold(C_j)(b) ||Xi_{j-1}(b)||
    (_held; no C_j term on a panel that pays none), as cone._slack holds
    a one-period position."""
    if len(strategy.trades) != panel.n_periods + 1:
        raise DimensionMismatch("strategy must trade at every panel time")
    for j, g in enumerate(strategy.trades):
        _vector_on(panel.filtration[j], g, f"trades[{j}]", panel.n_instruments)
    entries = [SimpleFunction(panel.filtration[0],
                              -_row_dot(strategy.trades[0], panel.prices[0]))]
    slacks = [] if tol is None else [_held(panel.prices[0], strategy.trades[0], tol)]
    position = strategy.trades[0]
    for j in range(1, panel.n_periods + 1):
        carried = position.lift(panel.filtration[j])
        earned = _row_dot(carried, panel.cashflows[j])
        spent = _row_dot(strategy.trades[j], panel.prices[j])
        entries.append(SimpleFunction(panel.filtration[j], earned - spent))
        if tol is not None:
            slacks.append(_held(panel.prices[j], strategy.trades[j], tol)
                          + (_held(panel.cashflows[j], carried, tol) if panel._pays else 0.0))
        position = SimpleFunction(panel.filtration[j],
                                  carried.values + strategy.trades[j].values)
    return entries, position.values, slacks


def _closed_account(panel: MarketPanel, strategy: Strategy, tol: float,
                    not_closed: str):
    """The account entries of a strategy and their slacks (_account).
    Trades after the last nonzero one are zero, so Xi_n is as large as
    the position after the last trade: NotClosedOut unless it is within
    tol * max|trades|.  ValueError unless tol is finite and > 0, and for
    quotes whose squares are out of range (cone._threshold)."""
    tol = check_tolerance(tol, "tol")
    entries, position, slacks = _account(panel, strategy, tol)
    trade_scale = max(float(np.abs(g.values).max()) for g in strategy.trades)
    if np.abs(position).max() > tol * trade_scale:
        raise NotClosedOut(not_closed)
    return entries, slacks


@dataclass(frozen=True)
class ArbitrageVerdict:
    is_arbitrage: bool
    first_violation: tuple[int, int] | None   # (time index, block)


def is_arbitrage_strategy(panel: MarketPanel, strategy: Strategy,
                          tol: float = DEFAULT_TOL) -> ArbitrageVerdict:
    """Does the strategy bank cash on its opening trade and never pay after?

    The strategy must be closed out: its position after the last trade
    must be zero (NotClosedOut otherwise).  It is an arbitrage when the
    account entry at the first trading time is strictly positive on
    every block actually traded, and all later entries are nonnegative,
    each entry up to its own slack, block by block (_account): the rule
    of cone.verify_position, which gives gamma the verdict this gives
    Strategy([gamma, -gamma]) on panel_from_one_period.  The witness is
    the first violating (time, block).
    """
    entries, slacks = _closed_account(panel, strategy, tol,
                                      "position after the last trade is not zero")
    active = [j for j, g in enumerate(strategy.trades) if np.any(g.values != 0.0)]
    if not active:
        return ArbitrageVerdict(False, None)
    j0 = active[0]
    opening = entries[j0].values
    traded = np.any(strategy.trades[j0].values != 0.0, axis=1)
    for b in np.flatnonzero(traded):
        if not opening[b] > slacks[j0][b]:
            return ArbitrageVerdict(False, (j0, int(b)))
    for j in range(j0 + 1, panel.n_periods + 1):
        bad = np.flatnonzero(entries[j].values < -slacks[j])
        if bad.size:
            return ArbitrageVerdict(False, (j, int(bad[0])))
    return ArbitrageVerdict(True, None)


class DeflatorSequence:
    """One scalar measure per time: strictly positive at time 0,
    nonnegative afterwards."""

    def __init__(self, measures):
        self.measures = list(measures)
        if not self.measures:
            raise DimensionMismatch("need at least one measure")
        for j, mu in enumerate(self.measures):
            if mu.is_vector:
                raise DimensionMismatch("deflators are scalar measures")
            if (mu.weights < 0).any():
                raise ValueError(f"deflator weights at time {j} must be nonnegative")
        if (self.measures[0].weights <= 0).any():
            raise ValueError("time-0 deflator must be strictly positive")

    def __len__(self):
        return len(self.measures)

    def __getitem__(self, j) -> FAMeasure:
        return self.measures[j]


def _deflators_on(panel: MarketPanel, deflators: DeflatorSequence) -> None:
    """DimensionMismatch unless there is one deflator measure per time of
    the panel, AlgebraMismatch unless each lives on its time's algebra."""
    if len(deflators) != panel.n_periods + 1:
        raise DimensionMismatch("need one deflator measure per time")
    for j in range(panel.n_periods + 1):
        if deflators[j].algebra != panel.filtration[j]:
            raise AlgebraMismatch(f"deflator {j} lives off the filtration")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    max_violation: float


def check_deflator(panel: MarketPanel, deflators: DeflatorSequence,
                   tol: float = DEFAULT_TOL) -> CheckResult:
    """Verify X_i Pi_i = (C_{i+1} + X_{i+1}) Pi_{i+1} restricted, for all i.

    Each side is a vector measure on the i-th algebra; the violation is
    the largest blockwise component gap.  Level i's gap is held to
    tol * panel.scale() * max(max Pi_i, max Pi_{i+1}): the market's unit
    times the deflator's, so c * Pi gets Pi's verdict for every c > 0.
    ValueError unless tol is finite and > 0 (cone.check_tolerance), and
    the deflators must fit the panel (_deflators_on).
    """
    _deflators_on(panel, deflators)
    unit, worst, ok = check_tolerance(tol, "tol") * panel.scale(), 0.0, True
    size = [float(mu.weights.max()) for mu in deflators.measures]
    # finest level first and one instrument at a time: no other level,
    # and no vector measure on the finer level, is held meanwhile; the
    # gap takes the restriction's place, as |rhs - lhs| = |lhs - rhs|
    for i in reversed(range(panel.n_periods)):
        diff = _restrict_product(panel._settle_terms(i + 1), deflators[i + 1],
                                panel.filtration[i])
        diff -= product(panel.prices[i], deflators[i]).weights
        gap = float(np.abs(diff, out=diff).max())
        worst, ok = max(worst, gap), ok and gap <= unit * max(size[i], size[i + 1])
    return CheckResult(ok=ok, max_violation=worst)


def _price_at(j: int, deflators: DeflatorSequence, flows) -> SimpleFunction:
    """Time-j prices X_j of the cash flows (i, fs) paid at times i >= j, by
    X_j Pi_j = sum_i C_i Pi_i restricted to level j: C_i is the sum of fs
    or, for no fs, the unit claim (_restrict_product), and the terms are
    added in the order of flows, then divided by Pi_j blockwise.
    DeflatorZeroBlock if Pi_j vanishes on some block."""
    den, coarse = deflators[j].weights, deflators[j].algebra
    if (den <= 0).any():
        raise DeflatorZeroBlock(f"deflator at time {j} vanishes on a block")
    (i, fs), *later = flows
    acc = _restrict_product(fs, deflators[i], coarse)
    for i, fs in later:
        acc += _restrict_product(fs, deflators[i], coarse)
    return SimpleFunction(coarse, acc / (den if acc.ndim == 1 else den[:, None]))


def propagate_prices(panel: MarketPanel, deflators: DeflatorSequence,
                     j: int, k: int) -> SimpleFunction:
    """Recover time-j prices from cash flows through time k: _price_at of
    C_k + X_k at k, then of C_i at each j < i < k (none for a panel that
    pays none), one instrument at a time.  The deflators must fit the
    panel, as for check_deflator (_deflators_on)."""
    if not 0 <= j < k <= panel.n_periods:
        raise InvalidInterval(f"need 0 <= j < k <= {panel.n_periods}")
    _deflators_on(panel, deflators)
    coupons = [(i, panel.cashflows[i:i + 1]) for i in range(j + 1, k)] if panel._pays else []
    return _price_at(j, deflators, [(k, panel._settle_terms(k)), *coupons])


@dataclass(frozen=True)
class NodeArbitrage:
    """A failed node: its local certificate and the strategy that plays
    it, trading gamma on the node and unwinding on its children."""

    time: int
    block: int
    certificate: ArbitrageCertificate
    strategy: Strategy


def _solve_level(child_parent, settle, prices, tol):
    """Project every node of a tree level, or of a pack of levels whose
    nodes and children are numbered on, onto the cone of its children's
    settlement rows, in stacks of nodes with equal child counts.
    Returns the weight of each child, the lowest node not inside its
    cone (outside, or NaN past the solver's cap) and the basis of its
    passive span that _project_stack gives, or None and None."""
    # children grouped by parent, each group in block order
    order = np.argsort(child_parent, kind="stable")
    counts = _bincount(child_parent, minlength=prices.shape[0])
    node_w = np.empty(child_parent.size)
    failed = []
    # a level of one child count copies neither its children nor its prices
    one = (counts == counts[0]).all()
    for k in counts[:1] if one else np.unique(counts):
        nodes = np.flatnonzero(counts == k)
        children = (order if one else order[np.repeat(counts == k, counts)]).reshape(-1, k)
        node_w[children], inside, basis = _project_stack(
            settle, children, prices if one else prices[nodes], tol)
        if basis is not None:
            failed.append((int(nodes[inside.argmin()]), basis))
    b, basis = min(failed, key=lambda f: f[0], default=(None, None))
    return node_w, b, basis


def _packs(filtration, m):
    """The non-terminal levels of a tree in packs of consecutive levels,
    as ranges: a pack takes the next level while their child rows times
    the m instruments stay within one stack's _STACK_ENTRIES, and a
    level larger than that is a pack of its own."""
    i = 0
    while i + 1 < len(filtration):
        j, rows = i + 1, filtration[i + 1].n_blocks
        while j + 1 < len(filtration) and (rows + filtration[j + 1].n_blocks) * m <= _STACK_ENTRIES:
            rows += filtration[j + 1].n_blocks
            j += 1
        yield range(i, j)
        i = j


def find_tree_deflator(panel: MarketPanel, tol: float = DEFAULT_TOL):
    """Assemble deflators pack by pack of levels, or surface an arbitrage node.

    At each block b of each non-terminal algebra, the node's price
    vector is projected onto the cone of its children's settlement
    rows, once.  The nodes are independent, so the levels are solved
    in packs of consecutive levels, each pack within one stack's
    cone._STACK_ENTRIES payoff entries, or one level larger than that:
    nodes of a pack with the same number of children are projected
    together, as one stack of cone._project_stack.  If every projection
    lands inside, the node weights multiply along paths, level by
    level, into a DeflatorSequence with weight one per time-0 block.
    Otherwise the witness is the lowest failing block of the first
    failing level: the certificate built from its weights and factor in
    the pack solve, and the strategy that plays it, make the
    NodeArbitrage.  The levels after it in its pack are solved too, and
    no later pack.  A node whose solve passed the subproblem cap fails
    with NaN weights, and raises NonConvergence if it is the witness:
    only when no lower arbitrage precedes it.  ValueError unless tol is
    finite and > 0.
    """
    tol, filtration = check_tolerance(tol, "tol"), panel.filtration
    weights = [np.ones(filtration[0].n_blocks)]
    for levels in _packs(filtration, panel.n_instruments):
        child_parent = [filtration[i + 1].coarse_block_map(filtration[i]) for i in levels]
        settle = [panel.settle(i + 1).values for i in levels]
        prices = [panel.prices[i].values for i in levels]
        # the first node and the first child of each level of the pack
        nodes = list(accumulate((x.shape[0] for x in prices), initial=0))
        kids = list(accumulate((c.size for c in child_parent), initial=0))
        if len(levels) == 1:
            node_w, b, basis = _solve_level(child_parent[0], settle[0], prices[0], tol)
        else:
            node_w, b, basis = _solve_level(
                np.concatenate([c + n for c, n in zip(child_parent, nodes)]),
                np.concatenate(settle), np.concatenate(prices), tol)
        if b is not None:
            t = bisect_right(nodes, b) - 1
            time, block = levels[t], b - nodes[t]
            children = np.flatnonzero(child_parent[t] == block)
            certificate = _projection(settle[t][children], prices[t][block],
                                      node_w[kids[t] + children], basis).certificate
            strategy = Strategy.zero(panel)
            strategy.trades[time].values[block] = certificate.gamma
            strategy.trades[time + 1].values[children] = -certificate.gamma
            return NodeArbitrage(time=time, block=block, certificate=certificate,
                                 strategy=strategy)
        for t, i in enumerate(levels):
            w = node_w[kids[t]:kids[t + 1]]
            w *= weights[i][child_parent[t]]
            weights.append(w)
    return DeflatorSequence([FAMeasure(filtration[j], weights[j])
                             for j in range(panel.n_periods + 1)])


@dataclass(frozen=True)
class ReplicationResult:
    """cost is what the opening trade spends per time-0 block; terminal
    is what the closed-out strategy delivers at the horizon."""

    cost: SimpleFunction
    terminal: SimpleFunction
    pairing_gap: float


def replication_cost(panel: MarketPanel, deflators: DeflatorSequence,
                     strategy: Strategy, tol: float = DEFAULT_TOL) -> ReplicationResult:
    """Opening cost and terminal payout of a self-financing strategy.

    The strategy must be closed out at the horizon and generate no
    interior cash beyond each entry's slack, block by block (_account;
    NotSelfFinancing with the offending time and block otherwise).  The
    two sides then satisfy the pairing identity <cost, Pi_0> =
    <terminal, Pi_n>, which is verified against the supplied deflators
    to sum_j <slack_j, Pi_j>.  The deflators must fit the panel, as for
    check_deflator (_deflators_on).
    """
    entries, slacks = _closed_account(panel, strategy, tol,
                                      "strategy does not close out at the horizon")
    _deflators_on(panel, deflators)
    for j in range(1, panel.n_periods):
        entry = entries[j].values
        bad = np.flatnonzero(np.abs(entry) > slacks[j])
        if bad.size:
            raise NotSelfFinancing(
                f"interior account entry {entry[bad[0]]} at time {j}, "
                f"block {bad[0]}", time=j, block=int(bad[0]))
    cost = SimpleFunction(panel.filtration[0], -entries[0].values)
    terminal = entries[-1]
    lhs = pairing(cost, deflators[0])
    rhs = pairing(terminal, deflators[len(deflators) - 1])
    gap = abs(lhs - rhs)
    if gap > sum(float(np.einsum("b,b->", slack, mu.weights))
                 for slack, mu in zip(slacks, deflators.measures)):
        raise ValueError(
            f"pairing identity fails by {gap}; the deflators do not price "
            "this panel")
    return ReplicationResult(cost=cost, terminal=terminal, pairing_gap=float(gap))


def binomial_stock_panel(n_periods: int, R: float, s: float, mu: float,
                         sigma: float) -> MarketPanel:
    """Bond and stock on the binary tree: at time j the bond quotes R**j
    and the stock s * exp(mu*j + sigma*Z_j) with Z the symmetric walk."""
    filtration = binary_tree_filtration(n_periods)
    prices = []
    # one level at a time, so the walk is never held whole
    for j, z in enumerate(_walk_levels(n_periods)):
        rows = np.empty((z.size, 2))
        rows[:, 0], rows[:, 1] = float(R) ** j, s * np.exp(mu * j + sigma * z)
        prices.append(SimpleFunction(filtration[j], rows))
    return MarketPanel(times=np.arange(n_periods + 1.0), filtration=filtration,
                       prices=prices)


def deterministic_panel(times, price_rows, cashflow_rows=None) -> MarketPanel:
    """A single-path panel: one block at every time.

    price_rows[j] (and cashflow_rows[j], if given) is the instrument
    vector at time j.
    """
    price_rows = list(price_rows)
    filtration = Filtration([Algebra.trivial(1) for _ in price_rows])

    def levels(rows):
        return [SimpleFunction(filtration[j], np.atleast_1d(np.asarray(r, dtype=float))[None, :])
                for j, r in enumerate(rows)]

    return MarketPanel(times=times, filtration=filtration, prices=levels(price_rows),
                       cashflows=None if cashflow_rows is None else levels(cashflow_rows))


def panel_from_one_period(market: OnePeriodMarket) -> MarketPanel:
    """Embed a one-period market as a two-time panel whose terminal
    algebra separates the outcomes."""
    n = market.n_outcomes
    filtration = Filtration([Algebra.trivial(n), Algebra.discrete(n)])
    prices = [SimpleFunction(filtration[0], market.prices[None, :]),
              SimpleFunction(filtration[1], market.payoffs)]
    return MarketPanel(times=np.arange(2.0), filtration=filtration, prices=prices)
