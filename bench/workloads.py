"""The benchmark's workloads: inputs made from a seed, the operations
run on them, and the checks of each operation's output.

A workload is built once (its set-up) and then yields the same round of
operations again and again.  Each operation has a `run`, which calls the
program and is timed, and a `check`, which compares what `run` returned
with the oracles in `oracles.py` or with properties the method must have.
Checks raise CheckFailed.  An operation may carry a `fault`: the name of
a known defect of the program that makes it fail every time; it then
counts as failed without making the run incorrect.

The library workloads look every program function up on the `deflator`
package at call time, so that the wrappers of a traced run see them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import deflator as D
import oracles

TOL = D.DEFAULT_TOL


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value, want, rel, what, abs_tol=0.0) -> None:
    value, want = float(value), float(want)
    require(abs(value - want) <= rel * abs(want) + abs_tol,
            f"{what}: {value!r} differs from the oracle {want!r}")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None


# known defects that make an operation fail every time
NNLS_FLOOR = "nnls-stationarity-floor"
VERIFY_ABS_TOL = "verify-position-absolute-tol"


# ---------------------------------------------------------------------------
# cli_calls


# the invocations of tests/test_cli.py::CASES: name -> (exit code, argv)
CLI_CASES = {
    "detect_ex5": (3, ["detect", "ex5.json"]),
    "detect_fair_binomial": (0, ["detect", "fair_binomial.json"]),
    "detect_panel": (0, ["detect", "binomial_panel.json"]),
    "price_fair_binomial_call": (0, ["price", "fair_binomial.json",
                                     "--payoff", "call 100"]),
    "price_panel_call": (0, ["price", "binomial_panel.json",
                             "--payoff", "call 100"]),
    "price_panel_zcb": (0, ["price", "binomial_panel.json",
                            "--payoff", "const 1"]),
    "price_bach_atm_put": (0, ["price", "bach.json", "--payoff", "put 105"]),
    "price_gbm_put": (0, ["price", "gbm.json", "--payoff", "put 100"]),
    "price_levy_put": (0, ["price", "levy.json", "--payoff", "put 100"]),
    "hedge_fair_binomial_call": (0, ["hedge", "fair_binomial.json",
                                     "--payoff", "call 100"]),
    "hedge_bach_atm_call": (0, ["hedge", "bach.json", "--payoff", "call 105"]),
    "curve_par": (0, ["curve", "curve.txt", "par",
                      "--schedule", "0,0.5,1,1.5,2"]),
    "curve_swap": (0, ["curve", "curve.txt", "swap", "--schedule", "1,2"]),
    "curve_fra": (0, ["curve", "curve.txt", "fra", "0", "1",
                      "--schedule", "1,2"]),
    "curve_price": (0, ["curve", "curve.txt", "price", "0.04",
                        "--schedule", "0,0.5,1,1.5,2"]),
}

# what a `deflator` console script runs
CLI_ENTRY = "import sys; from deflator.cli import main; sys.exit(main())"


def _spec(fixtures: Path, name: str) -> dict:
    return json.loads((fixtures / name).read_text())


def _one_period_arrays(spec):
    prices = np.array([i["price"] for i in spec["instruments"]], dtype=float)
    return prices, np.array(spec["payoffs"], dtype=float)


def _panel_levels(spec):
    """Settlement prices per time, and the binary-tree order of blocks."""
    levels = []
    for blocks, prices in zip(spec["blocks"], spec["prices"]):
        # order blocks by their first atom: the order of a binary tree
        order = np.argsort([min(b) for b in blocks])
        levels.append(np.array(prices, dtype=float)[order])
    return levels


def _schedule(text):
    times = [float(t) for t in text.split(",")]
    return times, [b - a for a, b in zip(times, times[1:])]


class CliOracle:
    """Checks of each CLI case, from the fixture files alone."""

    def __init__(self, fixtures: Path):
        self.fixtures = fixtures

    def __call__(self, name, doc):
        getattr(self, name.split("_")[0])(name, doc)

    def detect(self, name, doc):
        if name == "detect_panel":
            levels = _panel_levels(_spec(self.fixtures, "binomial_panel.json"))
            want = oracles.binary_tree_weights(levels)
            require(doc["verdict"] == "deflator", "panel verdict")
            for got, w in zip(doc["weights"], want):
                require(min(got) >= 0.0, "negative deflator weight")
                require(np.allclose(got, w, rtol=1e-9, atol=0.0),
                        "panel deflator differs from the two-state weights")
            return
        x, X = _one_period_arrays(_spec(self.fixtures, name[len("detect_"):] + ".json"))
        threshold = TOL * (1.0 + np.linalg.norm(x))
        distance = oracles.cone_distance(x, X)
        if distance <= threshold:
            require(doc["verdict"] == "deflator", "verdict should be deflator")
            w = np.array(doc["weights"]["weights"])
            require(w.min() >= 0.0, "negative deflator weight")
            require(np.linalg.norm(X.T @ w - x) <= threshold,
                    "deflator does not reprice the market")
            return
        require(doc["verdict"] == "arbitrage", "verdict should be arbitrage")
        cert = doc["certificate"]
        gamma = np.array(cert["gamma"])
        close(np.linalg.norm(gamma), 1.0, 1e-12, "certificate norm")
        require(gamma @ x < 0.0, "certificate does not cost less than zero")
        close(-(gamma @ x), cert["setup_gain"], 1e-12, "setup gain")
        require((X @ gamma).min() >= -TOL * np.abs(X).max(),
                "certificate loses in some outcome")
        close(cert["setup_gain"], distance, 1e-6, "setup gain against the distance")

    def price(self, name, doc):
        p = doc["prices"]
        if name == "price_fair_binomial_call":
            x, X = _one_period_arrays(_spec(self.fixtures, "fair_binomial.json"))
            w = oracles.two_state_weights(x, X)
            close(p["value"], w @ np.maximum(X[:, 1] - 100.0, 0.0), 1e-9, "call")
        elif name.startswith("price_panel"):
            levels = _panel_levels(_spec(self.fixtures, "binomial_panel.json"))
            w = oracles.binary_tree_weights(levels)[-1]
            stock = levels[-1][:, 1]
            payoff = (np.maximum(stock - 100.0, 0.0) if name.endswith("call")
                      else np.ones_like(stock))
            close(p["per_block"][0], w @ payoff, 1e-9, name)
            if name.endswith("call"):
                R = levels[1][0, 0] / levels[0][0, 0]
                s = levels[0][0, 1]
                up, down = levels[1][1, 1] / s, levels[1][0, 1] / s
                close(p["per_block"][0],
                      oracles.crr_call(R, s, up, down, len(levels) - 1, 100.0),
                      1e-9, "CRR call")
            else:
                close(p["per_block"][0], levels[0][0, 0] / levels[-1][0, 0], 1e-12,
                      "zero coupon bond")
        elif name == "price_bach_atm_put":
            spec = _spec(self.fixtures, "bach.json")
            value, delta = oracles.bachelier_put(spec["R"], spec["s"], spec["sigma"], 105.0)
            close(p["value"], value, 1e-12, "Bachelier put")
            close(p["quadrature"], value, 1e-12, "Bachelier put quadrature")
            close(p["delta"], delta, 1e-12, "Bachelier delta")
        else:
            spec = _spec(self.fixtures, "gbm.json" if "gbm" in name else "levy.json")
            want = oracles.gbm_put(spec["r"], spec["s"], spec["sigma"], spec["t"], 100.0)
            if "gbm" in name:
                for key in ("forward_value", "pv", "delta", "gamma"):
                    close(p[key], want[key], 1e-12, f"lognormal {key}")
                close(p["quadrature"], want["forward_value"], 1e-12, "quadrature")
            else:
                base = spec["base"]
                require((base["mean"], base["nodes"], base["weights"]) == (0.0, [0.0], [1.0]),
                        "the levy fixture is no longer the standard normal law")
                close(p["forward_value"], want["forward_value"], 1e-9, "levy put")
                close(p["quadrature"], want["forward_value"], 1e-9, "levy quadrature")

    def hedge(self, name, doc):
        h = doc["hedge"]
        if name == "hedge_bach_atm_call":
            spec = _spec(self.fixtures, "bach.json")
            want = oracles.bachelier_hedge(spec["R"], spec["s"], spec["sigma"], 105.0)
            close(h["gamma"][0], want["gamma"][0], 1e-12, "bond holding")
            close(h["gamma"][1], want["gamma"][1], 1e-12, "stock holding")
            for key in ("hedge_cost", "corr", "least_squared_error"):
                close(h[key], want[key], 1e-12, key)
            return
        x, X = _one_period_arrays(_spec(self.fixtures, "fair_binomial.json"))
        payoff = np.maximum(X[:, 1] - 100.0, 0.0)
        gamma = np.linalg.solve(X, payoff)          # two states: exact replication
        close(h["gamma"][0], gamma[0], 1e-9, "bond holding")
        close(h["gamma"][1], gamma[1], 1e-9, "stock holding")
        close(h["hedge_cost"], gamma @ x, 1e-9, "hedge cost")
        require(abs(h["least_squared_error"]) <= 1e-9 * payoff.max() ** 2,
                "replication error of a complete market")
        close(h["corr"], 1.0, 1e-12, "correlation")

    def curve(self, name, doc):
        curve = oracles.read_curve((self.fixtures / "curve.txt").read_text())
        times, fractions = doc["schedule"]["calc_times"], doc["schedule"]["fractions"]
        argv = CLI_CASES[name][1]
        require((times, fractions) == _schedule(argv[-1]), "schedule echo")
        action = doc["action"]
        if action == "par":
            want = oracles.par_coupon(curve, times, fractions)
        elif action == "swap":
            want = oracles.swap_rate(curve, times, fractions)
        elif action == "fra":
            j, k = (int(a) for a in argv[3:5])
            want = oracles.forward_rate(curve, times[j], times[k], sum(fractions[j:k]))
        else:
            want = oracles.bond_price(curve, times, fractions, float(argv[3]))
        close(doc["value"], want, 1e-12, f"curve {action}")


class CliCalls:
    """The golden CLI invocations, one fresh process per call.

    A round runs every case in a seeded order, then all of them again in
    the same order, so that each case's rerun is compared byte for byte
    with its first output in the run."""

    def __init__(self, seed: int, root: Path, child_trace=None):
        self.fixtures = root / "tests" / "fixtures"
        self.child_trace = child_trace    # callable(argv) -> command, or None
        self.oracle = CliOracle(self.fixtures)
        self.first_output: dict[str, str] = {}
        order = np.random.default_rng(seed).permutation(sorted(CLI_CASES))
        self.ops = [self._op(str(name)) for name in order] * 2

    def command(self, argv):
        if self.child_trace is not None:
            return self.child_trace(argv)
        return [sys.executable, "-c", CLI_ENTRY, *argv]

    def _op(self, name):
        code, argv = CLI_CASES[name]

        def run():
            proc = subprocess.run(self.command(argv), cwd=self.fixtures,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def check(result):
            got_code, out, err = result
            require(got_code == code, f"{name}: exit code {got_code}, want {code}: {err}")
            first = self.first_output.setdefault(name, out)
            require(out == first, f"{name}: rerun output is not byte-identical")
            self.oracle(name, json.loads(out))

        return Op(name, run, check)


# ---------------------------------------------------------------------------
# one_period_detect


N_OUTCOMES = 4000
N_STRIKES = 49              # a bond, a stock, 49 calls and 49 puts
HEDGE_CALLS = 4             # calls in the hedging sub-market
PLANT_SHIFT = 0.05          # a planted quote moves by this share of spot
HEDGE_STRIKES = range(12, 37)   # grid strikes from 0.8 to 1.2 times spot


@dataclass
class Chain:
    """An option-chain market and what its construction says about it."""

    market: object          # deflator.OnePeriodMarket
    submarket: object       # bond, stock and HEDGE_CALLS calls
    planted: np.ndarray | None   # a known arbitrage position, or None
    target: np.ndarray      # an off-grid call, priced and hedged
    bracket: tuple[int, int, float]   # its neighbouring strikes and weight


def option_chain(base, choice, planted: bool, scale: float = 1.0) -> Chain:
    """A bond paying 1, a stock and calls and puts on a strike grid, over
    N_OUTCOMES terminal prices, quoted by a positive random deflator:
    `base` draws these.  A planted chain then moves one call or put quote
    by PLANT_SHIFT of spot, away from put-call parity; the parity position
    (K bonds, -1 stock, +1 call, -1 put), or its negative, then costs
    minus the shift and pays zero everywhere.  `choice` draws the quote
    and its move, the calls of the hedging sub-market and the strike of
    the off-grid call, all from the middle of the grid (HEDGE_STRIKES).
    Both prices and payoffs are multiplied by `scale`."""
    s0 = 100.0 * math.exp(base.uniform(-0.2, 0.2))
    R = 1.0 + base.uniform(0.0, 0.06)
    vol = base.uniform(0.15, 0.35)
    S = np.sort(s0 * R * np.exp(vol * base.standard_normal(N_OUTCOMES) - 0.5 * vol ** 2))
    K = s0 * np.linspace(0.6, 1.4, N_STRIKES)
    X = np.column_stack([np.ones(N_OUTCOMES), S,
                         np.maximum(S[:, None] - K, 0.0),
                         np.maximum(K - S[:, None], 0.0)])
    weights = base.gamma(2.0, size=N_OUTCOMES)
    x = X.T @ (weights / (weights.sum() * R))
    gamma = None
    if planted:
        k = int(choice.integers(N_STRIKES))
        call, put = 2 + k, 2 + N_STRIKES + k
        gamma = np.zeros(X.shape[1])
        gamma[[0, 1, call, put]] = K[k], -1.0, 1.0, -1.0
        move = int(choice.integers(4))
        shift = PLANT_SHIFT * s0
        if move == 0:
            x[call] -= shift
        elif move == 1:
            x[put] += shift
        else:
            x[call if move == 2 else put] += shift if move == 2 else -shift
            gamma = -gamma
    calls = np.sort(choice.choice(HEDGE_STRIKES, HEDGE_CALLS, replace=False))
    cols = np.concatenate([[0, 1], 2 + calls])
    lo = int(choice.integers(HEDGE_STRIKES.start, HEDGE_STRIKES.stop - 1))
    lam = choice.uniform(0.2, 0.8)
    strike = lam * K[lo] + (1.0 - lam) * K[lo + 1]
    market = D.OnePeriodMarket(prices=scale * x, payoffs=scale * X)
    sub = D.OnePeriodMarket(prices=scale * x[cols], payoffs=scale * X[:, cols])
    return Chain(market, sub, gamma, scale * np.maximum(S - strike, 0.0),
                 (lo, lo + 1, lam))


def classify(chain: Chain):
    """The README's workflow: find_arbitrage first; otherwise the
    deflator from the projection, a price and a hedge under it."""
    market = chain.market
    certificate = D.find_arbitrage(market)
    if certificate is not None:
        return certificate, D.verify_position(market, certificate.gamma)
    deflator = D.deflator_from_projection(D.project_to_cone(market))
    if deflator is None:
        return None, None
    price = D.price_payoff(market, deflator, chain.target)
    hedge = D.least_squares_hedge(chain.submarket, deflator, chain.target)
    return deflator, (price, hedge)


class OnePeriodDetect:
    """Rounds of 32 option-chain markets of 4000 outcomes x 100 instruments.

    28 are at scale 1: 16 priced by a positive deflator and 12 with a
    planted arbitrage.  Their outcomes and deflators are the same in
    every run (CHAIN_SEED); the seed draws the planted quotes, the
    hedging sub-markets and targets, and the order.  Fixing the markets
    keeps each operation's verdict the same whatever the seed: cone.nnls
    stops early on about one fair chain in a hundred at scale 1, and a
    failure that came and went with the seed could not be counted.
    4 more chains are fixed whole: a fair and a planted chain, each
    scaled by 1e-6 and by 1e6, at every eighth slot."""

    N_FAIR, N_PLANTED = 16, 12
    CHAIN_SEED = 20191017
    # (planted, scale, fault it trips today)
    RESCALED = ((False, 1e-6, NNLS_FLOOR), (True, 1e6, VERIFY_ABS_TOL),
                (True, 1e-6, NNLS_FLOOR), (False, 1e6, None))

    def __init__(self, seed: int, root: Path):
        choice = np.random.default_rng(seed)
        chains = [(option_chain(np.random.default_rng([self.CHAIN_SEED, i]), choice,
                                i >= self.N_FAIR), 1.0, None)
                  for i in range(self.N_FAIR + self.N_PLANTED)]
        chains = [chains[i] for i in choice.permutation(len(chains))]
        for slot, (planted, scale, fault) in enumerate(self.RESCALED):
            fixed = np.random.default_rng([self.CHAIN_SEED, 100 + int(planted)])
            chains.insert(8 * slot + 7, (option_chain(fixed, fixed, planted, scale),
                                         scale, fault))
        self.ops = [self._op(*c) for c in chains]

    def _op(self, chain: Chain, scale, fault):
        kind = ("planted" if chain.planted is not None else "fair") + f"@{scale:g}"
        facts = {}

        def expected():
            # the verdict the construction implies, confirmed by scipy's distance
            if not facts:
                x, X = chain.market.prices, chain.market.payoffs
                facts["threshold"] = TOL * (1.0 + np.linalg.norm(x))
                facts["distance"] = oracles.cone_distance(x, X)
                if chain.planted is not None:
                    require(oracles.position_is_arbitrage(x, X, chain.planted),
                            "planted position is not an arbitrage")
                    require(facts["distance"] > 100.0 * facts["threshold"],
                            "planted chain is too close to the cone")
                else:
                    require(facts["distance"] < 0.01 * facts["threshold"],
                            "fair chain is not inside the cone")
            return facts

        def check(result):
            want = expected()
            x, X = chain.market.prices, chain.market.payoffs
            witness, extra = result
            if chain.planted is not None:
                require(isinstance(witness, D.ArbitrageCertificate),
                        f"{kind}: no arbitrage found")
                gamma = witness.gamma
                close(np.linalg.norm(gamma), 1.0, 1e-12, "certificate norm")
                require(gamma @ x < 0.0, f"{kind}: certificate costs {gamma @ x}")
                close(witness.setup_gain, -(gamma @ x), 1e-9, "setup gain")
                require((X @ gamma).min() >= -TOL * np.abs(X).max(),
                        f"{kind}: certificate pays {(X @ gamma).min()}")
                close(witness.setup_gain, want["distance"], 1e-6, "setup gain vs distance")
                close(extra.cost, gamma @ x, 1e-12, "verify_position cost")
                close(extra.min_payoff, (X @ gamma).min(), 1e-9, "verify_position min payoff",
                      abs_tol=1e-12 * np.abs(X).max())
                # its absolute tolerance also rejects valid certificates of
                # some seeded markets at scale 1, so its verdict is checked
                # on the fixed markets only, where it fails every time
                require(extra.is_arbitrage or fault is None and scale == 1.0,
                        f"{kind}: verify_position rejects cost {extra.cost}, "
                        f"min payoff {extra.min_payoff}")
                return
            require(isinstance(witness, D.Deflator), f"{kind}: no deflator found")
            w = witness.atom_weights
            require(w.min() >= 0.0, "negative deflator weight")
            residual = np.linalg.norm(X.T @ w - x)
            require(residual <= want["threshold"], f"{kind}: repricing residual {residual}")
            price, hedge = extra
            close(price, w @ chain.target, 1e-12, "payoff price")
            lo, hi, lam = chain.bracket
            calls = x[2:2 + N_STRIKES]
            slack = 10.0 * want["threshold"]
            require(calls[hi] - slack <= price <= lam * calls[lo] + (1 - lam) * calls[hi] + slack,
                    f"{kind}: off-grid call price {price} breaks the convexity bounds")
            Xs, v = chain.submarket.payoffs, chain.target
            root_w = np.sqrt(w)
            gamma = np.linalg.lstsq(root_w[:, None] * Xs, root_w * v, rcond=None)[0]
            require(np.abs(hedge.gamma - gamma).max() <= 1e-6 * np.abs(gamma).max(),
                    f"{kind}: hedge differs from the weighted least squares")
            lse = float(w @ (v - Xs @ gamma) ** 2)
            close(hedge.least_squared_error, lse, 1e-6, "least squared error",
                  abs_tol=1e-12 * float(w @ v ** 2))
            close(hedge.hedge_cost, hedge.gamma @ chain.submarket.prices, 1e-12, "hedge cost")

        return Op(kind, lambda: classify(chain), check, fault)


# ---------------------------------------------------------------------------
# tree_search


BINOMIAL_PERIODS = 14       # 2^14 leaves
TRINOMIAL_PERIODS = 9       # 3^9 leaves


def _binomial(rng):
    R = 1.0 + rng.uniform(0.0, 0.05)
    sigma = rng.uniform(0.1, 0.3)
    s = rng.uniform(80.0, 120.0)
    mu = math.log(R / math.cosh(sigma)) + rng.uniform(-0.3, 0.3) * sigma
    panel = D.binomial_stock_panel(BINOMIAL_PERIODS, R=R, s=s, mu=mu, sigma=sigma)
    return panel, dict(R=R, s=s, up=math.exp(mu + sigma), down=math.exp(mu - sigma))


def _trinomial(rng):
    """Bond and stock on a trinomial tree: the stock moves by d, m or u
    with d < R < u, so each node has three children and two instruments.
    Block b at time j holds the atoms whose first j base-3 digits are b."""
    n = TRINOMIAL_PERIODS
    R = 1.0 + rng.uniform(0.0, 0.05)
    sigma = rng.uniform(0.1, 0.3)
    s = rng.uniform(80.0, 120.0)
    moves = R * np.exp(np.array([-sigma, rng.uniform(-0.5, 0.5) * sigma, sigma]))
    atoms = np.arange(3 ** n)
    filtration = D.Filtration([D.Algebra(atoms // 3 ** (n - j)) for j in range(n + 1)])
    prices, stock = [], np.array([s])
    for j in range(n + 1):
        bond = np.full(3 ** j, R ** j)
        prices.append(D.SimpleFunction(filtration[j], np.column_stack([bond, stock])))
        stock = (stock[:, None] * moves).ravel()
    panel = D.MarketPanel(times=np.arange(n + 1.0), filtration=filtration, prices=prices)
    return panel, dict(R=R, s=s)


def _plant_last_node(panel, info):
    """The same tree with the stock at the last node of the last
    non-terminal level quoted 25% above its up child's discounted price."""
    n = BINOMIAL_PERIODS
    prices = [D.SimpleFunction(p.algebra, p.values.copy()) for p in panel.prices]
    last = 2 ** (n - 1) - 1
    prices[n - 1].values[last, 1] = 1.25 * prices[n].values[2 * last + 1, 1] / info["R"]
    return D.MarketPanel(times=panel.times, filtration=panel.filtration, prices=prices)


def tree_op(panel, payoff):
    """find_tree_deflator, then check_deflator and the time-0 price of
    the terminal payoff by restrict."""
    result = D.find_tree_deflator(panel)
    if isinstance(result, D.NodeArbitrage):
        return result, None, None
    checked = D.check_deflator(panel, result)
    terminal = D.SimpleFunction(panel.filtration[-1], payoff)
    measure = D.restrict(D.product(terminal, result[len(result) - 1]),
                         panel.filtration[0])
    return result, checked, measure.weights / result[0].weights


class TreeSearch:
    """Rounds of three panels of similar size: the complete 2^14-leaf
    binomial panel, an incomplete 3^9-leaf trinomial panel, and the
    binomial panel with an arbitrage planted at the last node searched."""

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        binomial, b_info = _binomial(rng)
        trinomial, t_info = _trinomial(rng)
        planted, p_info = _binomial(rng)
        planted = _plant_last_node(planted, p_info)
        self.ops = [self._deflator_op("binomial", binomial, b_info, 2, rng),
                    self._deflator_op("trinomial", trinomial, t_info, 3, rng),
                    self._planted_op(planted, p_info)]

    @staticmethod
    def _levels(panel):
        return [p.values for p in panel.prices]

    def _deflator_op(self, kind, panel, info, branching, rng):
        strike = info["s"] * rng.uniform(0.9, 1.1)
        stock = panel.prices[-1].values[:, 1]
        payoff = np.maximum(stock - strike, 0.0)
        n = panel.n_periods

        def check(result):
            deflators, checked, price = result
            require(isinstance(deflators, D.DeflatorSequence), f"{kind}: arbitrage found")
            weights = [m.weights for m in deflators.measures]
            require(all(w.min() >= 0.0 for w in weights), "negative deflator weight")
            require(weights[0][0] == 1.0, "time-0 weight is not one")
            gap = oracles.tree_repricing_gap(self._levels(panel), weights, branching)
            require(gap <= TOL, f"{kind}: node repricing gap {gap}")
            require(checked.ok, f"{kind}: check_deflator fails by {checked.max_violation}")
            if kind == "binomial":
                for j in (1, n // 2, n):
                    want = oracles.crr_weights(info["R"], info["up"], info["down"], j)
                    require(np.allclose(weights[j], want, rtol=1e-9, atol=0.0),
                            f"deflator at time {j} differs from the CRR weights")
                close(price[0], oracles.crr_call(info["R"], info["s"], info["up"],
                                                 info["down"], n, strike), 1e-9, "CRR call")
            else:
                close(price[0], weights[-1] @ payoff, 1e-12, "terminal call price")
                lower = max(0.0, info["s"] - strike / info["R"] ** n)
                require(lower - 1e-9 <= price[0] <= info["s"] + 1e-9,
                        f"{kind}: call price {price[0]} outside its no-arbitrage bounds")

        return Op(kind, lambda: tree_op(panel, payoff), check)

    def _planted_op(self, panel, info):
        n = BINOMIAL_PERIODS
        node = 2 ** (n - 1) - 1
        x = panel.prices[n - 1].values[node]
        rows = panel.prices[n].values[[2 * node, 2 * node + 1]]
        payoff = np.zeros(2 ** n)

        def check(result):
            found = result[0]
            require(isinstance(found, D.NodeArbitrage), "planted arbitrage not found")
            require((found.time, found.block) == (n - 1, node),
                    f"arbitrage reported at {(found.time, found.block)}")
            gamma = found.certificate.gamma
            close(np.linalg.norm(gamma), 1.0, 1e-12, "certificate norm")
            require(gamma @ x < 0.0, "node certificate does not cost less than zero")
            require((rows @ gamma).min() >= -TOL * np.abs(rows).max(),
                    "node certificate loses in a child")
            close(found.certificate.setup_gain, oracles.cone_distance(x, rows), 1e-6,
                  "node setup gain vs distance")
            trades = [t.values for t in found.strategy.trades]
            require(np.array_equal(trades[n - 1][node], gamma)
                    and np.array_equal(trades[n][[2 * node, 2 * node + 1]], -np.stack([gamma] * 2)),
                    "strategy does not trade the certificate at the node")
            traded = sum(int(np.count_nonzero(np.any(t != 0.0, axis=1))) for t in trades)
            require(traded == 3, "strategy trades away from the node")

        return Op("planted", lambda: tree_op(panel, payoff), check)


# ---------------------------------------------------------------------------
# levy_inversion


GRID_POINTS = 200
# a law with a small Gaussian part and three jump nodes: its
# characteristic function decays slowly
JUMP_LAW = dict(mean=0.0, var=0.05, jump_nodes=[-0.3, 0.2, 0.45],
                jump_weights=[0.03, 0.01, 0.02])
SIGMA, MATURITY = 0.25, 1.0
# strike / forward ranges of the puts: two below and two above the money
PUT_MONEYNESS = ((0.85, 0.92), (0.94, 0.99), (1.01, 1.06), (1.08, 1.15))
CDF_TOL = 1e-8              # absolute, on the distribution function
PUT_TOL = 1e-8              # relative to the strike


class LevyInversion:
    """Rounds of ten operations: for the standard normal law and for the
    jump law, one 200-point cdf_from_charfn grid and levy_put at four
    strikes, two below and two above the forward.  With eight short puts
    to two long grids, the median operation is a put on the jump law."""

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        jl = JUMP_LAW
        normal = dict(mean=0.0, var=1.0, jump_nodes=[], jump_weights=[])
        laws = [("normal", D.KolmogorovLaw.standard_normal(), normal),
                ("jump", D.KolmogorovLaw(mean=jl["mean"],
                                         nodes=np.array([0.0] + jl["jump_nodes"]),
                                         weights=np.array([jl["var"]] + jl["jump_weights"])),
                 jl)]
        self.ops = []
        for name, law, params in laws:
            sd = math.sqrt(law.variance)
            lo, hi = -3.0 + rng.uniform(-0.25, 0.25), 3.0 + rng.uniform(-0.25, 0.25)
            grid = sd * np.linspace(lo, hi, GRID_POINTS)
            self.ops.append(self._cdf_op(name, law, params, grid))
            model = D.LevyModelParams(r=rng.uniform(0.01, 0.05), s=rng.uniform(90.0, 110.0),
                                      sigma=SIGMA, t=MATURITY, base=law)
            forward = model.s * math.exp(model.r * model.t)
            for lo, hi in PUT_MONEYNESS:
                self.ops.append(self._put_op(name, model, params, forward * rng.uniform(lo, hi)))

    @staticmethod
    def _cdf_op(name, law, params, grid):
        oracle = {}

        def check(cdf):
            require(cdf.shape == grid.shape, "one value per grid point")
            require((np.diff(cdf) >= 0).all() and cdf.min() >= 0 and cdf.max() <= 1,
                    "cdf is not a nondecreasing map into [0, 1]")
            if not oracle:
                oracle["cdf"] = oracles.PoissonMixture(**params).cdf(grid)
            err = np.abs(cdf - oracle["cdf"]).max()
            require(err <= CDF_TOL, f"{name} cdf is {err:.2e} from the mixture sum")

        return Op(f"cdf-{name}", lambda: D.cdf_from_charfn(law.charfn, grid), check)

    @staticmethod
    def _put_op(name, model, params, k):
        oracle = {}

        def check(value):
            if not oracle:
                oracle["put"] = oracles.levy_forward_put(
                    model.r, model.s, model.sigma, model.t, **params, k=k)
            want = oracle["put"]
            require(abs(value - want) <= PUT_TOL * k,
                    f"{name} put at {k:.4f}: {value!r} against {want!r}")

        return Op(f"put-{name}", lambda: D.levy_put(model, k), check)


WORKLOADS = {"cli_calls": CliCalls, "one_period_detect": OnePeriodDetect,
             "tree_search": TreeSearch, "levy_inversion": LevyInversion}
