"""Command line front end.

    deflator detect <spec> [--tol X]
    deflator price  <spec> --payoff "put 100" [--tol X]
    deflator hedge  <spec> --payoff "call 100" [--tol X]
    deflator curve  <curve> --schedule t0,t1,...[;d1,...] {par|swap|fra|price} [args]

Results are JSON documents on standard output (full-precision numbers,
deterministic serialization); diagnostics go to standard error.  Exit
codes: 0 success / deflator found, 2 input error, 3 arbitrage,
4 singular hedge problem.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._quadrature import gauss_legendre
from .cone import deflator_from_projection, project_to_cone
from .exceptions import (ArbitrageInInput, DeflatorError, SingularGram,
                         SpecFileError)
from .filtration import SimpleFunction, product, restrict
from .market_files import check_tolerance, display, load_market_spec, render_document
from .models import (_normal_piecewise_expectation, bachelier_hedge,
                     bachelier_put, cdf_from_charfn, gbm_put, levy_put)
from .multi_period import NodeArbitrage, find_tree_deflator
from .one_period import least_squares_hedge, price_payoff
from .rates import Schedule, bond_price, forward_rate, par_coupon, swap_par

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ARBITRAGE = 3
EXIT_SINGULAR = 4


# ---------------------------------------------------------------------------
# payoff arguments


class Payoff:
    """A --payoff argument: builtin 'call K' / 'put K' / 'const c', or a
    JSON file holding one value per terminal atom (or block)."""

    def __init__(self, kind, strike=None, vector=None):
        self.kind = kind
        self.strike = strike
        self.vector = vector

    def on_underlying(self, underlying: np.ndarray) -> np.ndarray:
        if self.kind == "call":
            return np.maximum(underlying - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - underlying, 0.0)
        if self.kind == "const":
            return np.full_like(underlying, self.strike)
        if self.vector.shape != underlying.shape:
            raise SpecFileError(
                f"payoff file has {self.vector.size} values, market has "
                f"{underlying.size} terminal outcomes")
        return self.vector


def _parse_payoff(text) -> Payoff:
    if text is None:
        raise SpecFileError("this command needs --payoff")
    if os.path.exists(text):
        try:
            with open(text) as handle:
                raw = json.load(handle)
            vector = np.asarray(raw, dtype=float)
        except (OSError, ValueError) as exc:
            raise SpecFileError(f"bad payoff file {text}: {exc}") from exc
        if vector.ndim != 1 or not np.isfinite(vector).all():
            raise SpecFileError("payoff file must hold a flat list of numbers")
        return Payoff("vector", vector=vector)
    parts = text.split()
    if len(parts) == 2 and parts[0] in ("call", "put", "const"):
        try:
            return Payoff(parts[0], strike=float(parts[1]))
        except ValueError:
            pass
    raise SpecFileError(f"cannot parse payoff {text!r}: expected "
                        "'call K', 'put K', 'const c', or a JSON file path")


def _tol(args, spec) -> float:
    return spec.tolerance if args.tol is None else check_tolerance(args.tol, "--tol")


# Call minus put for each model kind, in the units its pricer quotes.
_PARITY = {"bachelier": lambda p, k: p.s - k / p.R,
           "gbm": lambda p, k: p.forward - k,
           "levy": lambda p, k: p.s * math.exp(p.r * p.t) - k}


def _call_put(spec, payoff, command):
    """Strike of a model spec's --payoff, and what its call adds to the
    put the model quotes: (k, delta shift, value shift), zero for a put."""
    if payoff.kind not in ("call", "put"):
        raise SpecFileError(f"model {command} needs --payoff 'call K' or 'put K'")
    k = payoff.strike
    if payoff.kind == "put":
        return k, 0.0, 0.0
    return k, 1.0, _PARITY[spec.kind](spec.payload, k)


# ---------------------------------------------------------------------------
# detect


def _one_period_deflator(market, tol):
    """Deflator weights, or raise ArbitrageInInput."""
    deflator = deflator_from_projection(project_to_cone(market, tol))
    if deflator is None:
        raise ArbitrageInInput("the market admits arbitrage; nothing prices it")
    return deflator


def cmd_detect(args):
    spec = load_market_spec(args.spec)
    tol = _tol(args, spec)
    if spec.kind == "one_period":
        market = spec.payload
        projection = project_to_cone(market, tol)
        certificate = projection.certificate
        doc = {"command": "detect", "kind": spec.kind,
               "diagnostics": {"tolerance": tol,
                               "residual_norm": projection.residual_norm}}
        if certificate is None:
            doc["verdict"] = "deflator"
            doc["weights"] = {"atoms": list(market.labels),
                              "weights": projection.weights}
            return doc, EXIT_OK
        doc["verdict"] = "arbitrage"
        doc["certificate"] = {
            "instruments": list(spec.names),
            "gamma": certificate.gamma,
            "setup_gain": certificate.setup_gain,
            "min_payoff": certificate.min_payoff,
            "display": {"setup_gain": display(certificate.setup_gain)}}
        return doc, EXIT_ARBITRAGE
    if spec.kind == "panel":
        result = find_tree_deflator(spec.payload, tol)
        doc = {"command": "detect", "kind": spec.kind,
               "diagnostics": {"tolerance": tol}}
        if isinstance(result, NodeArbitrage):
            doc["verdict"] = "arbitrage"
            doc["certificate"] = {
                "time": result.time,
                "block": result.block,
                "instruments": list(spec.names),
                "gamma": result.certificate.gamma,
                "setup_gain": result.certificate.setup_gain,
                "min_payoff": result.certificate.min_payoff}
            doc["strategy"] = [g.values for g in result.strategy.trades]
            return doc, EXIT_ARBITRAGE
        doc["verdict"] = "deflator"
        doc["weights"] = [measure.weights for measure in result.measures]
        return doc, EXIT_OK
    raise SpecFileError(f"detect expects a one_period or panel spec, "
                        f"got {spec.kind!r}")


# ---------------------------------------------------------------------------
# price


def _panel_terminal_price(panel, deflators, values):
    """Time-0 price per block of the terminal payoff `values`."""
    terminal = SimpleFunction(panel.filtration[-1], values)
    coarse = panel.filtration[0]
    num = restrict(product(terminal, deflators[len(deflators) - 1]),
                   coarse).weights
    return num / deflators[0].weights


def _lognormal_put_quadrature(params, k):
    """E(k - S_t)^+ by normal quadrature in the Brownian coordinate."""
    v = params.sigma * math.sqrt(params.t)
    f = params.forward
    kink = (math.log(k / f) + 0.5 * v ** 2) / v
    payoff = lambda z: np.maximum(k - f * np.exp(v * z - 0.5 * v ** 2), 0.0)
    return _normal_piecewise_expectation(payoff, 0.0, 1.0, kinks=(kink,))


def _levy_put_quadrature(params, k, smoothing):
    """E(k - S_t)^+ = integral of P(S_t <= y) dy over (0, k), using only
    the plain (untilted) law: an independent check of the tilt path."""
    z, w = gauss_legendre(33)
    y = 0.5 * k * (z + 1.0)
    thresholds = (np.log(y / params.s) - params.drift * params.t) / params.sigma
    cdf = cdf_from_charfn(params.base.scale_time(params.t).charfn,
                          thresholds, smoothing)
    return 0.5 * k * float(w @ cdf)


def cmd_price(args):
    spec = load_market_spec(args.spec)
    tol = _tol(args, spec)
    payoff = _parse_payoff(args.payoff)
    doc = {"command": "price", "kind": spec.kind,
           "diagnostics": {"tolerance": tol}}

    if spec.kind == "one_period":
        market = spec.payload
        deflator = _one_period_deflator(market, tol)
        values = payoff.on_underlying(market.payoffs[:, -1])
        price = price_payoff(market, deflator, values)
        doc["prices"] = {"value": price, "display": display(price)}
        return doc, EXIT_OK

    if spec.kind == "panel":
        panel = spec.payload
        result = find_tree_deflator(panel, tol)
        if isinstance(result, NodeArbitrage):
            raise ArbitrageInInput(
                f"panel has an arbitrage node at time {result.time}, "
                f"block {result.block}; nothing prices it")
        underlying = panel.settle(panel.n_periods).values[:, -1]
        values = payoff.on_underlying(underlying)
        prices = _panel_terminal_price(panel, result, values)
        doc["prices"] = {"per_block": prices,
                         "display": [display(p) for p in prices]}
        return doc, EXIT_OK

    if spec.kind not in _PARITY:
        raise SpecFileError(f"price does not support kind {spec.kind!r}")
    params = spec.payload
    k, call_delta, call_value = _call_put(spec, payoff, "pricing")
    if spec.kind == "bachelier":
        quote = bachelier_put(params, k)
        value = shown = quote.price + call_value
        f = params.forward
        quadrature = _normal_piecewise_expectation(
            payoff.on_underlying, f, f * params.sigma, kinks=(k,)) / params.R
        prices = {"value": value, "delta": quote.delta + call_delta}
    elif spec.kind == "gbm":
        quote = gbm_put(params, k)
        value = quote.forward_value + call_value
        quadrature = _lognormal_put_quadrature(params, k) + call_value
        shown = math.exp(-params.r * params.t) * value
        prices = {"forward_value": value, "pv": shown,
                  "delta": quote.delta + call_delta, "gamma": quote.gamma}
    else:
        value = shown = levy_put(params, k, smoothing=spec.smoothing) + call_value
        quadrature = _levy_put_quadrature(params, k, spec.smoothing) + call_value
        prices = {"forward_value": value}
    doc["prices"] = dict(prices, quadrature=quadrature,
                         residual=abs(value - quadrature), display=display(shown))
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# hedge


def _weighted_corr(weights, a, b):
    """Correlation of two payoff vectors under normalized weights,
    clipped to [-1, 1]."""
    mass = weights.sum()
    if mass <= 0:
        return 0.0
    p = weights / mass
    am, bm = p @ a, p @ b
    va = p @ (a - am) ** 2
    vb = p @ (b - bm) ** 2
    if va <= 0 or vb <= 0:
        return 1.0 if va == vb else 0.0
    return max(-1.0, min(1.0, float((p @ ((a - am) * (b - bm))) / math.sqrt(va * vb))))


def cmd_hedge(args):
    spec = load_market_spec(args.spec)
    tol = _tol(args, spec)
    payoff = _parse_payoff(args.payoff)
    doc = {"command": "hedge", "kind": spec.kind,
           "diagnostics": {"tolerance": tol}}

    if spec.kind == "one_period":
        market = spec.payload
        deflator = _one_period_deflator(market, tol)
        values = payoff.on_underlying(market.payoffs[:, -1])
        try:
            result = least_squares_hedge(market, deflator, values)
        except SingularGram as exc:
            if exc.index is not None and spec.names:
                raise SingularGram(
                    f"{exc} (instrument {spec.names[exc.index]!r})",
                    index=exc.index) from exc
            raise
        corr = _weighted_corr(deflator.atom_weights,
                              market.payoffs @ result.gamma, values)
        doc["hedge"] = {"instruments": list(spec.names),
                        "gamma": result.gamma,
                        "hedge_cost": result.hedge_cost,
                        "least_squared_error": result.least_squared_error,
                        "corr": corr,
                        "display": {"hedge_cost": display(result.hedge_cost)}}
        return doc, EXIT_OK

    if spec.kind == "bachelier":
        params = spec.payload
        k, _, _ = _call_put(spec, payoff, "hedging")
        mean_v, shares, corr, lse = bachelier_hedge(
            params, payoff.on_underlying, kinks=(k,))
        bond = (mean_v - shares * params.forward) / params.R
        doc["hedge"] = {"gamma": [bond, shares],
                        "hedge_cost": mean_v / params.R,
                        "corr": corr,
                        "least_squared_error": lse,
                        "display": {"corr": display(corr)}}
        return doc, EXIT_OK

    if spec.kind == "gbm":
        k, call_delta, _ = _call_put(spec, payoff, "hedging")
        quote = gbm_put(spec.payload, k)
        delta = quote.delta + call_delta
        doc["hedge"] = {"delta": delta, "gamma": quote.gamma, "pv": quote.pv,
                        "display": {"delta": display(delta)}}
        return doc, EXIT_OK

    raise SpecFileError(f"hedge does not support kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# curve


def _parse_schedule(text) -> Schedule:
    if text is None:
        raise SpecFileError("curve commands need --schedule t0,t1,...[;d1,...]")
    try:
        if ";" in text:
            times_part, fractions_part = text.split(";", 1)
            fractions = tuple(float(x) for x in fractions_part.split(","))
        else:
            times_part, fractions = text, None
        times = tuple(float(x) for x in times_part.split(","))
        return Schedule(times, fractions)
    except Exception as exc:
        raise SpecFileError(f"bad schedule {text!r}: {exc}") from exc


def cmd_curve(args):
    spec = load_market_spec(args.curve)
    if spec.kind != "curve":
        raise SpecFileError(f"curve expects a curve file, got {spec.kind!r}")
    curve = spec.payload
    schedule = _parse_schedule(args.schedule)
    doc = {"command": "curve", "action": args.action,
           "schedule": {"calc_times": list(schedule.calc_times),
                        "fractions": list(schedule.fractions)}}
    if args.action == "par":
        value = par_coupon(curve, schedule)
    elif args.action == "swap":
        value = swap_par(curve, schedule)
    elif args.action == "fra":
        j, k = (int(a) for a in args.args) if args.args else (0, 1)
        value = forward_rate(curve, 0, j, k, schedule)
        doc["interval"] = [j, k]
    else:
        if len(args.args) != 1:
            raise SpecFileError("curve price needs exactly one coupon argument")
        value = bond_price(curve, schedule, args.args[0])
    doc["value"] = value
    doc["display"] = display(value)
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflator",
        description="Arbitrage detection, pricing, and hedging from "
                    "market specification files.")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="classify a market: deflator "
                                           "(exit 0) or arbitrage (exit 3)")
    detect.add_argument("spec")
    detect.add_argument("--tol", type=float, default=None)

    for name, helptext in (("price", "price a payoff under the deflator"),
                           ("hedge", "least squares hedge of a payoff")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("spec")
        cmd.add_argument("--payoff", default=None,
                         help="'call K', 'put K', 'const c', or a JSON file")
        cmd.add_argument("--tol", type=float, default=None)

    curve = sub.add_parser("curve", help="discount curve analytics")
    curve.add_argument("curve")
    curve.add_argument("action", choices=("par", "swap", "fra", "price"))
    curve.add_argument("args", nargs="*", type=float)
    curve.add_argument("--schedule", default=None,
                       help="t0,t1,...[;d1,d2,...]")
    return parser


_COMMANDS = {"detect": cmd_detect, "price": cmd_price, "hedge": cmd_hedge,
             "curve": cmd_curve}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, code = _COMMANDS[args.command](args)
    except ArbitrageInInput as exc:
        print(f"deflator: {exc}", file=sys.stderr)
        return EXIT_ARBITRAGE
    except SingularGram as exc:
        print(f"deflator: singular hedge problem: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (DeflatorError, ValueError, OSError) as exc:
        print(f"deflator: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(render_document(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
