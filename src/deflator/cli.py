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
import math
import os
import sys

import numpy as np

from ._quadrature import gauss_legendre
from .cone import check_tolerance, deflator_from_projection, project_to_cone
from .exceptions import ArbitrageInInput, DeflatorError, SingularGram, SpecFileError
from .filtration import SimpleFunction
from .market_files import display, load_market_spec, load_payoff_file, render_document
from .models import (_normal_piecewise_expectation, bachelier_hedge,
                     bachelier_put, cdf_from_charfn, gbm_put, levy_put)
from .multi_period import NodeArbitrage, _price_at, find_tree_deflator
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
        return self.vector


def _parse_payoff(text) -> Payoff:
    if text is None:
        raise SpecFileError("this command needs --payoff")
    if os.path.exists(text):
        return Payoff("vector", vector=load_payoff_file(text))
    parts = text.split()
    if len(parts) == 2 and parts[0] in ("call", "put", "const"):
        try:
            number = float(parts[1])
        except ValueError:
            pass
        else:
            if not math.isfinite(number):
                raise SpecFileError(f"payoff {text!r}: the number must be finite")
            return Payoff(parts[0], strike=number)
    raise SpecFileError(f"cannot parse payoff {text!r}: expected "
                        "'call K', 'put K', 'const c', or a JSON file path")


def _model_prices(spec, payoff, command):
    """A model spec's --payoff 'call K' or 'put K': (value, prices), the
    section price prints.  It holds the model's put, turned into the
    option by put-call parity (call - put is s - k/R for bachelier,
    forward - k otherwise), under the model's names; the quadrature that
    checks value; and the display number.  A put struck at k <= 0 is
    worth 0, by its quadrature as by its pricer."""
    if payoff.kind not in ("call", "put"):
        raise SpecFileError(f"model {command} needs --payoff 'call K' or 'put K'")
    k, params, call = payoff.strike, spec.payload, payoff.kind == "call"
    delta_shift = 1.0 if call else 0.0
    if spec.kind == "bachelier":
        put = bachelier_put(params, k)
        value = put.price + (params.s - k / params.R if call else 0.0)
        f = params.forward
        quadrature = _normal_piecewise_expectation(
            payoff.on_underlying, f, f * params.sigma, kinks=(k,)) / params.R
        return value, {"value": value, "delta": put.delta + delta_shift,
                       "quadrature": quadrature, "display": display(value)}
    shift = params.forward - k if call else 0.0
    if spec.kind == "levy":
        value = levy_put(params, k, smoothing=spec.smoothing) + shift
        check = _levy_put_quadrature(params, k, spec.smoothing) if k > 0.0 else 0.0
        return value, {"forward_value": value, "quadrature": check + shift,
                       "display": display(value)}
    put = gbm_put(params, k)
    value = put.forward_value + shift
    pv = math.exp(-params.r * params.t) * value
    check = _lognormal_put_quadrature(params, k) if k > 0.0 else 0.0
    return value, {"forward_value": value, "pv": pv, "delta": put.delta + delta_shift,
                   "gamma": put.gamma, "quadrature": check + shift, "display": display(pv)}


def _one_period_payoff(spec, payoff, tol):
    """A one-period spec's market, its deflator, and the payoff on its
    last instrument; ArbitrageInInput when no deflator prices it."""
    market = spec.payload
    deflator = deflator_from_projection(project_to_cone(market, tol))
    if deflator is None:
        raise ArbitrageInInput("the market admits arbitrage; nothing prices it")
    return market, deflator, payoff.on_underlying(market.payoffs[:, -1])


# ---------------------------------------------------------------------------
# detect


def _certificate(spec, certificate, **fields):
    """An arbitrage certificate on the spec's instruments, as detect
    prints it."""
    return {"instruments": list(spec.names), "gamma": certificate.gamma,
            "setup_gain": certificate.setup_gain,
            "min_payoff": certificate.min_payoff, **fields}


def cmd_detect(args, spec, tol):
    if spec.kind == "one_period":
        projection = project_to_cone(spec.payload, tol)
        certificate = projection.certificate
        # in place of main's diagnostics: the tolerance and the residual
        doc = {"diagnostics": {"tolerance": tol, "residual_norm": projection.residual_norm}}
        if certificate is None:
            return dict(doc, verdict="deflator",
                        weights={"atoms": list(spec.payload.labels),
                                 "weights": projection.weights}), EXIT_OK
        shown = {"setup_gain": display(certificate.setup_gain)}
        return dict(doc, verdict="arbitrage", certificate=_certificate(
            spec, certificate, display=shown)), EXIT_ARBITRAGE
    if spec.kind == "panel":
        result = find_tree_deflator(spec.payload, tol)
        if isinstance(result, NodeArbitrage):
            return {"verdict": "arbitrage",
                    "certificate": _certificate(spec, result.certificate, time=result.time,
                                                block=result.block),
                    "strategy": [g.values for g in result.strategy.trades]
                    }, EXIT_ARBITRAGE
        return {"verdict": "deflator",
                "weights": [measure.weights for measure in result.measures]}, EXIT_OK
    raise SpecFileError(f"detect expects a one_period or panel spec, got {spec.kind!r}")


# ---------------------------------------------------------------------------
# price


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
    cdf = cdf_from_charfn(params.law_t.charfn, thresholds, smoothing)
    return 0.5 * k * float(np.einsum("i,i->", w, cdf))


def cmd_price(args, spec, tol):
    payoff = _parse_payoff(args.payoff)

    if spec.kind == "one_period":
        market, deflator, values = _one_period_payoff(spec, payoff, tol)
        price = price_payoff(market, deflator, values)
        return {"prices": {"value": price, "display": display(price)}}, EXIT_OK

    if spec.kind == "panel":
        panel = spec.payload
        result = find_tree_deflator(panel, tol)
        if isinstance(result, NodeArbitrage):
            raise ArbitrageInInput(
                f"panel has an arbitrage node at time {result.time}, "
                f"block {result.block}; nothing prices it")
        underlying = panel.settle(panel.n_periods).values[:, -1]
        claim = SimpleFunction(panel.filtration[-1], payoff.on_underlying(underlying))
        prices = _price_at(0, result, [(panel.n_periods, (claim,))]).values
        return {"prices": {"per_block": prices, "display": [display(p) for p in prices]}}, EXIT_OK

    if spec.kind not in ("bachelier", "gbm", "levy"):
        raise SpecFileError(f"price does not support kind {spec.kind!r}")
    value, prices = _model_prices(spec, payoff, "pricing")
    return {"prices": dict(prices, residual=abs(value - prices["quadrature"]))}, EXIT_OK


# ---------------------------------------------------------------------------
# hedge


def _weighted_corr(weights, a, b):
    """Correlation of two payoff vectors under normalized weights,
    clipped to [-1, 1]; 0 when either has zero variance, as in
    bachelier_hedge.  A vector constant where the weights are positive
    has zero variance, though its computed one rounds away from 0."""
    p = weights / weights.sum()
    am, bm = math.fsum(p * a), math.fsum(p * b)
    va = math.fsum(p * (a - am) ** 2)
    vb = math.fsum(p * (b - bm) ** 2)
    if va <= 0 or vb <= 0 or np.ptp(a[p > 0]) == 0 or np.ptp(b[p > 0]) == 0:
        return 0.0
    return max(-1.0, min(1.0, math.fsum(p * (a - am) * (b - bm)) / math.sqrt(va * vb)))


def cmd_hedge(args, spec, tol):
    payoff = _parse_payoff(args.payoff)

    if spec.kind == "one_period":
        market, deflator, values = _one_period_payoff(spec, payoff, tol)
        try:
            result = least_squares_hedge(market, deflator, values)
        except SingularGram as exc:
            raise SingularGram(f"{exc} (instrument {spec.names[exc.index]!r})",
                               index=exc.index) from exc
        corr = _weighted_corr(deflator.atom_weights,
                              np.einsum("ij,j->i", market.payoffs, result.gamma), values)
        return {"hedge": {"instruments": list(spec.names),
                          "gamma": result.gamma,
                          "hedge_cost": result.hedge_cost,
                          "least_squared_error": result.least_squared_error,
                          "corr": corr,
                          "display": {"hedge_cost": display(result.hedge_cost)}}
                }, EXIT_OK

    if spec.kind not in ("bachelier", "gbm"):
        raise SpecFileError(f"hedge does not support kind {spec.kind!r}")
    quote = _model_prices(spec, payoff, "hedging")[1]
    if spec.kind == "gbm":
        return {"hedge": {"delta": quote["delta"], "gamma": quote["gamma"],
                          "pv": quote["pv"],
                          "display": {"delta": display(quote["delta"])}}}, EXIT_OK
    params = spec.payload
    mean_v, shares, corr, lse = bachelier_hedge(
        params, payoff.on_underlying, kinks=(payoff.strike,))
    bond = (mean_v - shares * params.forward) / params.R
    return {"hedge": {"gamma": [bond, shares],
                      "hedge_cost": mean_v / params.R,
                      "corr": corr,
                      "least_squared_error": lse,
                      "display": {"corr": display(corr)}}}, EXIT_OK


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


def cmd_curve(args, spec, tol):
    if spec.kind != "curve":
        raise SpecFileError(f"curve expects a curve file, got {spec.kind!r}")
    curve = spec.payload
    schedule = _parse_schedule(args.schedule)
    doc = {"action": args.action,
           "schedule": {"calc_times": list(schedule.calc_times),
                        "fractions": list(schedule.fractions)}}
    if args.action == "par":
        value = par_coupon(curve, schedule)
    elif args.action == "swap":
        value = swap_par(curve, schedule)
    elif args.action == "fra":
        if len(args.args) != 2 or not all(a.is_integer() for a in args.args):
            raise SpecFileError("curve fra needs two integer schedule indices j k")
        j, k = (int(a) for a in args.args)
        value = forward_rate(curve, 0, j, k, schedule)
        doc["interval"] = [j, k]
    else:
        if len(args.args) != 1:
            raise SpecFileError("curve price needs exactly one coupon argument")
        value = bond_price(curve, schedule, args.args[0])
    return dict(doc, value=value, display=display(value)), EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflator",
        description="Arbitrage detection, pricing, and hedging from "
                    "market specification files.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (("detect", "classify a market: deflator "
                                      "(exit 0) or arbitrage (exit 3)"),
                           ("price", "price a payoff under the deflator"),
                           ("hedge", "least squares hedge of a payoff")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("spec")
        if name != "detect":
            cmd.add_argument("--payoff", default=None,
                             help="'call K', 'put K', 'const c', or a JSON file")
        cmd.add_argument("--tol", type=float, default=None)

    curve = sub.add_parser("curve", help="discount curve analytics")
    curve.add_argument("spec", metavar="curve")
    curve.add_argument("action", choices=("par", "swap", "fra", "price"))
    curve.add_argument("args", nargs="*", type=float)
    curve.add_argument("--schedule", default=None,
                       help="t0,t1,...[;d1,d2,...]")
    return parser


_COMMANDS = {"detect": cmd_detect, "price": cmd_price, "hedge": cmd_hedge,
             "curve": cmd_curve}


def main(argv=None) -> int:
    """Parse the spec and the tolerance, solve the command, render its
    document; every failure, rendering included, leaves by one exit code
    and one stderr line, with nothing on stdout."""
    args = _parser().parse_args(argv)
    try:
        spec = load_market_spec(args.spec)
        tol = (spec.tolerance if getattr(args, "tol", None) is None
               else check_tolerance(args.tol, "--tol"))
        fields, code = _COMMANDS[args.command](args, spec, tol)
        # a market document names its kind and the tolerance it used
        doc = ({} if args.command == "curve"
               else {"kind": spec.kind, "diagnostics": {"tolerance": tol}})
        text = render_document(dict(doc, command=args.command, **fields))
    except ArbitrageInInput as exc:
        print(f"deflator: {exc}", file=sys.stderr)
        return EXIT_ARBITRAGE
    except SingularGram as exc:
        print(f"deflator: singular hedge problem: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (DeflatorError, ValueError, OSError) as exc:
        print(f"deflator: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
