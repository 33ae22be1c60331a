"""Golden-file and exit-code tests for the command line tool."""

import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from deflator import atm_call_correlation, bachelier_put, cli, cone, gbm_put, levy_put
from deflator.cli import main
from deflator.market_files import display, load_market_spec, parse_document, render_document
from deflator.models import bachelier_hedge

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (expected exit code, argv)
CASES = {
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


def run(argv, capsys):
    resolved = [str(FIXTURES / a) if (FIXTURES / a).exists() else a
                for a in argv]
    code = main(resolved)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["detect_ex5", "detect_fair_binomial"])
def test_one_period_detect_solves_once(name, capsys, monkeypatch):
    calls = []
    solve = cone._project_stack
    monkeypatch.setattr(cone, "_project_stack",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    code, out, _ = run(CASES[name][1], capsys)
    assert (code, out) == (CASES[name][0], golden(name))
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    want_code, argv = CASES[name]
    code, out, _ = run(argv, capsys)
    assert code == want_code
    assert out == golden(name)
    # rerun is byte-identical
    code2, out2, _ = run(argv, capsys)
    assert (code2, out2) == (code, out)


def test_golden_cases_call_no_lapack_solver(capsys, monkeypatch):
    # every factor is built in-tree, so no golden holds the bits of one
    # LAPACK or BLAS build
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg solver called")

    for name in ("lstsq", "qr", "inv", "solve", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name, (want_code, argv) in sorted(CASES.items()):
        assert run(argv, capsys)[:2] == (want_code, golden(name)), name


def test_documents_round_trip_losslessly():
    for name in sorted(CASES):
        text = golden(name)
        assert render_document(parse_document(text)) == text


# --------------------------------------------- values against the library


def test_fair_binomial_call_price_is_the_binomial_formula():
    # imported here: bench/test_bench.py loads this module by file, off the tests' path
    from _fixtures import binomial_price
    doc = parse_document(golden("price_fair_binomial_call"))
    oracle = binomial_price(R=1.05, s=100.0, d=0.95, u=1.15,
                            payoff=lambda x: max(x - 100.0, 0.0))
    assert abs(doc["prices"]["value"] - oracle["value"]) <= 1e-9


def test_fair_binomial_weights_are_risk_neutral():
    doc = parse_document(golden("detect_fair_binomial"))
    R, d, u = 1.05, 0.95, 1.15
    a = (u - R) / (R * (u - d))
    b = (R - d) / (R * (u - d))
    got = doc["weights"]["weights"]
    assert abs(got[0] - a) <= 1e-9 and abs(got[1] - b) <= 1e-9


def test_panel_call_price_is_backward_induction():
    # fair tree: half-half node weights, three periods of discounting
    R, s, sigma = 1.05, 100.0, 0.3
    mu = math.log(R / math.cosh(sigma))
    total = 0.0
    for path in range(8):
        steps = [1.0 if path & (1 << i) else -1.0 for i in range(3)]
        terminal = s * math.exp(mu * 3 + sigma * sum(steps))
        total += max(terminal - 100.0, 0.0)
    oracle = total / 8.0 / R ** 3
    doc = parse_document(golden("price_panel_call"))
    assert abs(doc["prices"]["per_block"][0] - oracle) <= 1e-9


def test_panel_zcb_is_pure_discount():
    doc = parse_document(golden("price_panel_zcb"))
    assert abs(doc["prices"]["per_block"][0] - 1.05 ** -3) <= 1e-12


def exact_panel_weights():
    """Deflator weights of binomial_panel.json in exact arithmetic: each
    2 x 2 node solved by Cramer's rule on the fixture's float inputs."""
    panel = load_market_spec(FIXTURES / "binomial_panel.json").payload
    weights = [[Fraction(1)]]
    for i in range(panel.n_periods):
        fine, coarse = panel.filtration[i + 1], panel.filtration[i]
        settle = [[Fraction(v) for v in row] for row in panel.settle(i + 1).values.tolist()]
        level = [None] * fine.n_blocks
        for b, x in enumerate(panel.prices[i].values.tolist()):
            lo, hi = sorted({int(f) for f, c in zip(fine.block_of, coarse.block_of)
                             if c == b})
            (a, c), (d, e) = settle[lo], settle[hi]
            x0, x1 = Fraction(x[0]), Fraction(x[1])
            det = a * e - d * c
            level[lo] = weights[i][b] * (x0 * e - x1 * d) / det
            level[hi] = weights[i][b] * (a * x1 - c * x0) / det
        weights.append(level)
    return panel, weights


def test_panel_goldens_are_the_exact_node_solves():
    panel, exact = exact_panel_weights()
    got = parse_document(golden("detect_panel"))["weights"]
    for row, want in zip(got, exact):
        for value, w in zip(row, want):
            assert abs(Fraction(value) - w) <= 8 * math.ulp(float(w))
    stock = [Fraction(v) for v in panel.settle(panel.n_periods).values[:, -1].tolist()]
    call = sum(w * max(v - 100, 0) for w, v in zip(exact[-1], stock))
    price = parse_document(golden("price_panel_call"))["prices"]["per_block"][0]
    assert abs(Fraction(price) - call) <= 4 * math.ulp(float(call))
    zcb = sum(exact[-1])
    price = parse_document(golden("price_panel_zcb"))["prices"]["per_block"][0]
    assert abs(Fraction(price) - zcb) <= 4 * math.ulp(float(zcb))


def no_arbitrage_interval(panel, values):
    """The least and greatest time-0 price of the terminal claim `values`
    over every deflator of a one-block-at-time-0 panel, by scipy's
    linprog: node measures W_t >= 0 with W_0 = 1 and, at every node b of
    time t < n, x_b W_t(b) = sum over the children c of b of s_c W_{t+1}(c)
    (s the settlement rows), the price being sum_c values_c W_n(c)."""
    from scipy.optimize import linprog
    sizes = [alg.n_blocks for alg in panel.filtration.algebras]
    start = np.cumsum([0, *sizes])
    rows, rhs = [np.eye(1, start[-1])[0]], [1.0]
    for t in range(panel.n_periods):
        parent = panel.filtration[t + 1].coarse_block_map(panel.filtration[t])
        settle = panel.settle(t + 1).values
        for b, x in enumerate(panel.prices[t].values):
            for m in range(panel.n_instruments):
                row = np.zeros(start[-1])
                row[start[t] + b] = x[m]
                row[start[t + 1] + np.flatnonzero(parent == b)] = -settle[parent == b, m]
                rows.append(row)
                rhs.append(0.0)
    cost = np.zeros(start[-1])
    cost[start[-2]:] = values
    ends = [linprog(sign * cost, A_eq=np.array(rows), b_eq=rhs, bounds=(0, None),
                    method="highs") for sign in (1.0, -1.0)]
    assert all(end.status == 0 for end in ends)
    return ends[0].fun, -ends[1].fun


@pytest.mark.parametrize("fixture, payoff, where", [
    ("trinomial_panel.json", "call 100", "upper"),
    ("trinomial_panel.json", "put 100", "upper"),
    ("binomial_panel.json", "call 100", "both"),
    ("binomial_panel.json", "const 1", "both"),
])
def test_a_panel_price_is_one_price_of_the_no_arbitrage_interval(fixture, payoff, where,
                                                                  capsys):
    # price reads the one deflator that find_tree_deflator assembles; on
    # a trinomial tree (incomplete) other deflators price the claim too,
    # and this one sits at the upper end for the call and the put at 100
    code, out, _ = run(["price", fixture, "--payoff", payoff], capsys)
    [price] = parse_document(out)["prices"]["per_block"]
    panel = load_market_spec(FIXTURES / fixture).payload
    underlying = panel.settle(panel.n_periods).values[:, -1]
    low, high = no_arbitrage_interval(panel, cli._parse_payoff(payoff).on_underlying(underlying))
    assert code == 0 and price == pytest.approx(high, rel=1e-9)
    if where == "both":
        assert low == pytest.approx(high, rel=1e-9)
    else:
        assert high - low > 0.1 * high


def test_bachelier_atm_put_closed_form():
    doc = parse_document(golden("price_bach_atm_put"))
    assert abs(doc["prices"]["value"]
               - 100.0 * 0.2 / math.sqrt(2 * math.pi)) <= 1e-12
    assert doc["prices"]["delta"] == -0.5
    assert doc["prices"]["residual"] <= 1e-9


def test_bachelier_hedge_reports_the_atm_correlation():
    doc = parse_document(golden("hedge_bach_atm_call"))
    assert abs(doc["hedge"]["corr"] - atm_call_correlation()) <= 1e-12
    assert doc["hedge"]["gamma"][1] == pytest.approx(0.5, abs=1e-12)


def test_model_price_cross_checks_agree():
    gbm = parse_document(golden("price_gbm_put"))
    levy = parse_document(golden("price_levy_put"))
    assert gbm["prices"]["residual"] <= 1e-9
    assert levy["prices"]["residual"] <= 1e-9
    # Gaussian base pricer reproduces the lognormal value
    assert abs(levy["prices"]["forward_value"]
               - gbm["prices"]["forward_value"]) <= 1e-8


def test_curve_values_by_hand():
    annuity = 0.5 * (0.990 + 0.975 + 0.958 + 0.940)
    par = parse_document(golden("curve_par"))
    assert abs(par["value"] - (1.0 - 0.940) / annuity) <= 1e-12
    price = parse_document(golden("curve_price"))
    assert abs(price["value"] - (0.04 * annuity + 0.940)) <= 1e-12
    swap = parse_document(golden("curve_swap"))
    fra = parse_document(golden("curve_fra"))
    assert swap["value"] == fra["value"]   # one-period swap is the FRA


def test_vector_payoff_file_matches_builtin(tmp_path, capsys):
    payoff = tmp_path / "payoff.json"
    payoff.write_text("[0.0, 15.0]\n")
    code, out, _ = run(["price", "fair_binomial.json",
                        "--payoff", str(payoff)], capsys)
    assert code == 0
    assert out == golden("price_fair_binomial_call")


# ----------------------------------------------------------- exit codes


def test_pricing_an_arbitrage_market_exits_3(capsys):
    code, out, err = run(["price", "ex5.json", "--payoff", "call 100"], capsys)
    assert code == 3
    assert out == ""
    assert "arbitrage" in err


def test_collinear_hedge_exits_4(capsys):
    code, out, err = run(["hedge", "collinear.json", "--payoff", "call 100"],
                         capsys)
    assert code == 4
    assert out == ""
    assert "singular" in err
    assert "stock_clone" in err


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["detect", str(bad)], capsys)[0] == 2

    nan = tmp_path / "nan.json"
    nan.write_text('{"kind": "bachelier", "R": 1.0, "s": 100.0, "sigma": NaN}')
    code, _, err = run(["price", str(nan), "--payoff", "put 100"], capsys)
    assert code == 2
    assert "non-finite" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"kind": "swaption"}')
    assert run(["detect", str(unknown)], capsys)[0] == 2

    assert run(["detect", str(tmp_path / "missing.json")], capsys)[0] == 2
    assert run(["price", "fair_binomial.json"], capsys)[0] == 2
    assert run(["price", "fair_binomial.json", "--payoff", "straddle 100"],
               capsys)[0] == 2
    assert run(["curve", "curve.txt", "par", "--schedule", "1.0"],
               capsys)[0] == 2
    assert run(["curve", "curve.txt", "par", "--schedule", "0,0.25"],
               capsys)[0] == 2   # 0.25 is not a curve maturity
    assert run(["curve", "fair_binomial.json", "par", "--schedule", "1,2"],
               capsys)[0] == 2

    # numpy reads the string "1.05" and true as numbers; the spec and
    # payoff readers refuse both, and name the field
    def edited(fixture, edit):
        spec = json.loads((FIXTURES / fixture).read_text())
        edit(spec)
        path = tmp_path / f"edited_{fixture}"
        path.write_text(json.dumps(spec))
        return run(["detect", str(path)], capsys)

    for value in ("1.05", True):
        for fixture, field, edit in (
                ("ex5.json", "payoffs", lambda s: s["payoffs"][1].__setitem__(0, value)),
                ("binomial_panel.json", "prices[1]",
                 lambda s: s["prices"][1][0].__setitem__(0, value)),
                ("binomial_panel.json", "times", lambda s: s["times"].__setitem__(2, value)),
                ("levy.json", "base.nodes", lambda s: s["base"].__setitem__("nodes", [value])),
                ("gbm.json", "gbm.sigma", lambda s: s.__setitem__("sigma", value))):
            code, out, err = edited(fixture, edit)
            assert (code, out) == (2, ""), (fixture, value)
            assert f"{field}: only numbers allowed" in err
        payoff = tmp_path / "payoff.json"
        payoff.write_text(json.dumps([1.0, value]))
        code, out, err = run(["price", "fair_binomial.json", "--payoff", str(payoff)], capsys)
        assert (code, out) == (2, "")
        assert f"payoff file {payoff}: only numbers allowed" in err
    for raw in ([[1.0, 2.0]], 1.0):
        payoff.write_text(json.dumps(raw))
        code, out, err = run(["price", "fair_binomial.json", "--payoff", str(payoff)], capsys)
        assert (code, out) == (2, "")
        assert f"payoff file {payoff}: expected a flat list of numbers" in err
    code, out, err = edited("binomial_panel.json",
                            lambda s: s["blocks"][3][1].__setitem__(0, True))
    assert (code, out) == (2, "")
    assert "blocks[3][1]: atom index True is not an integer in [0, 8)" in err

    # a domain object's own error reaches the CLI as an invalid spec of its kind
    code, out, err = edited("binomial_panel.json",
                            lambda s: s["blocks"].__setitem__(2, [[0, 4], [1, 2], [3, 5], [6, 7]]))
    assert (code, out) == (2, "")
    assert "invalid panel spec: algebra 2 does not refine algebra 1" in err
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"kind": "curve", "maturities": [1.0, 2.0],
                                 "discounts": [0.95, -0.9]}))
    code, out, err = run(["curve", str(curve), "par", "--schedule", "1,2"], capsys)
    assert (code, out) == (2, "")
    assert "invalid curve spec: discount factors must be positive" in err


@pytest.mark.parametrize("command, spec, verb", [("price", "bach.json", "pricing"),
                                                 ("hedge", "gbm.json", "hedging")])
def test_models_take_only_calls_and_puts(command, spec, verb, capsys):
    # "const c" applies to the last instrument of a market, never to a model
    code, out, err = run([command, spec, "--payoff", "const 1"], capsys)
    assert (code, out) == (2, "")
    assert f"model {verb} needs --payoff 'call K' or 'put K'" in err


@pytest.mark.parametrize("bad", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(bad, tmp_path, capsys):
    # a tolerance <= 0 called the fair market an arbitrage whose
    # certificate costs money; a non-finite one failed after the solve
    for argv in (["detect", "fair_binomial.json"],
                 ["price", "fair_binomial.json", "--payoff", "call 100"],
                 ["hedge", "fair_binomial.json", "--payoff", "call 100"]):
        code, out, err = run(argv + ["--tol", bad], capsys)
        assert (code, out) == (2, "")
        assert "--tol: the tolerance must be finite and > 0" in err
    spec = json.loads((FIXTURES / "fair_binomial.json").read_text())
    spec["options"] = {"tolerance": float(bad)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (2, "")
    # JSON has no literal for nan or inf: the reader rejects those first
    assert ("options.tolerance: the tolerance must be finite and > 0" in err
            if math.isfinite(float(bad)) else "non-finite" in err)


@pytest.mark.parametrize("number", ["inf", "-inf", "nan"])
def test_payoff_numbers_must_be_finite(number, capsys):
    # spec files refuse NaN and Infinity; a --payoff number is refused alike,
    # before any spec kind is looked at
    for command in ("price", "hedge"):
        for spec in ("fair_binomial.json", "binomial_panel.json", "bach.json", "gbm.json",
                     "levy.json"):
            for kind in ("call", "put", "const"):
                code, out, err = run([command, spec, "--payoff", f"{kind} {number}"], capsys)
                assert (code, out) == (2, ""), (command, spec, kind)
                assert f"payoff '{kind} {number}': the number must be finite" in err


@pytest.mark.parametrize("argv, message", [
    (["detect", "bach.json"], "detect expects a one_period or panel spec, got 'bachelier'"),
    (["price", "curve.txt", "--payoff", "call 100"], "price does not support kind 'curve'"),
    (["hedge", "binomial_panel.json", "--payoff", "call 100"],
     "hedge does not support kind 'panel'"),
    (["hedge", "levy.json", "--payoff", "put 100"], "hedge does not support kind 'levy'"),
    (["curve", "curve.txt", "par"], "curve commands need --schedule t0,t1,...[;d1,...]"),
    (["curve", "curve.txt", "price", "--schedule", "0,0.5,1"],
     "curve price needs exactly one coupon argument"),
    (["curve", "curve.txt", "price", "0.04", "0.05", "--schedule", "0,0.5,1"],
     "curve price needs exactly one coupon argument"),
], ids=["detect-model", "price-curve", "hedge-panel", "hedge-levy", "curve-no-schedule",
        "curve-price-no-coupon", "curve-price-two-coupons"])
def test_commands_on_the_wrong_input_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"deflator: {message}\n"


@pytest.mark.parametrize("schedule, message", [
    ("0,1;nan", "bad schedule '0,1;nan': accrual fractions must be positive and finite"),
    ("0,inf", "bad schedule '0,inf': schedule times must be finite"),
    # a finite schedule whose par coupon overflows: par_coupon refuses it
    ("0,1;1e-320", "the par coupon is not finite (inf)"),
])
def test_curve_results_that_cannot_be_rendered_exit_2(schedule, message, capsys):
    # each exited 1 with a traceback from the render, after the error
    # mapping; it now leaves by the mapping, with nothing on stdout
    code, out, err = run(["curve", "curve.txt", "par", "--schedule", schedule], capsys)
    assert (code, out) == (2, "")
    assert err == f"deflator: {message}\n"


def test_non_finite_curve_rows_and_negative_smoothing_exit_2(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text("(0.5, 0.99)\n(nan, 0.97)\n")
    code, out, err = run(["curve", str(curve), "par", "--schedule", "0,0.5"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"deflator: {curve}: not JSON and not a curve file (maturities must "
                          "be finite") and err.count("\n") == 1
    # only smoothing^2 entered the inversion: -0.5 priced as +0.5
    spec = json.loads((FIXTURES / "levy.json").read_text())
    spec["smoothing"] = -0.5
    path = tmp_path / "levy.json"
    path.write_text(json.dumps(spec))
    for payoff in ("put 100", "call 100"):
        code, out, err = run(["price", str(path), "--payoff", payoff], capsys)
        assert (code, out, err) == (
            2, "", "deflator: smoothing must be finite and >= 0, not -0.5\n")


def test_every_spec_kind_reads_options_tolerance_once(tmp_path, capsys):
    # the loaders build the payload; load_market_spec reads the options
    # after them, outside the wrapping of a loader's errors
    curve = {"kind": "curve", "maturities": [1.0, 2.0], "discounts": [0.95, 0.9]}
    cases = [(name, json.loads((FIXTURES / name).read_text()), argv)
             for name, argv in (("fair_binomial.json", ["detect"]),
                                ("binomial_panel.json", ["detect"]),
                                ("bach.json", ["price", "--payoff", "put 100"]),
                                ("gbm.json", ["price", "--payoff", "put 100"]),
                                ("levy.json", ["price", "--payoff", "put 100"]))]
    for name, spec, argv in cases + [("curve.json", curve, ["curve", "par", "--schedule", "0,1"])]:
        path = tmp_path / name
        for tolerance, want in ((-1.0, 2), (1e-7, None)):
            path.write_text(json.dumps(dict(spec, options={"tolerance": tolerance})))
            code, out, err = run(argv[:1] + [str(path)] + argv[1:], capsys)
            if want == 2:
                assert (code, out) == (2, ""), name
                assert err == ("deflator: options.tolerance: the tolerance must be finite "
                               "and > 0, not -1.0\n")
            elif name != "curve.json":
                assert parse_document(out)["diagnostics"]["tolerance"] == 1e-7, name


def test_one_period_hedge_correlation_stays_in_range():
    # the hedge of an affine payoff is exact, so its correlation is +-1;
    # rounding put it above 1 in 93 of these 400 draws
    rng = np.random.default_rng(61)
    for _ in range(400):
        n = int(rng.integers(2, 9))
        weights = rng.gamma(2.0, size=n)
        a = 100.0 * np.exp(rng.normal(scale=0.2, size=n))
        b = 10.0 * rng.normal() + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0) * a
        assert -1.0 <= cli._weighted_corr(weights, a, b) <= 1.0


def test_one_period_hedge_of_a_constant_has_correlation_zero(tmp_path, capsys):
    # a payoff constant where the deflator weighs has zero variance, so
    # its correlation is 0, as bachelier_hedge's.  The deflator of this
    # market weighs the middle outcome 0.  The hedge of "const 1" holds
    # 4e-18 of the stock by rounding, and was reported 0 while "const
    # 3.7" and "const 0.1" were reported 1; "const 1e-6", and a payoff
    # constant on the outer outcomes only, got 1 or anything in [-1, 1]
    # from rounding of their weighted means
    spec = tmp_path / "three_outcomes.json"
    spec.write_text(json.dumps({
        "kind": "one_period",
        "instruments": [{"name": "bond", "price": 1 / 1.05}, {"name": "stock", "price": 100.0}],
        "atoms": ["down", "mid", "up"],
        "payoffs": [[1.05, 90.0], [1.05, 104.0], [1.05, 121.0]]}))
    payoff = tmp_path / "payoff.json"
    rng = np.random.default_rng(67)
    for c in map(float, (1.0, 3.7, 0.1, 2.0, 1e6, 1e-6, *10.0 ** rng.uniform(-8.0, 8.0, size=40))):
        payoff.write_text(json.dumps([c, c * rng.normal(), c]))
        for argv in (["--payoff", f"const {c!r}"], ["--payoff", str(payoff)]):
            code, out, _ = run(["hedge", str(spec), *argv], capsys)
            assert code == 0
            assert json.loads(out)["hedge"]["corr"] == 0.0


def test_wrong_length_payoff_vector_exits_2(tmp_path, capsys):
    payoff = tmp_path / "payoff.json"
    payoff.write_text("[1.0, 2.0, 3.0]\n")
    code, _, err = run(["price", "fair_binomial.json",
                        "--payoff", str(payoff)], capsys)
    assert code == 2
    assert "3 values" in err


# malformed input -> (argv, edit of the spec argv[1] names or None, start
# of the one stderr line); three.json holds three payoff values and
# broken.json is not JSON
def scale_one_period(spec, c):
    """A one-period spec with every price and payoff multiplied by c."""
    for instrument in spec["instruments"]:
        instrument["price"] *= c
    spec["payoffs"] = [[c * v for v in row] for row in spec["payoffs"]]


def overflow_last_settlement(spec):
    """A panel spec given zero cash flows, then a stock price and cash
    flow of 1.7e308 each in the first block of the last time."""
    spec["cashflows"] = [[[0.0] * len(row) for row in level] for level in spec["prices"]]
    spec["prices"][-1][0][1] = spec["cashflows"][-1][0][1] = 1.7e308


MALFORMED = {
    "payoff-rows-not-atoms": (
        ["detect", "fair_binomial.json"], lambda s: s["payoffs"].append([1.05, 100.0]),
        "invalid one_period spec: 2 labels for 3 outcomes: one label per outcome required"),
    "payoff-columns-not-instruments": (
        ["detect", "fair_binomial.json"], lambda s: [row.append(1.0) for row in s["payoffs"]],
        "invalid one_period spec: payoff rows have 3 entries but there are 2 prices"),
    "payoffs-not-a-regular-array": (
        ["detect", "fair_binomial.json"], lambda s: s.__setitem__("payoffs", [[1, 2], [3]]),
        "payoffs: not a regular array ("),
    "payoff-file-length-one-period": (
        ["price", "fair_binomial.json", "--payoff", "three.json"], None,
        "payoff has 3 values in shape (3,); need one value per outcome (2)"),
    "payoff-file-length-hedge": (
        ["hedge", "fair_binomial.json", "--payoff", "three.json"], None,
        "payoff has 3 values in shape (3,); need one value per outcome (2)"),
    "payoff-file-length-panel": (
        ["price", "binomial_panel.json", "--payoff", "three.json"], None,
        "need one value (or row) per block, got shape (3,) for 8 blocks"),
    "payoff-file-not-json": (
        ["price", "fair_binomial.json", "--payoff", "broken.json"], None, "bad payoff file "),
    "payoff-number-not-a-number": (
        ["price", "fair_binomial.json", "--payoff", "call abc"], None,
        "cannot parse payoff 'call abc': expected 'call K', 'put K', 'const c', "
        "or a JSON file path"),
    "block-index-true": (
        ["detect", "binomial_panel.json"], lambda s: s["blocks"][2][1].__setitem__(1, True),
        "blocks[2][1]: atom index True is not an integer in [0, 8); "
        "blocks must be nonempty lists of integer atom indices"),
    "atom-in-two-blocks": (
        ["detect", "binomial_panel.json"], lambda s: s["blocks"][2][1].__setitem__(0, 1),
        "blocks[2][1]: atom 1 is also in block 0"),
    "atom-left-out": (
        ["detect", "binomial_panel.json"], lambda s: s["blocks"][2][1].pop(),
        "blocks[2]: need the 8 atoms, each once"),
    # the smoothing is checked at a strike <= 0 too
    "levy-negative-smoothing-at-put-0": (
        ["price", "levy.json", "--payoff", "put 0"], lambda s: s.__setitem__("smoothing", -0.5),
        "smoothing must be finite and >= 0, not -0.5"),
    # numpy's overflow warning came first, on two more lines
    "cash-flow-plus-price-overflows": (
        ["detect", "binomial_panel.json"], overflow_last_settlement,
        "invalid panel spec: cash flow plus price overflows at time 3"),
    # the squares of the prices overflowed, and ex5.json read fair
    "one-period-squares-overflow": (
        ["detect", "ex5.json"], lambda s: scale_one_period(s, 2.0 ** 560),
        "prices of scale 3.77e+170 are out of the verdict's range: their sum of squares "
        "overflows; rescale the market"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_stderr_line(case, tmp_path, capsys):
    argv, edit, message = MALFORMED[case]
    (tmp_path / "three.json").write_text("[1.0, 2.0, 3.0]\n")
    (tmp_path / "broken.json").write_text("[1.0, 2.0\n")
    if edit is not None:
        spec = json.loads((FIXTURES / argv[1]).read_text())
        edit(spec)
        (tmp_path / argv[1]).write_text(json.dumps(spec))
    code, out, err = run([str(tmp_path / a) if (tmp_path / a).exists() else a
                          for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"deflator: {message}") and err.count("\n") == 1, err
    assert err.endswith("\n")


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["curve", "x", "frobnicate"])


# ----------------------------------------------- one quote, one document


@pytest.mark.parametrize("option", ["call 100", "put 100", "call 80", "put 130", "call 0",
                                    "put -5"])
def test_gbm_hedge_reports_the_priced_option(option, capsys):
    # hedge reported the put's pv next to the call's delta
    priced = run(["price", "gbm.json", "--payoff", option], capsys)
    hedged = run(["hedge", "gbm.json", "--payoff", option], capsys)
    assert priced[0] == hedged[0] == 0
    prices = parse_document(priced[1])["prices"]
    hedge = parse_document(hedged[1])["hedge"]
    assert (hedge["pv"], hedge["delta"], hedge["gamma"]) == (
        prices["pv"], prices["delta"], prices["gamma"])


def library_quote(spec, option):
    """A model option by the library's public put pricers and put-call
    parity (bachelier: s - k/R; gbm and levy: forward - k): the fields
    price prints under the model's names, and the number its quadrature
    checks."""
    kind, k = option.split()[0], float(option.split()[1])
    call, params = kind == "call", spec.payload
    if spec.kind == "bachelier":
        put = bachelier_put(params, k)
        value = put.price + (params.s - k / params.R if call else 0.0)
        return {"value": value, "delta": put.delta + (1.0 if call else 0.0)}, value
    shift = params.forward - k if call else 0.0
    if spec.kind == "levy":
        value = levy_put(params, k, smoothing=spec.smoothing) + shift
        return {"forward_value": value}, value
    put = gbm_put(params, k)
    value = put.forward_value + shift
    return {"forward_value": value, "pv": math.exp(-params.r * params.t) * value,
            "delta": put.delta + (1.0 if call else 0.0), "gamma": put.gamma}, value


@pytest.mark.parametrize("option", [f"{kind} {k}" for kind in ("call", "put")
                                    for k in (80, 100, 105, 125)])
@pytest.mark.parametrize("command, fixture", [
    ("price", "bach.json"), ("price", "gbm.json"), ("price", "levy.json"),
    ("hedge", "bach.json"), ("hedge", "gbm.json")])
def test_model_outputs_are_the_library_quotes(command, fixture, option, capsys):
    code, out, err = run([command, fixture, "--payoff", option], capsys)
    assert (code, err) == (0, "")
    doc = parse_document(out)
    spec = load_market_spec(str(FIXTURES / fixture))
    want, value = library_quote(spec, option)
    if command == "price":
        prices = doc["prices"]
        shown = want.get("pv", value)
        assert prices == dict(want, quadrature=prices["quadrature"],
                              residual=abs(value - prices["quadrature"]),
                              display=display(shown))
        assert prices["residual"] <= 1e-9 * abs(value)
    elif spec.kind == "gbm":
        assert doc["hedge"] == {"pv": want["pv"], "delta": want["delta"],
                                "gamma": want["gamma"],
                                "display": {"delta": display(want["delta"])}}
    else:
        # the Bachelier hedge is the least squares stock hedge, by
        # quadrature: its cost is the option's value, its shares the delta
        hedge, k = doc["hedge"], float(option.split()[1])
        mean_v, shares, corr, lse = bachelier_hedge(
            spec.payload, cli._parse_payoff(option).on_underlying, kinks=(k,))
        R = spec.payload.R
        assert hedge == {"gamma": [(mean_v - shares * spec.payload.forward) / R, shares],
                         "hedge_cost": mean_v / R, "corr": corr,
                         "least_squared_error": lse, "display": {"corr": display(corr)}}
        assert abs(hedge["hedge_cost"] - value) <= 1e-9 * abs(value)
        assert abs(shares - want["delta"]) <= 1e-9


@pytest.mark.parametrize("option", ["call 0", "put -5"])
def test_a_levy_strike_at_most_0_is_priced_as_levy_put_prices_it(option, capsys):
    # the quadrature took log(k) of a strike <= 0 and exited 2
    code, out, err = run(["price", "levy.json", "--payoff", option], capsys)
    assert (code, err) == (0, "")
    prices = parse_document(out)["prices"]
    want, _ = library_quote(load_market_spec(str(FIXTURES / "levy.json")), option)
    assert (prices["forward_value"], prices["residual"]) == (want["forward_value"], 0.0)


def arbitrage_panel():
    """binomial_panel_arbitrage.json, which is binomial_panel.json with
    the stock at block 1 of time 1 quoted at 1.5 times its up child:
    (spec path, children of that block)."""
    spec = json.loads((FIXTURES / "binomial_panel.json").read_text())
    node = set(spec["blocks"][1][1])
    children = [c for c, atoms in enumerate(spec["blocks"][2]) if set(atoms) <= node]
    spec["prices"][1][1][1] = 1.5 * max(spec["prices"][2][c][1] for c in children)
    path = FIXTURES / "binomial_panel_arbitrage.json"
    assert json.loads(path.read_text()) == spec
    return path, children


def test_detect_names_the_planted_panel_arbitrage(capsys):
    path, children = arbitrage_panel()
    code, out, _ = run(["detect", str(path)], capsys)
    # the golden is compared here and in test_acceptance.py, not through
    # CASES, which the benchmark's CLI workload mirrors
    assert (code, out) == (3, golden("detect_panel_arbitrage"))
    doc = parse_document(out)
    assert (doc["verdict"], doc["kind"]) == ("arbitrage", "panel")
    certificate = doc["certificate"]
    assert (certificate["time"], certificate["block"]) == (1, 1)
    assert certificate["instruments"] == ["bond", "stock"]
    assert certificate["setup_gain"] > 0.0
    gamma = certificate["gamma"]
    expected = [np.zeros((len(level), 2))
                for level in json.loads(path.read_text())["blocks"]]
    expected[1][1] = gamma
    expected[2][children] = np.negative(gamma)
    assert [np.asarray(trade).tolist() for trade in doc["strategy"]] == [
        level.tolist() for level in expected]
    # the rerun prints the same bytes
    assert run(["detect", str(path)], capsys)[:2] == (code, out)


def test_detect_trinomial_panel_matches_its_golden(capsys):
    # every node has three children and two instruments, so the golden
    # pins the pair the direct solve picks; compared here, not through
    # CASES, which the benchmark's CLI workload mirrors
    argv = ["detect", "trinomial_panel.json"]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (0, golden("detect_trinomial_panel"))
    assert run(argv, capsys)[:2] == (code, out)
    doc = parse_document(out)
    assert (doc["verdict"], doc["kind"]) == ("deflator", "panel")
    # every node weighs its up and down children, as the active-set
    # solver ends, and its middle child 0
    assert [len(level) for level in doc["weights"]] == [1, 3, 9, 27]
    assert [np.count_nonzero(level) for level in doc["weights"]] == [1, 2, 4, 8]


def test_pricing_a_panel_with_an_arbitrage_node_exits_3(capsys):
    path, _ = arbitrage_panel()
    code, out, err = run(["price", str(path), "--payoff", "call 100"], capsys)
    assert (code, out) == (3, "")
    assert "arbitrage node at time 1, block 1" in err


def test_curve_schedule_with_explicit_fractions(capsys):
    code, out, _ = run(["curve", "curve.txt", "par", "--schedule", "0,0.5,1;0.5,0.5"],
                       capsys)
    assert code == 0
    # fractions equal to the year differences change nothing
    assert out == run(["curve", "curve.txt", "par", "--schedule", "0,0.5,1"], capsys)[1]
    code, out, _ = run(["curve", "curve.txt", "par", "--schedule", "0,0.5,1;0.25,0.75"],
                       capsys)
    doc = parse_document(out)
    assert code == 0
    assert doc["schedule"] == {"calc_times": [0.0, 0.5, 1.0], "fractions": [0.25, 0.75]}
    assert abs(doc["value"] - (1.0 - 0.975) / (0.25 * 0.990 + 0.75 * 0.975)) <= 1e-15


def test_curve_fra_takes_exactly_two_integer_indices(capsys):
    # 0.9 1.7 read as fra 0 1, one or three indices failed to unpack, and
    # none fell back to 0 1
    for indices in ([], ["0.9", "1.7"], ["1"], ["0", "1", "2"], ["0", "nan"]):
        code, out, err = run(["curve", "curve.txt", "fra", *indices, "--schedule", "0,1,2"],
                             capsys)
        assert (code, out) == (2, ""), indices
        assert "curve fra needs two integer schedule indices j k" in err
    code, out, _ = run(["curve", "curve.txt", "fra", "1.0", "2", "--schedule", "0,1,2"], capsys)
    assert code == 0 and parse_document(out)["interval"] == [1, 2]


def test_json_curve_spec_gives_the_text_curve_document(tmp_path, capsys):
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps({"kind": "curve", "maturities": [0.5, 1.0, 1.5, 2.0],
                                "discounts": [0.990, 0.975, 0.958, 0.940]}))
    for name in ("curve_par", "curve_swap", "curve_fra", "curve_price"):
        argv = [str(spec) if a == "curve.txt" else a for a in CASES[name][1]]
        assert run(argv, capsys)[:2] == (0, golden(name))


def test_spec_panels_live_on_their_filtration_levels():
    panel = load_market_spec(FIXTURES / "binomial_panel.json").payload
    for j, level in enumerate(panel.filtration.algebras):
        assert panel.prices[j].algebra is level
        assert panel.cashflows[j].algebra is level
