"""Golden-file and exit-code tests for the command line tool."""

import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from deflator import atm_call_correlation, cli, cone
from deflator.cli import main
from deflator.market_files import load_market_spec, parse_document, render_document

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


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["curve", "x", "frobnicate"])


# ----------------------------------------------- one quote, one document


@pytest.mark.parametrize("option", ["call 100", "put 100", "call 80", "put 130"])
def test_gbm_hedge_reports_the_priced_option(option, capsys):
    # hedge reported the put's pv next to the call's delta
    priced = run(["price", "gbm.json", "--payoff", option], capsys)
    hedged = run(["hedge", "gbm.json", "--payoff", option], capsys)
    assert priced[0] == hedged[0] == 0
    prices = parse_document(priced[1])["prices"]
    hedge = parse_document(hedged[1])["hedge"]
    assert (hedge["pv"], hedge["delta"], hedge["gamma"]) == (
        prices["pv"], prices["delta"], prices["gamma"])


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
