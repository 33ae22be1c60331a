"""Analytic models: Bachelier, GBM, infinitely divisible laws, inversion."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

import deflator
from deflator import models
from deflator import (
    BachelierParams,
    DimensionMismatch,
    GBMParams,
    KolmogorovLaw,
    LevyModelParams,
    NonConvergence,
    TruncationFailure,
    atm_call_correlation,
    bachelier_put,
    cdf_from_charfn,
    gbm_put,
    hedge_error_estimate,
    levy_put,
)
from deflator._quadrature import composite_gauss_legendre, gauss_legendre
from deflator.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def normal_expectation(f, mean, std, kinks=(), n=160, width=14.0):
    """Independent kink-split Gauss-Legendre oracle for E f(N(mean, std^2))."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    lo, hi = mean - width * std, mean + width * std
    edges = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        x = 0.5 * (b - a) * xg + 0.5 * (a + b)
        pdf = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        total += 0.5 * (b - a) * float(wg @ (f(x) * pdf))
    return total


# -------------------------------------------------------------- quadrature


@pytest.mark.parametrize("n", [1, 2, 5, 33, 120])
def test_gauss_legendre_is_symmetric_and_exact_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 4 * math.ulp(2.0)
    moment = math.fsum(w * x ** (2 * n - 2))
    assert abs(moment - 2.0 / (2 * n - 1)) <= 1e-14
    assert gauss_legendre(n)[0] is x  # built once per n


@pytest.mark.parametrize("n", [33, 120])
def test_gauss_legendre_is_correctly_rounded(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    x, w = gauss_legendre(n)
    nodes, weights = [], []
    with mp.workdps(40):
        def dp(t):
            return n * (mp.legendre(n - 1, t) - t * mp.legendre(n, t)) / (1 - t * t)

        # numpy's eigenvalue-based nodes only seed Newton at 40 digits
        for seed in np.polynomial.legendre.leggauss(n)[0]:
            t = mp.findroot(lambda u: mp.legendre(n, u), mp.mpf(seed),
                            solver="newton", df=dp)
            nodes.append(float(t))
            weights.append(float(2 / ((1 - t * t) * dp(t) ** 2)))
    assert x.tolist() == nodes
    assert w.tolist() == weights


# --------------------------------------------------------- standard normal


def test_in_tree_normal_law_matches_scipy(monkeypatch, capsys):
    # bit for bit at the arguments of the golden model cases ...
    seen = {"_ndtr": [], "_npdf": []}

    def recording(name):
        fn = getattr(models, name)

        def wrapper(z):
            seen[name].append(z)
            return fn(z)
        return wrapper

    for name in seen:
        monkeypatch.setattr(models, name, recording(name))
    for spec, payoff in (("bach.json", "put 105"), ("gbm.json", "put 100")):
        assert main(["price", str(FIXTURES / spec), "--payoff", payoff]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert seen["_ndtr"] and seen["_npdf"]
    for z in seen["_ndtr"]:
        assert models._ndtr(z) == ndtr(z)
    for z in seen["_npdf"]:
        assert models._npdf(z) == norm.pdf(z)

    # ... and close on a dense grid
    z = np.concatenate([np.linspace(-40.0, 40.0, 160001), [-1.0, 1.0]])
    got = np.array([models._ndtr(float(t)) for t in z])
    want = ndtr(z)
    assert np.abs(got - want).max() <= 2.0 ** -52
    # math.erfc and scipy's erfc agree to an ulp or two, but both read the
    # rounded z / sqrt(2), whose error the tail magnifies by about z^2
    normal = want >= np.finfo(float).tiny
    ulps = np.abs(got - want)[normal] / np.spacing(want[normal])
    assert (ulps <= 4.0 * (1.0 + z[normal] ** 2)).all()
    assert (got[z >= 5.0] == want[z >= 5.0]).all()


def test_ndtr_left_tail_keeps_its_relative_accuracy():
    # rounding z / sqrt(2) alone cost up to ~1,600 ulps here
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.random.default_rng(6).uniform(-37.0, -5.0, 2000),
                        [-37.0, -20.0, -5.0]])
    with mpmath.mp.workdps(40):
        ulps = [abs(mpmath.mpf(models._ndtr(float(t))) - mpmath.ncdf(float(t)))
                / math.ulp(float(mpmath.ncdf(float(t)))) for t in z]
    assert max(ulps) <= 4.0


# --------------------------------------------------------------- Bachelier


def test_bachelier_put_matches_quadrature_on_strike_grid():
    params = BachelierParams(R=1.05, s=100.0, sigma=0.2)
    f = params.forward
    for k in np.linspace(0.25 * f, 1.75 * f, 27):
        oracle = normal_expectation(lambda x: np.maximum(k - x, 0.0),
                                    mean=f, std=f * params.sigma,
                                    kinks=(k,)) / params.R
        assert bachelier_put(params, k).price == pytest.approx(oracle, abs=1e-10)


def test_bachelier_atm_closed_form():
    params = BachelierParams(R=1.07, s=80.0, sigma=0.15)
    quote = bachelier_put(params, params.forward)
    assert quote.price == pytest.approx(80.0 * 0.15 / math.sqrt(2 * math.pi),
                                        rel=1e-15)
    assert quote.delta == -0.5


def test_bachelier_delta_is_fixed_absolute_vol_slope():
    params = BachelierParams(R=1.05, s=100.0, sigma=0.2)
    k = 95.0
    h = 1e-5 * params.s
    total_vol = params.forward * params.sigma

    def price_at(s):
        # keep the absolute terminal deviation fixed while bumping spot
        return bachelier_put(
            BachelierParams(params.R, s, total_vol / (params.R * s)), k).price

    fd = (price_at(params.s + h) - price_at(params.s - h)) / (2 * h)
    assert bachelier_put(params, k).delta == pytest.approx(fd, abs=1e-8)


def test_call_put_consistency_residual():
    """Call from parity, call = put + s - k/R, against direct quadrature
    of E (S - k)^+ / R over the terminal normal law."""
    params = BachelierParams(R=1.02, s=120.0, sigma=0.3)
    for k in (60.0, 120.0, 122.4, 200.0):
        call = bachelier_put(params, k).price + params.s - k / params.R
        mean = models.bachelier_hedge(params, lambda x: np.maximum(x - k, 0.0),
                                      kinks=(k,))[0]
        assert abs(call - mean / params.R) <= 1e-12


def test_atm_call_correlation_constant_and_quadrature():
    target = 1.0 / math.sqrt(2.0 - 2.0 / math.pi)
    assert atm_call_correlation() == pytest.approx(target, rel=1e-15)
    for R, s, sigma in [(1.05, 100.0, 0.2), (1.0, 55.0, 0.08), (1.12, 7.0, 0.4)]:
        f = R * s
        std = f * sigma
        call = lambda x: np.maximum(x - f, 0.0)
        mean_c = normal_expectation(call, f, std, kinks=(f,))
        var_c = normal_expectation(lambda x: (call(x) - mean_c) ** 2, f, std,
                                   kinks=(f,))
        cov = normal_expectation(lambda x: (x - f) * (call(x) - mean_c), f, std,
                                 kinks=(f,))
        corr = cov / math.sqrt(var_c * std * std)
        assert corr == pytest.approx(target, abs=1e-12)


def test_hedge_error_quadratic_payoff():
    params = BachelierParams(R=1.05, s=100.0, sigma=0.05)
    f = params.forward
    est = hedge_error_estimate(params, lambda x: (x - f) ** 2)
    assert est.zero_slope
    assert est.corr_approx == 0.0
    assert abs(est.corr) <= 1e-12
    # for a pure quadratic the second-order formula is exact
    exact = 2.0 * (f * params.sigma) ** 4 / params.R
    assert est.least_squared_error == pytest.approx(exact, rel=1e-10)
    assert est.lse_approx == pytest.approx(exact, rel=1e-8)   # FD curvature noise
    supplied = hedge_error_estimate(params, lambda x: (x - f) ** 2,
                                    d1=lambda x: 2.0 * (x - f),
                                    d2=lambda x: 2.0)
    assert supplied.lse_approx == pytest.approx(exact, rel=1e-15)


def test_hedge_error_linear_payoff():
    params = BachelierParams(R=1.05, s=100.0, sigma=0.1)
    est = hedge_error_estimate(params, lambda x: 2.0 * x + 3.0)
    assert est.corr == pytest.approx(1.0, abs=1e-12)
    assert est.corr_approx == 1.0
    assert est.least_squared_error == pytest.approx(0.0, abs=1e-8)
    assert est.lse_approx == pytest.approx(0.0, abs=1e-12)


def test_hedge_error_of_affine_payoffs_stays_in_range():
    # an affine payoff is hedged exactly: rounding must not push the
    # error below zero or the correlation past one
    rng = np.random.default_rng(20191010)
    for _ in range(80):
        params = BachelierParams(R=float(rng.choice([1.0, 1.02, 1.05, 1.1])),
                                 s=float(rng.choice([1.0, 50.0, 100.0, 1000.0])),
                                 sigma=float(rng.choice([0.01, 0.05, 0.2, 0.5])))
        a = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 3.0)
        b = rng.uniform(-5.0, 5.0)
        est = hedge_error_estimate(params, lambda x: a * x + b)
        assert est.least_squared_error >= 0.0
        assert -1.0 <= est.corr <= 1.0
        assert est.corr == pytest.approx(math.copysign(1.0, a), abs=1e-12)
        assert est.least_squared_error <= 1e-12 * (a * params.forward) ** 2


def test_hedge_error_approximations_tighten_as_vol_shrinks():
    payoff = lambda x: np.exp(x / 105.0)
    d1 = lambda x: math.exp(x / 105.0) / 105.0
    d2 = lambda x: math.exp(x / 105.0) / 105.0 ** 2
    gaps = []
    for sigma in (0.04, 0.02, 0.01):
        params = BachelierParams(R=1.05, s=100.0, sigma=sigma)
        est = hedge_error_estimate(params, payoff, d1=d1, d2=d2)
        assert not est.zero_slope
        gaps.append(abs(est.least_squared_error / est.lse_approx - 1.0))
        assert abs(est.corr - est.corr_approx) <= 1e-3 * sigma
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 2e-4
    # supplied derivatives agree with the finite-difference path
    fd = hedge_error_estimate(BachelierParams(1.05, 100.0, 0.02), payoff)
    an = hedge_error_estimate(BachelierParams(1.05, 100.0, 0.02), payoff,
                              d1=d1, d2=d2)
    assert fd.lse_approx == pytest.approx(an.lse_approx, rel=1e-4)


def normal_cov_identity_check(rho, f, f_prime):
    """Residual of Cov(N, f(M)) = Cov(N, M) E f'(M) for correlated
    standard normals with Cov(N, M) = rho, both sides by a 96-point
    quadrature on [-14, 14]."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be a correlation")
    x, w = gauss_legendre(96)
    z = 14.0 * x
    w = 14.0 * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    m = z[:, None]
    n = rho * z[:, None] + math.sqrt(1.0 - rho ** 2) * z[None, :]
    w2 = w[:, None] * w[None, :]
    f_m = np.asarray(f(m), dtype=float) * np.ones_like(n)
    lhs = float((w2 * n * f_m).sum()) - float((w2 * n).sum()) * float((w2 * f_m).sum())
    rhs = rho * float(w @ np.asarray(f_prime(z), dtype=float))
    return abs(lhs - rhs)


def test_normal_covariance_identity():
    assert normal_cov_identity_check(0.9, lambda x: x,
                                     lambda x: np.ones_like(x)) <= 1e-12
    assert normal_cov_identity_check(0.3, lambda x: x ** 2,
                                     lambda x: 2 * x) <= 1e-12
    assert normal_cov_identity_check(-0.7, lambda x: x ** 3,
                                     lambda x: 3 * x ** 2) <= 1e-10
    assert normal_cov_identity_check(0.5, norm.cdf, norm.pdf) <= 1e-8
    with pytest.raises(ValueError):
        normal_cov_identity_check(1.5, lambda x: x, lambda x: np.ones_like(x))


def test_model_quadrature_needs_no_lapack_rule():
    # numpy's Gauss-Hermite rule starts from a LAPACK eigensolve.  With it
    # refused, in a fresh interpreter so that no rule is cached, the
    # hedge and covariance checks above must still pass as pinned.
    src = os.path.dirname(os.path.dirname(deflator.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tests = [f"{__file__}::{name}" for name in (
        "test_hedge_error_quadratic_payoff", "test_hedge_error_linear_payoff",
        "test_hedge_error_approximations_tighten_as_vol_shrinks",
        "test_normal_covariance_identity")]
    code = ("import sys, numpy.polynomial.hermite as hermite, pytest\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('LAPACK-based hermgauss called')\n"
            "hermite.hermgauss = refuse\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n")
    run = subprocess.run([sys.executable, "-c", code, *tests], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "4 passed" in run.stdout


# --------------------------------------------------------------------- GBM


def test_gbm_put_matches_cdf_integral_oracle():
    params = GBMParams(r=0.03, s=100.0, sigma=0.25, t=1.5)
    mu_log = math.log(params.s) + (params.r - 0.5 * params.sigma ** 2) * params.t
    vol = params.sigma * math.sqrt(params.t)
    xg, wg = np.polynomial.legendre.leggauss(200)
    for k in (70.0, 100.0, 140.0):
        # E (k - S)^+ = int_0^k P(S <= y) dy, independent of the formula
        y = 0.5 * k * (xg + 1.0)
        oracle = 0.5 * k * float(wg @ norm.cdf((np.log(y) - mu_log) / vol))
        assert gbm_put(params, k).forward_value == pytest.approx(oracle, rel=1e-12)


def test_gbm_put_greeks_match_finite_differences():
    params = GBMParams(r=0.04, s=100.0, sigma=0.3, t=0.75)
    k = 105.0
    h = 1e-4 * params.s
    pv = lambda s: gbm_put(GBMParams(params.r, s, params.sigma, params.t), k).pv
    quote = gbm_put(params, k)
    delta_fd = (pv(params.s + h) - pv(params.s - h)) / (2 * h)
    gamma_fd = (pv(params.s + h) - 2 * pv(params.s) + pv(params.s - h)) / h ** 2
    assert quote.delta == pytest.approx(delta_fd, rel=1e-6)
    assert quote.gamma == pytest.approx(gamma_fd, rel=1e-6)
    assert quote.pv == pytest.approx(math.exp(-params.r * params.t)
                                     * quote.forward_value, rel=1e-15)


def test_gbm_put_small_vol_limit_and_edge_cases():
    params = GBMParams(r=0.05, s=100.0, sigma=1e-6, t=1.0)
    f = params.forward
    intrinsic = gbm_put(params, 120.0).forward_value
    assert intrinsic == pytest.approx(120.0 - f, rel=1e-9)
    assert gbm_put(params, 90.0).forward_value <= 1e-12
    zero = gbm_put(params, 0.0)
    assert (zero.forward_value, zero.pv, zero.delta, zero.gamma) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        GBMParams(r=0.05, s=100.0, sigma=0.0, t=1.0)


# ------------------------------------------------- infinitely divisible laws


def three_node_law():
    return KolmogorovLaw(mean=0.4, nodes=np.array([-0.5, 0.0, 1.2]),
                         weights=np.array([0.3, 0.8, 0.1]))


def test_standard_normal_charfn():
    law = KolmogorovLaw.standard_normal()
    u = np.linspace(-10.0, 10.0, 41)
    assert np.allclose(law.charfn(u), np.exp(-0.5 * u * u), rtol=1e-14)
    assert law.variance == 1.0
    assert isinstance(law.charfn(0.7), complex)


def test_mean_shift_multiplies_charfn():
    base = three_node_law()
    shifted = KolmogorovLaw(mean=base.mean + 2.5, nodes=base.nodes,
                            weights=base.weights)
    u = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(shifted.charfn(u), np.exp(2.5j * u) * base.charfn(u),
                       rtol=1e-13)


def test_compound_poisson_exponent_closed_form():
    # single node at x with weight lam * x^2 is a compensated Poisson
    # stream of x-jumps: psi(u) = lam (e^{iux} - 1 - iux)
    lam, x = 0.7, 1.3
    law = KolmogorovLaw(mean=0.0, nodes=np.array([x]),
                        weights=np.array([lam * x * x]))
    u = np.linspace(-6.0, 6.0, 25)
    target = lam * (np.exp(1j * u * x) - 1.0 - 1j * u * x)
    assert np.allclose(law.char_exponent(u), target, atol=1e-13)


def test_char_exponent_series_matches_direct_across_threshold():
    # the small-|ux| series hands over to the direct formula at 0.5
    law = KolmogorovLaw(mean=0.1, nodes=np.array([1.0]), weights=np.array([0.6]))
    for u in (0.43, 0.499999, 0.5, 0.500001, 0.61):
        direct = 1j * u * 0.1 - u * u * 0.6 * (np.exp(1j * u) - 1 - 1j * u) / (1j * u) ** 2
        assert law.char_exponent(u) == pytest.approx(direct, abs=1e-15)


def full_series_exp_remainder(a):
    # models._exp_remainder as it was: the series runs on every |a| < 0.5,
    # zero included
    out = np.empty_like(a)
    small = np.abs(a) < 0.5
    big = a[~small]
    out[~small] = (np.exp(big) - 1.0 - big) / big ** 2
    a = a[small]
    term = acc = np.full(a.shape, 0.5, dtype=a.dtype)
    for n in range(3, 26):
        term = term * a / n
        acc = acc + term
    out[small] = acc
    return out


def test_exp_remainder_has_the_bits_of_the_full_series():
    # the node at zero skips the series; every output keeps its bytes,
    # for char_exponent's complex arguments and log_mgf's real ones
    rng = np.random.default_rng(31)
    nodes = np.array([0.0, -0.0, -0.3, 0.2, 0.45, 1e-9])
    arguments = [np.zeros(0), np.array([0.0, -0.0]), np.array([-0.3, 0.45]) * 3.0]
    for _ in range(300):
        x = rng.choice(nodes, size=rng.integers(1, 8))
        u = rng.uniform(0.0, 60.0, size=rng.integers(1, 40))
        u[rng.random(u.shape) < 0.1] = 0.0
        sigma = rng.choice([0.0, -0.0, rng.uniform(-4.0, 4.0)])
        arguments += [1j * u[:, None] * x, sigma * x]
    kinds = set()
    for a in arguments:
        got, want = models._exp_remainder(a), full_series_exp_remainder(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        kinds.add((a.dtype.kind, bool((a == 0).any()), bool(((a != 0) & (abs(a) < 0.5)).any())))
    assert kinds >= {(kind, zero, series) for kind in "fc"
                     for zero in (False, True) for series in (False, True)}


def test_moments_from_char_exponent():
    law = three_node_law()
    h = 1e-3
    psi = law.char_exponent(np.array([h, -h, 2 * h, -2 * h]))
    mean_fd = (8 * (psi[0] - psi[1]) - (psi[2] - psi[3])).imag / (12 * h)
    var_fd = -(16 * (psi[0] + psi[1]) - (psi[2] + psi[3])).real / (12 * h * h)
    assert mean_fd == pytest.approx(law.mean, abs=1e-10)
    assert var_fd == pytest.approx(law.variance, abs=1e-10)


def test_log_mgf_closed_forms():
    normal = KolmogorovLaw.standard_normal()
    assert normal.log_mgf(0.8) == pytest.approx(0.32, rel=1e-15)
    lam, x = 0.7, 1.3
    poisson = KolmogorovLaw(mean=0.0, nodes=np.array([x]),
                            weights=np.array([lam * x * x]))
    s = 0.45
    assert poisson.log_mgf(s) == pytest.approx(lam * (math.exp(s * x) - 1 - s * x),
                                               rel=1e-13)


def test_tilt_of_standard_normal_is_exact():
    sigma = 0.3
    tilted = KolmogorovLaw.standard_normal().tilt(sigma)
    assert tilted.mean == sigma                # the drift moves by sigma
    assert np.array_equal(tilted.nodes, np.array([0.0]))
    assert np.array_equal(tilted.weights, np.array([1.0]))  # law shape unchanged


def test_tilt_composition():
    # two tilts compose additively; bit-exact against the float sum
    sigma, tau = 0.2, 0.1
    normal = KolmogorovLaw.standard_normal()
    twice = normal.tilt(sigma).tilt(tau)
    once = normal.tilt(sigma + tau)
    assert twice.mean == once.mean
    assert np.array_equal(twice.weights, once.weights)

    law = three_node_law()
    a, b = law.tilt(sigma).tilt(tau), law.tilt(sigma + tau)
    assert a.mean == pytest.approx(b.mean, rel=1e-13)
    assert np.allclose(a.weights, b.weights, rtol=1e-13)


def test_zero_tilt_is_identity():
    law = three_node_law()
    same = law.tilt(0.0)
    assert same.mean == law.mean
    assert np.array_equal(same.weights, law.weights)


def test_tilted_mean_is_mgf_slope():
    law = three_node_law()
    s, h = 0.37, 1e-5
    slope = (law.log_mgf(s + h) - law.log_mgf(s - h)) / (2 * h)
    assert law.tilt(s).mean == pytest.approx(slope, abs=1e-9)


def test_tilted_mgf_identity():
    # log E* e^{tau X} = log_mgf(sigma + tau) - log_mgf(sigma)
    law = three_node_law()
    sigma, tau = 0.25, 0.6
    lhs = law.tilt(sigma).log_mgf(tau)
    rhs = law.log_mgf(sigma + tau) - law.log_mgf(sigma)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scale_time_scales_the_exponent():
    law = three_node_law()
    u = np.linspace(-7.0, 7.0, 11)
    scaled = law.scale_time(2.5)
    assert np.allclose(scaled.char_exponent(u), 2.5 * law.char_exponent(u),
                       rtol=1e-13)
    assert scaled.variance == pytest.approx(2.5 * law.variance, rel=1e-15)
    with pytest.raises(ValueError):
        law.scale_time(0.0)


def test_law_validation():
    with pytest.raises(ValueError):
        KolmogorovLaw(mean=0.0, nodes=np.array([1.0]), weights=np.array([-1.0]))
    with pytest.raises(DimensionMismatch):
        KolmogorovLaw(mean=0.0, nodes=np.array([1.0, 2.0]), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        KolmogorovLaw(mean=np.nan, nodes=np.array([np.inf]), weights=np.array([1.0]))


# ----------------------------------------------------------------- inversion


def test_inversion_recovers_the_normal_cdf():
    law = KolmogorovLaw.standard_normal()
    grid = np.linspace(-3.0, 3.0, 13)
    got = cdf_from_charfn(law.charfn, grid)
    assert np.abs(got - norm.cdf(grid)).max() <= 1e-10


def test_inversion_of_tilted_normal():
    sigma = 0.3
    law = KolmogorovLaw.standard_normal().tilt(sigma)
    grid = np.linspace(-2.0, 2.0, 9)
    got = cdf_from_charfn(law.charfn, grid)
    assert np.abs(got - norm.cdf(grid - sigma)).max() <= 1e-8


def test_inversion_output_is_a_cdf():
    lam, x = 0.7, 1.0
    law = KolmogorovLaw(mean=0.0, nodes=np.array([x]),
                        weights=np.array([lam * x * x]))
    grid = np.linspace(-8.0, 8.0, 15)
    got = cdf_from_charfn(law.charfn, grid, smoothing=0.05)
    assert (np.diff(got) >= 0).all()
    assert got[0] <= 1e-9 and got[-1] >= 1.0 - 1e-6
    assert (got >= 0).all() and (got <= 1).all()


def test_atomic_law_needs_smoothing():
    law = KolmogorovLaw(mean=1.0, nodes=np.array([0.0]), weights=np.array([0.0]))
    with pytest.raises(TruncationFailure):
        cdf_from_charfn(law.charfn, [1.0])
    # smoothed point mass is the normal cdf around the atom
    smoothed = cdf_from_charfn(law.charfn, [0.9, 1.0, 1.1], smoothing=0.05)
    assert smoothed[1] == pytest.approx(0.5, abs=1e-9)
    assert smoothed[0] == pytest.approx(norm.cdf(-2.0), rel=1e-6)
    with pytest.raises(ValueError):
        cdf_from_charfn(law.charfn, [1.0, 0.0], smoothing=0.05)


def test_smoothing_must_not_be_negative():
    # only smoothing^2 entered the inversion, so -0.5 priced as +0.5
    law = KolmogorovLaw.standard_normal()
    params = LevyModelParams(r=0.05, s=100.0, sigma=0.2, t=2.0, base=law)
    # an infinite width gave a negative put, -1.52 at the money
    for bad in (-0.5, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            cdf_from_charfn(law.charfn, [0.0], smoothing=bad)
        # at every strike, one <= 0 too
        for k in (100.0, 0.0):
            with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
                levy_put(params, k, smoothing=bad)
    assert cdf_from_charfn(law.charfn, [0.0], smoothing=0.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert math.isfinite(levy_put(params, 100.0, smoothing=0.5))


def quad_inversion(charfn, x_grid, smoothing=0.0):
    """The adaptive-quad inversion that cdf_from_charfn once was, one
    scipy quad per grid point, with its tolerances tightened to 1e-13 so
    that it can serve as an oracle at 1e-12."""
    phi = lambda u: charfn(u) * math.exp(-0.5 * (smoothing * u) ** 2)
    U = 1.0
    while max(abs(phi(U * (1.0 + j / 16.0))) for j in range(5)) > 1e-12:
        U *= 2.0
    integrals = [quad(lambda u: (np.exp(-1j * u * x) * phi(u)).imag / u, 0.0, U,
                      epsabs=1e-13, epsrel=1e-13, limit=800)[0] for x in x_grid]
    return np.maximum.accumulate(np.clip(0.5 - np.array(integrals) / math.pi, 0.0, 1.0))


@pytest.mark.parametrize("law, grid, smoothing", [
    (KolmogorovLaw.standard_normal(), np.linspace(-3.0, 3.0, 13), 0.0),
    (KolmogorovLaw.standard_normal().tilt(0.3), np.linspace(-2.0, 2.0, 9), 0.0),
    (KolmogorovLaw(mean=0.0, nodes=np.array([1.0]), weights=np.array([0.7])),
     np.linspace(-8.0, 8.0, 15), 0.05),
    (KolmogorovLaw(mean=1.0, nodes=np.array([0.0]), weights=np.array([0.0])),
     np.array([0.9, 1.0, 1.1]), 0.05),
], ids=["normal", "tilted", "poisson-smoothed", "atom-smoothed"])
def test_inversion_matches_adaptive_quad(law, grid, smoothing):
    got = cdf_from_charfn(law.charfn, grid, smoothing=smoothing)
    assert np.abs(got - quad_inversion(law.charfn, grid, smoothing)).max() <= 1e-12


def poisson_mixture_cdf(mean, nodes, weights, grid, counts=30):
    """Distribution function of the law with a Gaussian part (node 0) and
    jumps: X = mean + G + sum_i x_i (N_i - lam_i), G ~ N(0, w_0) and
    N_i ~ Poisson(lam_i), lam_i = w_i / x_i^2, summed over jump counts."""
    gauss, x, w = weights[0], nodes[1:], weights[1:]
    lam = w / x ** 2
    k = np.arange(counts)
    pmf = [np.exp(-r) * r ** k / np.cumprod(np.maximum(k, 1)) for r in lam]
    prob, centre = np.ones(1), np.array([mean - lam @ x])
    for node, p in zip(x, pmf):
        prob = np.outer(prob, p).ravel()
        centre = np.add.outer(centre, node * k).ravel()
    return ndtr((grid[:, None] - centre) / math.sqrt(gauss)) @ prob


@pytest.mark.parametrize("mean", [0.0, 0.7])
def test_inversion_matches_poisson_mixture(mean):
    nodes = np.array([0.0, -0.3, 0.2, 0.45])
    weights = np.array([0.05, 0.03, 0.01, 0.02])
    law = KolmogorovLaw(mean=mean, nodes=nodes, weights=weights)
    grid = mean + math.sqrt(law.variance) * np.linspace(-5.0, 5.0, 200)
    calls = []
    charfn = lambda u: calls.append(u) or law.charfn(u)
    got = cdf_from_charfn(charfn, grid)
    want = poisson_mixture_cdf(mean, nodes, weights, grid)
    assert np.abs(got - want).max() <= 1e-12
    # phi is evaluated on whole arrays of u: one call finds U, on all 100
    # candidates, and one call per rule evaluates it
    assert [np.size(u) for u in calls] == [100, 512, 1024]


def test_inversion_rule_has_a_node_cap():
    law = KolmogorovLaw.standard_normal()
    with pytest.raises(NonConvergence):
        cdf_from_charfn(law.charfn, [0.0, 1e6])


def doubling_cdf_from_charfn(charfn, x_grid, smoothing=0.0):
    """cdf_from_charfn as it was, with U doubled one phi call at a time."""
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))

    def phi(u):
        out = charfn(u)
        if smoothing:
            out = out * np.exp(-0.5 * (smoothing * u) ** 2)
        return out

    probe = 1.0 + np.arange(5) / 16.0
    U = 1.0
    while np.abs(phi(U * probe)).max() > 1e-12:
        U *= 2.0
        if U > 1e6:
            raise TruncationFailure(
                "|charfn| does not decay below 1e-12 by 1e6; "
                "set a smoothing width for laws with atoms")

    def integrate(u, w):
        g = phi(u) * w / u
        out = np.empty(x_grid.shape)
        rows = max(1, models._BLOCK // u.size)
        for i in range(0, x_grid.size, rows):
            ux = np.multiply.outer(x_grid[i:i + rows], u)
            out[i:i + rows] = (np.cos(ux) * g.imag
                               - np.sin(ux) * g.real).sum(axis=1)
        return out

    integral = composite_gauss_legendre(integrate, 0.0, U, 1e-11,
                                        panels=max(1, int(U) // 2))
    out = 0.5 - integral / math.pi
    return np.maximum.accumulate(np.clip(out, 0.0, 1.0))


def random_law(rng, gauss=None):
    """A Kolmogorov law with or without a Gaussian part and 0 to 4 jump
    nodes, at a time scale from 0.01 to 10."""
    if gauss is None:
        gauss = rng.random() < 0.5
    nodes = np.concatenate([[0.0] if gauss else [],
                            rng.uniform(-1.0, 1.0, int(rng.integers(0, 5)))])
    law = KolmogorovLaw(mean=rng.normal(), nodes=nodes,
                        weights=rng.uniform(0.0, 0.1, nodes.size))
    return law.scale_time(10.0 ** rng.uniform(-2.0, 1.0))


def inversion_outcome(cdf, law, grid, smoothing):
    try:
        return cdf(law.charfn, grid, smoothing).tobytes()
    except (TruncationFailure, NonConvergence) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
def test_one_truncation_call_keeps_the_bytes_of_the_doubling_loop():
    # U is found by one phi call on all 100 candidates, not up to 20
    # calls of 5; the cdf keeps its bytes, or the same exception is raised
    rng = np.random.default_rng(26)
    seen = set()
    for _ in range(40):
        law = random_law(rng)
        smoothing = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 0.0)
        size = int(rng.choice([1, 200, rng.integers(2, 200)]))
        sd = math.sqrt(law.variance + smoothing ** 2)
        grid = law.mean + sd * np.sort(rng.uniform(-5.0, 5.0, size))
        got = inversion_outcome(cdf_from_charfn, law, grid, smoothing)
        assert got == inversion_outcome(doubling_cdf_from_charfn, law, grid, smoothing)
        seen.add((bool((law.nodes == 0.0).any()), smoothing > 0,
                  isinstance(got, bytes)))
    # every kind of law is drawn, and both inversions and failures occur
    assert {(g, s) for g, s, _ in seen} == {(g, s) for g in (False, True)
                                            for s in (False, True)}
    assert {ok for _, _, ok in seen} == {False, True}


JUMP_LAW = KolmogorovLaw(mean=0.0, nodes=np.array([0.0, -0.3, 0.2, 0.45]),
                         weights=np.array([0.05, 0.03, 0.01, 0.02]))


def inversion_grids():
    """(law, grid) pairs: the 200-point grids of the jump law above and
    of the standard normal law over +-3 standard deviations, 37 points
    of the jump law, and the 33 Gauss-Legendre thresholds of the CLI's
    put check at strike 100 for both laws."""
    grids = []
    z = gauss_legendre(33)[0]
    for law in (JUMP_LAW, KolmogorovLaw.standard_normal()):
        grids.append((law, math.sqrt(law.variance) * np.linspace(-3.0, 3.0, 200)))
        params = LevyModelParams(r=0.05, s=100.0, sigma=0.2, t=2.0, base=law)
        y = 50.0 * (z + 1.0)
        thresholds = (np.log(y / params.s) - params.drift * params.t) / params.sigma
        grids.append((law.scale_time(params.t), thresholds))
    grids.append((JUMP_LAW, np.linspace(-1.0, 1.0, 37)))
    return grids


def test_inversion_bytes_do_not_depend_on_the_block(monkeypatch):
    # each row of the e^{-iux} sum is summed whole, so blocks of 1 row,
    # of 2^14 and of 2^17 entries give the same bytes, also where the
    # grid is not a whole number of blocks
    grids = inversion_grids()
    partial = 0
    for law, grid in grids:
        got = {}
        for block in (1, 2 ** 14, 2 ** 17):
            monkeypatch.setattr(models, "_BLOCK", block)
            sizes = []
            got[block] = cdf_from_charfn(lambda u: sizes.append(u.size) or law.charfn(u),
                                         grid).tobytes()
            if block == 2 ** 14:
                # the first call finds U; each later one evaluates a rule
                partial += any(grid.size % max(1, block // n) for n in sizes[1:])
        assert got[2 ** 14] == got[1] and got[2 ** 17] == got[1]
    assert partial == len(grids)


def test_inversion_of_a_200_point_grid_stays_within_a_mebibyte():
    # the e^{-iux} temporaries of one block are 128 KiB each: the jump
    # law's 200-point grid peaks under 1 MiB of traced memory
    law, grid = inversion_grids()[0]
    cdf_from_charfn(law.charfn, grid)
    tracemalloc.start()
    try:
        cdf_from_charfn(law.charfn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(deflator.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, deflator, deflator.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------- Levy puts


def test_levy_put_with_gaussian_base_is_lognormal():
    gbm = GBMParams(r=0.05, s=100.0, sigma=0.2, t=2.0)
    levy = LevyModelParams(r=0.05, s=100.0, sigma=0.2, t=2.0,
                           base=KolmogorovLaw.standard_normal())
    for k in (80.0, 100.0, 125.0):
        assert levy_put(levy, k) == pytest.approx(gbm_put(gbm, k).forward_value,
                                                  rel=1e-12)


def test_levy_put_martingale_drift():
    base = KolmogorovLaw(mean=0.0, nodes=np.array([0.4]), weights=np.array([0.25]))
    params = LevyModelParams(r=0.02, s=100.0, sigma=0.5, t=1.0, base=base)
    assert params.drift == pytest.approx(0.02 - base.log_mgf(0.5), rel=1e-15)


def test_levy_put_is_its_two_public_inversions_byte_for_byte():
    rng = np.random.default_rng(126)
    for _ in range(24):
        base = random_law(rng, gauss=rng.random() < 0.7)
        gauss = bool((base.nodes == 0.0).any())
        smoothing = 0.0 if gauss and rng.random() < 0.5 else 10.0 ** rng.uniform(-2.0, -0.5)
        params = LevyModelParams(r=rng.uniform(-0.02, 0.08), s=rng.uniform(50.0, 150.0),
                                 sigma=rng.uniform(0.05, 0.6), t=rng.uniform(0.1, 3.0),
                                 base=base)
        k = params.s * math.exp(params.r * params.t) * rng.uniform(0.7, 1.3)
        threshold = (math.log(k / params.s) - params.drift * params.t) / params.sigma
        law_t = base.scale_time(params.t)
        want = float(k * cdf_from_charfn(law_t.charfn, [threshold], smoothing)[0]
                     - params.s * math.exp(params.r * params.t)
                     * cdf_from_charfn(law_t.tilt(params.sigma).charfn, [threshold],
                                       smoothing)[0])
        got = levy_put(params, k, smoothing)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def jump_put_params():
    base = KolmogorovLaw(mean=0.0, nodes=np.array([0.0, -0.3, 0.2, 0.45]),
                         weights=np.array([0.05, 0.03, 0.01, 0.02]))
    return LevyModelParams(r=0.03, s=100.0, sigma=0.25, t=1.0, base=base)


def test_levy_put_computes_each_kernel_once_within_one_call(monkeypatch):
    kernels = []

    def counting(a):
        if np.iscomplexobj(a):      # char_exponent's; log_mgf's are real
            kernels.append(a.shape)
        return exp_remainder(a)

    exp_remainder = models._exp_remainder
    monkeypatch.setattr(models, "_exp_remainder", counting)
    params = jump_put_params()
    first = levy_put(params, 97.0)
    # the plain and tilted laws share one probe call and two rules
    assert kernels == [(4, 100), (4, 512), (4, 1024)]
    # the next call starts from an empty table, and its bytes do not move
    assert levy_put(params, 97.0) == first
    assert kernels[3:] == kernels[:3]
    # outside levy_put nothing is shared
    law = params.base
    law.char_exponent(np.arange(3.0))
    law.tilt(0.25).char_exponent(np.arange(3.0))
    assert kernels[6:] == [(4, 3), (4, 3)]


def test_levy_put_drops_its_table_when_an_inversion_fails():
    atom = KolmogorovLaw(mean=0.1, nodes=np.array([0.0]), weights=np.array([0.0]))
    params = LevyModelParams(r=0.02, s=100.0, sigma=0.3, t=1.0, base=atom)
    with pytest.raises(TruncationFailure):
        levy_put(params, 100.0)


def test_levy_put_deep_in_the_money_dominance():
    base = KolmogorovLaw(mean=0.0, nodes=np.array([0.4]), weights=np.array([0.25]))
    params = LevyModelParams(r=0.02, s=100.0, sigma=0.5, t=1.0, base=base)
    k = 1000.0
    forward = params.s * math.exp(params.r * params.t)
    value = levy_put(params, k, smoothing=0.02)
    assert value == pytest.approx(k - forward, abs=1e-5)
    assert value >= k - forward - 1e-9   # Jensen floor
    assert levy_put(params, 0.0) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_parameters_must_be_finite(bad):
    # a NaN passed every comparison: bachelier_put gave PutQuote(nan, nan)
    # and gbm_put with r = nan all NaN
    law = KolmogorovLaw.standard_normal()
    for make in (lambda: BachelierParams(bad, 100.0, 0.2),
                 lambda: BachelierParams(1.0, 100.0, bad),
                 lambda: GBMParams(bad, 100.0, 0.2, 1.0),
                 lambda: GBMParams(0.05, 100.0, 0.2, bad),
                 lambda: LevyModelParams(bad, 100.0, 0.2, 1.0, law),
                 lambda: LevyModelParams(0.05, 100.0, bad, 1.0, law),
                 lambda: KolmogorovLaw(mean=bad, nodes=[0.0], weights=[1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_strikes_and_grid_points_must_be_finite(bad):
    # a NaN strike gave an all-NaN quote, an infinite one an infinite
    # forward value, and a NaN or infinite grid point ran the inversion
    # to its node cap before NonConvergence
    law = KolmogorovLaw.standard_normal()
    for call in (lambda: bachelier_put(BachelierParams(1.05, 100.0, 0.2), bad),
                 lambda: gbm_put(GBMParams(0.03, 100.0, 0.2, 1.0), bad),
                 lambda: levy_put(LevyModelParams(0.03, 100.0, 0.2, 1.0, law), bad)):
        with pytest.raises(ValueError, match="the strike must be finite"):
            call()
    with pytest.raises(ValueError, match="x_grid must be finite"):
        cdf_from_charfn(law.charfn, [0.0, bad])
    assert gbm_put(GBMParams(0.03, 100.0, 0.2, 1.0), 0.0).forward_value == 0.0
    assert levy_put(LevyModelParams(0.03, 100.0, 0.2, 1.0, law), -1.0) == 0.0
