"""Cone projection and the arbitrage/deflator dichotomy.

The nonnegative least squares solver is checked against
scipy.optimize.nnls, and the market-level verdicts against first
principles: a certificate must cost money to refuse (negative setup
cost, no losing outcome) and a deflator must reproduce every quoted
price.
"""

import numpy as np
import pytest
import scipy.optimize

from deflator import (
    DEFAULT_TOL,
    Deflator,
    DimensionMismatch,
    NonConvergence,
    OnePeriodMarket,
    certificate_from_projection,
    deflator_from_projection,
    find_arbitrage,
    nnls,
    project_to_cone,
    verify_position,
)
from deflator import cone


def random_market(rng, with_labels=False):
    m = rng.integers(1, 6)
    n = rng.integers(m, 13)
    payoffs = rng.normal(size=(n, m)) * rng.lognormal(size=(n, m))
    if rng.random() < 0.5:
        # prices inside the cone by construction
        prices = payoffs.T @ rng.uniform(0.0, 1.0, size=n)
    else:
        prices = rng.normal(size=m) * 10.0
    labels = tuple(f"w{i}" for i in range(n)) if with_labels else None
    return OnePeriodMarket(prices=prices, payoffs=payoffs, labels=labels)


# ---------------------------------------------------------------------------
# nnls against the scipy reference


def test_nnls_matches_scipy_on_random_problems():
    """Never worse than the scipy reference, and equal where scipy is
    self-consistent.

    scipy 1.15's rewritten nnls sometimes reports a residual its own
    solution does not achieve, so the reference residual is recomputed
    from the reference solution rather than trusted as returned.
    """
    rng = np.random.default_rng(123 * 7)
    agreements = 0
    for _ in range(300):
        m, n = rng.integers(1, 8), rng.integers(1, 8)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        w, rnorm = nnls(A, b)
        w_ref, rnorm_claimed = scipy.optimize.nnls(A, b)
        rnorm_ref = np.linalg.norm(A @ w_ref - b)
        assert w.min() >= 0.0
        assert rnorm == pytest.approx(np.linalg.norm(A @ w - b), abs=1e-12)
        assert rnorm <= rnorm_ref + 1e-9
        if abs(rnorm_ref - rnorm_claimed) <= 1e-10:
            assert rnorm == pytest.approx(rnorm_ref, abs=1e-8, rel=1e-8)
            agreements += 1
    assert agreements > 250


def test_nnls_kkt_conditions():
    rng = np.random.default_rng(99)
    for _ in range(200):
        A = rng.normal(size=(rng.integers(2, 10), rng.integers(2, 10)))
        b = rng.normal(size=A.shape[0])
        w, _ = nnls(A, b)
        grad = A.T @ (b - A @ w)
        scale = max(np.abs(A.T @ b).max(), 1.0)
        assert grad.max() <= 1e-8 * scale          # dual feasibility
        assert abs(w @ grad) <= 1e-8 * scale       # complementary slackness


def test_nnls_exact_when_unconstrained_solution_is_nonnegative():
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.array([4.0, 9.0])
    w, rnorm = nnls(A, b)
    np.testing.assert_allclose(w, [2.0, 3.0], atol=1e-12)
    assert rnorm == pytest.approx(0.0, abs=1e-12)


def test_nnls_clamps_negative_directions():
    # best nonnegative fit to a negative target along one column is zero
    A = np.array([[1.0], [1.0]])
    b = np.array([-1.0, -2.0])
    w, rnorm = nnls(A, b)
    assert w[0] == 0.0
    assert rnorm == pytest.approx(np.hypot(1.0, 2.0))


# ---------------------------------------------------------------------------
# projection geometry


def test_projection_orthogonality_and_residual():
    rng = np.random.default_rng(7)
    for _ in range(100):
        market = random_market(rng)
        proj = project_to_cone(market)
        gap = proj.x_star - market.prices
        scale = 1.0 + np.linalg.norm(market.prices)
        # nearest-point characterization: the gap is orthogonal to the
        # projection and points away from every generator
        assert abs(gap @ proj.x_star) <= 1e-8 * scale ** 2
        assert (market.payoffs @ gap).min() >= -1e-8 * scale
        assert proj.residual_norm == pytest.approx(np.linalg.norm(gap), abs=1e-12)


def test_projection_weights_reprice_inside_markets():
    payoffs = np.array([[1.0, 90.0], [1.0, 110.0]])
    prices = payoffs.T @ np.array([0.3, 0.6])
    market = OnePeriodMarket(prices=prices, payoffs=payoffs)
    proj = project_to_cone(market)
    np.testing.assert_allclose(payoffs.T @ proj.weights, prices, atol=1e-10)
    assert proj.residual_norm <= 1e-10


# ---------------------------------------------------------------------------
# the dichotomy


def test_exactly_one_of_certificate_or_deflator():
    rng = np.random.default_rng(20_26)
    seen = {True: 0, False: 0}
    for _ in range(500):
        market = random_market(rng)
        certificate = find_arbitrage(market)
        projection = project_to_cone(market)
        deflator = deflator_from_projection(projection)
        assert (certificate is None) != (deflator is None)
        # one projection gives the same verdict and witness
        again = certificate_from_projection(projection, market)
        assert (again is None) == (certificate is None)
        if certificate is not None:
            np.testing.assert_array_equal(again.gamma, certificate.gamma)
            assert again.setup_gain == certificate.setup_gain
        seen[certificate is None] += 1
        if certificate is not None:
            report = verify_position(market, certificate.gamma, tol=1e-7)
            assert report.is_arbitrage
            assert certificate.setup_gain > 0.0
        else:
            np.testing.assert_allclose(
                market.payoffs.T @ deflator.atom_weights, market.prices,
                atol=1e-9 * (1.0 + np.abs(market.prices).max()))
    # the generator must exercise both branches for this test to mean much
    assert min(seen.values()) > 50


def test_certificate_is_unit_norm_and_scales_with_market():
    """Doubling all prices and payoffs doubles the certificate's gain."""
    prices = np.array([100.0, 9.1])
    omegas = np.arange(0.0, 111.0, 10.0)
    payoffs = np.column_stack([omegas, np.maximum(omegas - 100.0, 0.0)])
    base = find_arbitrage(OnePeriodMarket(prices=prices, payoffs=payoffs))
    doubled = find_arbitrage(OnePeriodMarket(prices=2 * prices, payoffs=2 * payoffs))
    assert np.linalg.norm(base.gamma) == pytest.approx(1.0, abs=1e-12)
    assert doubled.setup_gain == pytest.approx(2 * base.setup_gain, rel=1e-9)


def test_zero_payoff_instrument_with_positive_price_is_arbitrage():
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.zeros((3, 1)))
    certificate = find_arbitrage(market)
    assert certificate is not None
    assert certificate.gamma[0] == pytest.approx(-1.0)


def test_single_fair_bond_has_deflator():
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.array([[1.05], [1.05]]))
    assert find_arbitrage(market) is None
    deflator = deflator_from_projection(project_to_cone(market))
    assert deflator.mass == pytest.approx(1 / 1.05)


# ---------------------------------------------------------------------------
# position verification


def test_verify_position_flags_the_textbook_butterfly():
    omegas = np.array([90.0, 95.0, 100.0, 105.0, 110.0])
    market = OnePeriodMarket(
        prices=np.array([1.0, 100.0, 6.0]),
        payoffs=np.column_stack([np.ones(5), omegas,
                                 np.maximum(omegas - 100.0, 0.0)]))
    report = verify_position(market, [-90.0, 1.0, -2.0])
    assert report.cost == -2.0
    assert report.min_payoff == 0.0
    assert report.is_arbitrage


def test_verify_position_rejects_costly_positions():
    market = OnePeriodMarket(prices=np.array([1.0, 100.0]),
                             payoffs=np.array([[1.05, 90.0], [1.05, 120.0]]))
    report = verify_position(market, [1.0, 0.0])
    assert not report.is_arbitrage
    assert report.cost == 1.0


def test_verify_position_accepts_certificates_of_large_markets():
    """At scale 1e6 a valid certificate's least payoff is rounding noise
    of order 1e-9, which an absolute tolerance of 1e-9 would refuse."""
    rng = np.random.default_rng(5)
    noisy = 0
    for _ in range(1000):
        base = random_market(rng)
        market = OnePeriodMarket(prices=1e6 * base.prices, payoffs=1e6 * base.payoffs)
        certificate = find_arbitrage(market)
        if certificate is None:
            continue
        assert verify_position(market, certificate.gamma).is_arbitrage
        noisy += certificate.min_payoff < -1e-9
    assert noisy >= 20


def payoffs_near_250():
    return OnePeriodMarket(prices=np.array([1.0, 250.0]),
                           payoffs=np.array([[1.05, 240.0], [1.05, 250.0]]))


def test_verify_position_slack_is_relative_to_the_market():
    # short 0.004 stock against (almost) enough bond: it loses 1.7e-7
    # in the up state, 7e-10 of the payoff scale
    market = payoffs_near_250()
    gamma = np.array([(1.0 - 1.7e-7) / 1.05, -0.004])
    report = verify_position(market, gamma)
    assert report.min_payoff == pytest.approx(-1.7e-7, rel=1e-6)
    assert report.cost < -0.04
    assert report.is_arbitrage


def test_verify_position_rejects_a_loss_of_a_thousandth_of_scale():
    for scale in (1e-6, 1.0, 1e6):
        base = payoffs_near_250()
        market = OnePeriodMarket(prices=scale * base.prices,
                                 payoffs=scale * base.payoffs)
        gamma = np.array([(1.0 - 0.25) / 1.05, -0.004])
        report = verify_position(market, gamma)
        assert report.min_payoff == pytest.approx(-0.25 * scale)
        assert report.cost < 0.0
        assert not report.is_arbitrage


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        OnePeriodMarket(prices=np.array([1.0, 2.0]),
                        payoffs=np.array([[1.0], [2.0]]))
    market = OnePeriodMarket(prices=np.array([1.0]),
                             payoffs=np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        verify_position(market, [1.0, 2.0])
    with pytest.raises(ValueError):
        OnePeriodMarket(prices=np.array([np.nan]),
                        payoffs=np.array([[1.0]]))
    with pytest.raises(ValueError):
        Deflator(atom_weights=np.array([0.5, -0.1]))


def test_deflator_requires_nonnegative_weights_and_reports_mass():
    deflator = Deflator(atom_weights=np.array([0.25, 0.5]))
    assert deflator.mass == 0.75


# ---------------------------------------------------------------------------
# the stacked solver of the tree search


def stacked_problems(seed, kind, m, k, scale, p=8):
    """p problems A (m, k), b (m,); about half of the b inside the cone."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, m, k))
    if kind == "duplicated" and k > 1:
        A[:, :, -1] = A[:, :, 0]
    elif kind == "collinear" and k > 2:
        A[:, :, -1] = 2.5 * A[:, :, 0] - 0.5 * A[:, :, 1]
    elif kind == "zero":
        A[:, :, 0] = 0.0
    b = rng.normal(size=(p, m))
    inside = rng.random(p) < 0.5
    b[inside] = np.einsum("pmk,pk->pm", A[inside],
                          rng.uniform(0.0, 1.0, size=(int(inside.sum()), k)))
    return scale * A, scale * b


def test_stacked_nnls_agrees_with_nnls():
    rng = np.random.default_rng(17)
    kinds = ["random", "duplicated", "collinear", "zero"]
    for _ in range(150):
        seed = int(rng.integers(2 ** 32))
        kind = kinds[int(rng.integers(len(kinds)))]
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        check_stacked_nnls(seed, kind, m, k, exponent=int(rng.integers(-6, 7)))


def check_stacked_nnls(seed, kind, m, k, exponent):
    A, b = stacked_problems(seed, kind, m, k, 10.0 ** exponent)
    W, R = cone._nnls_stack(A, b)
    rows = A.transpose(0, 2, 1).reshape(-1, m)
    weights, inside = cone._project_stack(rows, np.arange(len(rows)).reshape(-1, k), b)
    eps = np.finfo(float).eps
    for i in range(len(b)):
        a = A[i]
        w, r = nnls(a, b[i])
        threshold = DEFAULT_TOL * (1.0 + np.linalg.norm(b[i]))
        # the same verdict, and residuals within the tolerance
        assert (R[i] <= threshold) == (r <= threshold)
        assert abs(R[i] - r) <= threshold
        # rounding noise of b - A w, in units of its terms
        noise = eps * max(m, k) * (np.abs(b[i]).max() + np.abs(a).max() * W[i].sum())
        assert abs(R[i] - np.linalg.norm(b[i] - a @ W[i])) <= 100.0 * noise
        # KKT: w >= 0, no ascent direction off the support, a flat
        # gradient on it; nnls's own stopping tolerance bounds the first
        assert (W[i] >= 0.0).all()
        g = a.T @ (b[i] - a @ W[i])
        unit = np.abs(a).max() * noise
        stop = 10.0 * eps * max(m, k) * max(np.abs(a.T @ b[i]).max(), 1.0)
        assert g.max() <= 100.0 * max(stop, unit)
        assert np.abs(g[W[i] > 0.0]).max(initial=0.0) <= 100.0 * unit
        # the level verdict is project_to_cone's, and an inside verdict
        # comes with weights that reprice within the threshold
        market = OnePeriodMarket(prices=b[i], payoffs=a.T)
        single = certificate_from_projection(project_to_cone(market), market)
        if inside[i]:
            assert (weights[i] >= 0.0).all()
            assert np.linalg.norm(a @ weights[i] - b[i]) <= threshold
        if inside[i] != (single is None):
            # only the square solve may disagree, where nnls stops early
            # (its stationarity floor on small markets): the exact
            # projection of scipy sides with the square solve
            assert inside[i] and k == m
            w_ref, _ = scipy.optimize.nnls(a, b[i])
            assert np.linalg.norm(a @ w_ref - b[i]) <= threshold


def test_stacked_lstsq_solves_on_the_passive_columns():
    rng = np.random.default_rng(4)
    A, b = stacked_problems(4, "duplicated", 5, 40, 1.0, p=16)
    passive = rng.random((16, 40)) < rng.uniform(0.02, 0.3, (16, 1))
    passive[:, 0] = passive[:, -1] = True    # duplicated columns, both used
    z = cone._lstsq_stack(A, b, passive)
    for i in range(16):
        want = np.zeros(40)
        want[passive[i]] = np.linalg.lstsq(A[i][:, passive[i]], b[i], rcond=None)[0]
        np.testing.assert_allclose(z[i], want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


def solves_needed(a, b):
    """The least maxiter with which nnls solves (a, b)."""
    cap = 1
    while True:
        try:
            nnls(a, b, maxiter=cap)
            return cap
        except NonConvergence:
            cap += 1


def test_stacked_nnls_raises_nonconvergence_like_nnls():
    A, b = stacked_problems(11, "random", 4, 6, 1.0)
    need = np.array([solves_needed(A[i], b[i]) for i in range(len(b))])
    cap = int(need.max()) - 1
    fast = np.flatnonzero(need <= cap)
    assert 0 < fast.size < len(b)
    # one slow problem is enough to stop the whole stack
    with pytest.raises(NonConvergence):
        cone._nnls_stack(A, b, maxiter=cap)
    W, _ = cone._nnls_stack(A[fast], b[fast], maxiter=cap)
    for i, w in zip(fast, W):
        np.testing.assert_allclose(w, nnls(A[i], b[i])[0], atol=1e-12)
