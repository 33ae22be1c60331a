"""One-period markets, cone projection and arbitrage certificates.

A one-period market quotes a price vector ``x`` (one entry per
instrument) and a payoff matrix with one row per terminal outcome.  The
market admits no arbitrage exactly when ``x`` lies in the closed convex
cone generated by the payoff rows; in that case the nonnegative cone
coordinates are a price deflator (state prices).  When ``x`` is outside
the cone, the gap vector between ``x`` and its nearest cone point is an
arbitrage: it has negative cost and nonnegative payoff in every outcome.

The projection is computed by nonnegative least squares, so one solve
yields either the deflator or the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonConvergence

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OnePeriodMarket:
    """Prices now and payoffs one period later.

    prices   : array (m,), price of each instrument at time 0.
    payoffs  : array (N, m), row j holds every instrument's payoff in
               terminal outcome j.
    labels   : optional outcome names, used when reporting deflator
               weights atom by atom.
    """

    prices: np.ndarray
    payoffs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        prices = np.atleast_1d(np.asarray(self.prices, dtype=float))
        payoffs = np.atleast_2d(np.asarray(self.payoffs, dtype=float))
        if prices.ndim != 1 or payoffs.ndim != 2:
            raise DimensionMismatch("prices must be a vector and payoffs a matrix")
        if payoffs.shape[1] != prices.shape[0]:
            raise DimensionMismatch(
                f"payoff rows have {payoffs.shape[1]} entries but there are "
                f"{prices.shape[0]} prices")
        if not (np.isfinite(prices).all() and np.isfinite(payoffs).all()):
            raise ValueError("prices and payoffs must be finite")
        if self.labels is not None and len(self.labels) != payoffs.shape[0]:
            raise DimensionMismatch("one label per outcome required")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def n_instruments(self) -> int:
        return self.prices.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.payoffs.shape[0]


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A position gamma with gamma . x < 0 and nonnegative payoffs.

    gamma is scaled to unit euclidean norm, so setup_gain equals the
    distance from the price vector to the payoff cone and scales
    linearly when the whole market is scaled.
    """

    gamma: np.ndarray
    setup_gain: float
    min_payoff: float


@dataclass(frozen=True)
class ConeProjection:
    """Nearest point of the payoff cone to the price vector, and the
    verdict it gives.

    weights       : nonnegative cone coordinates, one per outcome.
    x_star        : the projected price vector, payoffs.T @ weights.
    residual_norm : euclidean distance from prices to x_star.
    prices        : the vector that was projected.
    certificate   : the arbitrage, or None when the prices are inside
                    the payoff cone (within the threshold).
    """

    weights: np.ndarray
    x_star: np.ndarray
    residual_norm: float
    prices: np.ndarray
    certificate: ArbitrageCertificate | None


@dataclass(frozen=True)
class Deflator:
    """Nonnegative outcome weights that reprice the market.

    atom_weights[j] is the price today of one unit paid in outcome j.
    """

    atom_weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.atom_weights, dtype=float))
        if w.ndim != 1 or not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("atom weights must be finite and nonnegative")
        object.__setattr__(self, "atom_weights", w)

    @property
    def mass(self) -> float:
        """Total weight; the price of one unit paid in every outcome."""
        return float(self.atom_weights.sum())


def nnls(A, b, maxiter=None):
    """Solve min ||A @ w - b|| subject to w >= 0 by an active set sweep.

    Lawson and Hanson's method (Solving Least Squares Problems, 1974,
    ch. 23-24) on a thin QR factor of the passive columns: an entering
    column is appended by Gram-Schmidt with one reorthogonalisation,
    leaving columns are removed by Givens rotations, and each
    subproblem is one triangular solve.  An entering column whose new
    diagonal entry of R is at most 10 * eps * max(m, n) * ||A_j|| lies
    in the span of the passive columns; it is blocked without a solve.
    Once the sweep stops, the final passive set is solved again by
    np.linalg.lstsq, and that solution is returned when it is
    nonnegative.

    Parameters
    ----------
    A : ndarray (m, n)
    b : ndarray (m,)
    maxiter : int, optional
        Cap on least squares subproblem solves.  Defaults to
        10 * max(m, n); exceeding it raises NonConvergence.

    The stopping rule is relative, so the verdict does not change when
    A and b are rescaled: stop once every column j off the support has
    A_j . r <= 10 * eps * max(m, n) * ||A_j|| * ||r||, r = b - A @ w,
    or once ||r|| <= 10 * eps * max(m, n) * ||b||.

    Returns
    -------
    w : ndarray (n,), the nonnegative solution.
    rnorm : float, ||A @ w - b||.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatch("nnls needs A (m, n) and b (m,)")
    m, n = A.shape
    if maxiter is None:
        maxiter = 10 * max(m, n)
    rel = 10.0 * np.finfo(float).eps * max(m, n)
    col_norm = np.sqrt(np.einsum("ij,ij->j", A, A))
    r_floor = rel * np.linalg.norm(b)

    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    # entries rejected at the current iterate (dependent columns and
    # zero steps); cleared whenever w actually moves
    blocked = np.zeros(n, dtype=bool)
    # A[:, cols] = Qt[:k].T @ R[:k, :k], the passive columns in the
    # order they entered
    Qt, R = np.zeros((min(m, n), m)), np.zeros((min(m, n), min(m, n)))
    cols = np.zeros(0, dtype=int)
    solves = 0
    grad = A.T @ b
    rnorm = float(np.linalg.norm(b))
    while True:
        if rnorm <= r_floor:
            break
        above = (grad > rel * col_norm * rnorm) & ~passive & ~blocked
        if not above.any():
            break
        enter = np.flatnonzero(above)[np.argmax(grad[above])]
        if not _qr_append(Qt, R, cols.size, A[:, enter], rel * col_norm[enter]):
            # in the span of the passive columns: it cannot improve the
            # fit, and w does not move, so the gradient stands
            blocked[enter] = True
            continue
        cols = np.append(cols, enter)
        passive[enter] = True
        moved = False
        # Inner loop: solve unconstrained on the passive set, and walk
        # back toward the previous iterate whenever that solution is
        # infeasible, retiring the coordinates pinned at zero.
        while True:
            solves += 1
            if solves > maxiter:
                raise NonConvergence(
                    f"nnls did not converge within {maxiter} subproblem solves")
            k = cols.size
            # R is upper triangular, so LU does no row exchanges and
            # this is back substitution
            z = np.linalg.solve(R[:k, :k], Qt[:k] @ b)
            if z.min() > 0.0:
                w[cols] = z
                blocked[:] = False
                moved = True
                break
            wp = w[cols]
            ratios = np.full(k, np.inf)
            limiting = (z <= 0.0) & (wp - z > 0.0)
            ratios[limiting] = wp[limiting] / (wp[limiting] - z[limiting])
            alpha = float(ratios.min())
            if alpha == 0.0:
                # zero step: the fresh entry cannot improve the fit, so
                # reject it outright instead of cycling on it
                drop = cols == enter
            else:
                w[cols] = wp + alpha * (z - wp)
                drop = (ratios <= alpha) | (w[cols] <= 0.0)
                moved = True
            w[cols[drop]] = 0.0
            passive[cols[drop]] = False
            for i in np.flatnonzero(drop)[::-1]:
                _qr_drop(Qt, R, k, i)
                k -= 1
            cols = cols[~drop]
            if alpha == 0.0:
                blocked[enter] = True
                break
        if not moved:
            continue
        r = b - A[:, cols] @ w[cols]
        rnorm = float(np.linalg.norm(r))
        grad = A.T @ r
    if cols.size:
        order = np.sort(cols)
        z = np.linalg.lstsq(A[:, order], b, rcond=None)[0]
        if z.min() >= 0.0:
            w[:] = 0.0
            w[order] = z
    rnorm = float(np.linalg.norm(b - A @ w))
    return w, rnorm


def _qr_append(Qt, R, k, a, cutoff) -> bool:
    """Append column a to the thin QR factor Qt[:k].T @ R[:k, :k] by
    Gram-Schmidt with one reorthogonalisation.  Returns False, and
    leaves the factor as it was, when the new diagonal entry of R would
    be at most cutoff (or the factor is already square)."""
    if k == Qt.shape[1]:
        return False
    Q = Qt[:k]
    h = Q @ a
    v = a - Q.T @ h
    h2 = Q @ v
    v -= Q.T @ h2
    d = float(np.linalg.norm(v))
    if d <= cutoff:
        return False
    Qt[k] = v / d
    R[:k, k] = h + h2
    R[k, k] = d
    return True


def _qr_drop(Qt, R, k, i) -> None:
    """Remove column i of the k-column thin QR factor Qt[:k].T @ R[:k, :k]
    in place: shift the later columns left, then restore the triangle
    with Givens rotations of neighbouring rows of R and of Qt."""
    R[:k, i:k - 1] = R[:k, i + 1:k]
    for j in range(i, k - 1):
        c, s = R[j, j], R[j + 1, j]
        h = math.hypot(c, s)
        G = np.array([[c / h, s / h], [-s / h, c / h]])
        R[j:j + 2, j:k - 1] = G @ R[j:j + 2, j:k - 1]
        R[j + 1, j] = 0.0
        Qt[j:j + 2] = G @ Qt[j:j + 2]
    R[:k, k - 1] = 0.0
    R[k - 1] = 0.0


# problems per stacked solve in _project_stack: bounds its temporaries
_STACK_CHUNK = 512


def _qr_append_stack(Qt, R, cols, nk, A, idx, j, cutoff):
    """_qr_append on problem idx[i] of a stacked factor: append column
    j[i] of A[idx[i]] at position nk[idx[i]], as _nnls_stack keeps it.
    Qt is zero and R the identity past each problem's nk columns.
    Returns which columns went in; a rejected one leaves its factor as
    it was."""
    a = A[idx, :, j]
    Q = Qt[idx]
    h = np.einsum("sqm,sm->sq", Q, a)
    v = a - np.einsum("sqm,sq->sm", Q, h)
    h2 = np.einsum("sqm,sm->sq", Q, v)
    v -= np.einsum("sqm,sq->sm", Q, h2)
    d = np.linalg.norm(v, axis=1)
    ok = d > cutoff
    idx, at = idx[ok], nk[idx[ok]]
    Qt[idx, at] = v[ok] / d[ok, None]
    R[idx, :, at] = (h + h2)[ok]
    R[idx, at, at] = d[ok]
    cols[idx, at] = j[ok]
    nk[idx] += 1
    return ok


def _qr_drop_stack(Qt, R, cols, nk, A, idx, drop):
    """Remove the factor positions drop[i] (at least one) of problem
    idx[i] of a stacked factor kept by _qr_append_stack.  The columns
    before the first one dropped keep their factor; the survivors after
    it are appended again in entry order, with no dependence test: a
    column independent of more columns is independent of fewer."""
    q, k = Qt.shape[1], A.shape[2]
    keep = (np.arange(q) < nk[idx, None]) & ~drop
    first = drop.argmax(axis=1)
    cols[idx] = np.take_along_axis(np.where(keep, cols[idx], k),
                                   np.argsort(~keep, axis=1, kind="stable"), 1)
    tail = np.arange(q) >= first[:, None]
    Qt[idx] = np.where(tail[..., None], 0.0, Qt[idx])
    R[idx] = np.where(tail[:, :, None] | tail[:, None, :], np.eye(q), R[idx])
    nk[idx] = first
    while (more := nk[idx] < keep.sum(axis=1)).any():
        again = idx[more]
        _qr_append_stack(Qt, R, cols, nk, A, again, cols[again, nk[again]], -1.0)


def _nnls_stack(A, b, maxiter=None):
    """nnls on a stack of problems A[i] (m, k), b[i] (m,), in lockstep.

    Every problem follows nnls rule for rule: the relative stopping
    rule, the entering column (the largest gradient among the columns
    above their own threshold), the dependent-column test on a thin QR
    factor of its passive columns, the inner step back with the blocked
    list, and NonConvergence once a problem needs more than maxiter
    (default 10 * max(m, k)) subproblem solves.  The factors are kept
    side by side, zero-padded to min(m, k) columns, so each round of
    subproblems is one stacked triangular solve; a problem that drops
    columns appends its surviving ones again from the first one dropped.
    Returns the solutions (p, k) and residual norms (p,).
    """
    p, m, k = A.shape
    q = min(m, k)
    if maxiter is None:
        maxiter = 10 * max(m, k)
    rel = 10.0 * np.finfo(float).eps * max(m, k)
    col_norm = np.sqrt(np.einsum("pmk,pmk->pk", A, A))
    r_floor = rel * np.linalg.norm(b, axis=1)
    # column k of w and of passive absorbs the writes of unused factor
    # positions, whose cols entry is k
    w = np.zeros((p, k + 1))
    passive = np.zeros((p, k + 1), dtype=bool)
    blocked = np.zeros((p, k), dtype=bool)
    Qt, R = np.zeros((p, q, m)), np.tile(np.eye(q), (p, 1, 1))
    cols, nk = np.full((p, q), k), np.zeros(p, dtype=int)
    solves = np.zeros(p, dtype=int)
    live = np.arange(p)
    while True:
        Al, bl = (A, b) if live.size == p else (A[live], b[live])
        r = bl - (Al @ w[live, :k, None])[..., 0]
        rnorm = np.linalg.norm(r, axis=1)
        grad = (r[:, None] @ Al)[:, 0]
        above = ((grad > rel * col_norm[live] * rnorm[:, None])
                 & ~passive[live, :k] & ~blocked[live])
        # a problem with m passive columns stops: nnls blocks every
        # further column as dependent
        above &= ((rnorm > r_floor[live]) & (nk[live] < q))[:, None]
        go = above.any(axis=1)
        live = live[go]
        if not live.size:
            break
        enter = np.where(above[go], grad[go], -np.inf).argmax(axis=1)
        added = _qr_append_stack(Qt, R, cols, nk, A, live, enter,
                                 rel * col_norm[live, enter])
        blocked[live[~added], enter[~added]] = True
        act, enter = live[added], enter[added]
        passive[act, enter] = True
        while act.size:
            solves[act] += 1
            if solves[act].max() > maxiter:
                raise NonConvergence(
                    f"nnls did not converge within {maxiter} subproblem solves")
            # z is zero past each problem's passive columns
            y = np.einsum("sqm,sm->sq", Qt[act], b[act])
            z = np.linalg.solve(R[act], y[..., None])[..., 0]
            c = cols[act]
            feasible = np.where(c < k, z, np.inf).min(axis=1) > 0.0
            w[act[feasible, None], c[feasible]] = z[feasible]
            blocked[act[feasible]] = False
            rest = ~feasible
            if not rest.any():
                break
            act, enter, c, z = act[rest], enter[rest], c[rest], z[rest]
            wp = w[act[:, None], c]
            limiting = (c < k) & (z <= 0.0) & (wp - z > 0.0)
            ratios = np.full(z.shape, np.inf)
            ratios[limiting] = wp[limiting] / (wp[limiting] - z[limiting])
            alpha = ratios.min(axis=1, keepdims=True)
            stuck = alpha[:, 0] == 0.0
            blocked[act[stuck], enter[stuck]] = True
            # a zero step rejects the fresh entry alone and leaves w
            step = wp + alpha * (z - wp)
            drop = (c < k) & np.where(stuck[:, None], c == enter[:, None],
                                      (ratios <= alpha) | (step <= 0.0))
            step[drop] = 0.0
            w[act[:, None], c] = step
            passive[act[:, None], c] &= ~drop
            hit = drop.any(axis=1)
            if hit.any():
                _qr_drop_stack(Qt, R, cols, nk, A, act[hit], drop[hit])
            act, enter = act[~stuck], enter[~stuck]
    w = w[:, :k]
    rnorm = np.linalg.norm(b - (A @ w[..., None])[..., 0], axis=1)
    return w, rnorm


def _threshold(prices, tol):
    """tol * (1 + ||prices||), one per row of prices: prices whose
    residual is at most this are inside the payoff cone."""
    return tol * (1.0 + np.linalg.norm(prices, axis=-1))


def _project_stack(rows, children, prices, tol: float = DEFAULT_TOL):
    """Cone projections of a stack of small one-period markets.

    Market i quotes prices[i] (m instruments) and pays the k payoff rows
    rows[children[i]].  Returns the cone weights (p, k) and whether each
    market is inside its cone by _threshold, as project_to_cone decides.
    When k == m each chunk of markets is solved directly (unless LU
    meets an exact zero pivot in it), and a market is inside when the
    solved weights are nonnegative and reprice it within the threshold,
    with the rounding of the repricing counted against it, as nnls
    would also find; every other market goes through _nnls_stack.
    """
    p, k = children.shape
    m = rows.shape[1]
    weights, inside = np.empty((p, k)), np.empty(p, dtype=bool)
    for lo in range(0, p, _STACK_CHUNK):
        A = rows[children[lo:lo + _STACK_CHUNK]].transpose(0, 2, 1)
        x = prices[lo:lo + _STACK_CHUNK]
        threshold = _threshold(x, tol)
        w, ok = np.zeros((len(x), k)), np.zeros(len(x), dtype=bool)
        if k == m:
            try:
                ws = np.linalg.solve(A, x[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # an exact zero pivot: NaN weights fail the checks below
                ws = np.full((len(x), k), np.nan)
            resid = np.linalg.norm(np.einsum("pmk,pk->pm", A, ws) - x, axis=1)
            # the rounding of A @ ws, large for huge weights, counts against it
            noise = 10.0 * np.finfo(float).eps * m * np.linalg.norm(A, axis=(1, 2))
            resid += noise * np.linalg.norm(ws, axis=1)
            good = (ws >= 0.0).all(axis=1) & (resid <= threshold)
            w[good], ok[good] = ws[good], True
        rest = np.flatnonzero(~ok)
        if rest.size:
            w[rest], rnorm = _nnls_stack(A[rest], x[rest])
            ok[rest] = rnorm <= threshold[rest]
        weights[lo:lo + _STACK_CHUNK], inside[lo:lo + _STACK_CHUNK] = w, ok
    return weights, inside


def project_to_cone(market: OnePeriodMarket, tol: float = DEFAULT_TOL) -> ConeProjection:
    """Project the price vector onto the cone of payoff rows, and decide.

    The weights solve min ||payoffs.T @ w - prices|| over w >= 0; the
    resulting x_star is the unique nearest cone point and satisfies the
    orthogonality identity (x_star - prices) . x_star = 0.  The prices
    are inside the cone when the residual is at most tol * (1 +
    ||prices||).  Otherwise the certificate is the normalized gap
    direction x_star - prices: it costs -setup_gain to set up and pays
    at least min_payoff >= -tol in every outcome.
    """
    prices = market.prices
    weights, rnorm = nnls(market.payoffs.T, prices)
    x_star = market.payoffs.T @ weights
    certificate = None
    if rnorm > _threshold(prices, tol):
        gap = x_star - prices
        gamma = gap / np.linalg.norm(gap)
        certificate = ArbitrageCertificate(
            gamma=gamma, setup_gain=float(-(gamma @ prices)),
            min_payoff=float((market.payoffs @ gamma).min()))
    return ConeProjection(weights=weights, x_star=x_star, residual_norm=rnorm,
                          prices=prices.copy(), certificate=certificate)


def find_arbitrage(market: OnePeriodMarket, tol: float = DEFAULT_TOL):
    """Return an ArbitrageCertificate, or None when the market has none:
    the verdict of project_to_cone(market, tol)."""
    return project_to_cone(market, tol).certificate


def certificate_from_projection(projection: ConeProjection):
    """The projection's ArbitrageCertificate, or None if the prices were
    inside the payoff cone.  On one projection exactly one of this and
    deflator_from_projection returns something."""
    return projection.certificate


def deflator_from_projection(projection: ConeProjection):
    """The projection's weights as a Deflator, or None if the prices were
    outside the payoff cone: the other view of certificate_from_projection."""
    return Deflator(projection.weights.copy()) if projection.certificate is None else None


@dataclass(frozen=True)
class PositionReport:
    cost: float
    min_payoff: float
    is_arbitrage: bool


def verify_position(market: OnePeriodMarket, gamma, tol: float = DEFAULT_TOL) -> PositionReport:
    """Check a candidate position: arbitrage means strictly negative
    cost together with no losing outcome, both up to the slack
    tol * (max|prices| + max|payoffs|) * max(1, max|gamma|), which
    scales with the market and the position."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != market.prices.shape:
        raise DimensionMismatch("gamma must hold one position per instrument")
    cost = float(gamma @ market.prices)
    min_payoff = float((market.payoffs @ gamma).min())
    slack = float(tol * (np.abs(market.prices).max() + np.abs(market.payoffs).max())
                  * max(1.0, np.abs(gamma).max()))
    return PositionReport(cost=cost, min_payoff=min_payoff,
                          is_arbitrage=(cost < -slack and min_payoff >= -slack))

