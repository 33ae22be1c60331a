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

from dataclasses import dataclass
from functools import partial

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
    ch. 23-24), run by _nnls_stack on a stack of one.  Its stopping rule
    is relative, so the verdict does not change when A and b are rescaled.

    A is (m, n) and b (m,).  maxiter caps the least squares subproblem
    solves (default 10 * max(m, n)); exceeding it raises NonConvergence.
    Returns w (n,), the nonnegative solution, and rnorm = ||A @ w - b||.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatch("nnls needs A (m, n) and b (m,)")
    maxiter = _cap(maxiter, *A.shape)
    w, rnorm = _nnls_stack(A[None], b[None], maxiter)
    if np.isnan(rnorm[0]):
        raise NonConvergence(f"nnls did not converge within {maxiter} subproblem solves")
    return w[0], float(rnorm[0])


# payoff entries p * k * m per stack of _project_stack: bounds its temporaries
_STACK_ENTRIES = 2 ** 13
# held by _nnls_stack for a passive column: above every count of moves
_PASSIVE = np.iinfo(int).max


def _products(m, k):
    """Stacked M v, v M and u . v of problems (m, k), by shape alone:
    np.einsum (streams along the stack) under 64 entries, else matmul."""
    if m * k < 64:
        return [partial(np.einsum, s) for s in ("pij,pj->pi", "pi,pij->pj", "pi,pi->p")]
    return (lambda M, v: (M @ v[..., None])[..., 0], lambda v, M: (v[:, None] @ M)[:, 0],
            lambda u, v: (u[:, None] @ v[..., None])[:, 0, 0])


def _qr_append_stack(Qt, Ri, nk, rows, n, a, cutoff, k):
    """Append column a[i] (m,) to the factor of every problem i (rows
    holds 0..p-1, and n >= nk.max()) by Gram-Schmidt with one
    reorthogonalisation, in the products _products(m, k) picks.  Problem
    i's factor is Qt[i], the rows of Q, and Ri[i] = R^-1, both zero past
    nk[i]; the caller keeps its columns.  The new column (h, d) of R
    borders R^-1 as [R^-1, -R^-1 h / d; 0, 1 / d].  A column whose new
    diagonal entry d is at most cutoff[i] lies in the span of the
    factor: it is rejected, and the factor stays as it was.  Returns
    which columns went in."""
    _, vm, vv = _products(a.shape[1], k)
    Q = Qt[:, :n]
    Qs = Q.swapaxes(1, 2)
    h = vm(a, Qs)
    v = a - vm(h, Q)
    h2 = vm(v, Qs)
    v -= vm(h2, Q)
    h += h2
    d = np.sqrt(vv(v, v))
    ok = d > cutoff
    # 1 / d where the column goes in; 0 writes a rejected one into the
    # zero padding
    s = np.divide(1.0, d, out=np.zeros_like(d), where=ok)
    Qt[rows, nk] = v * s[:, None]
    Ri[rows, :n, nk] = -vm(h, Ri[:, :n, :n].swapaxes(1, 2)) * s[:, None]
    Ri[rows, nk, nk] = s
    nk += ok
    return ok


def _qr_drop_stack(P, Qt, Ri, cols, nk, wf, i, drop, k):
    """Remove the factor positions drop[s] (at least one) of problem
    i[s], with their weights wf, from a stacked factor of problems (m, k)
    kept by _qr_append_stack.  The survivors keep their order: those
    before the first retired position keep their factor, and those
    after it are appended to it again, one position per round."""
    n = drop.shape[1]
    keep = (np.arange(n) < nk[i, None]) & ~drop
    order = np.argsort(~keep, axis=1, kind="stable")
    count = keep.sum(axis=1)
    pad = np.arange(n) >= count[:, None]
    at = i[:, None], order
    cols[i, :n] = cols[at]
    wf[i, :n] = np.where(pad, 0.0, wf[at])
    P[i, :n] = kept = np.where(pad[..., None], 0.0, P[at])
    Q, R, nq = Qt[i, :n], Ri[i, :n, :n], drop.argmax(axis=1)
    for t in range(nq.min(), count.max()):
        # a factor of t columns takes its survivor; an infinite cutoff, no other
        _qr_append_stack(Q, R, nq, np.arange(len(i)), t, kept[:, t],
                         np.where((nq == t) & (t < count), 0.0, np.inf), k)
    Qt[i, :n] = np.where(pad[..., None], 0.0, Q)
    Ri[i, :n, :n] = np.where(pad[:, None] | pad[..., None], 0.0, R)
    nk[i] = nq


def _cap(maxiter, m, k):
    """nnls's subproblem solve cap on (m, k): maxiter, by default 10 * max(m, k)."""
    return 10 * max(m, k) if maxiter is None else maxiter


def _nnls_stack(A, b, maxiter=None):
    """nnls on a stack of problems A[i] (m, k), b[i] (m,), in lockstep.

    Each problem keeps a thin QR factor of its passive columns, in the
    order they entered, padded to q = min(m, k) columns.  The entering
    column has the largest gradient A_j . r among the free columns above
    their threshold 10 * eps * max(m, k) * ||A_j|| * ||r||, r = b - A @ w.
    A problem stops when there is none, when ||r|| <= 10 * eps *
    max(m, k) * ||b||, or with q passive columns, and leaves the stack.
    A column whose new diagonal entry of R is at most 10 * eps *
    max(m, k) * ||A_j|| lies in the span of the passive columns
    (_qr_append_stack): it is blocked, until w moves, without a solve.
    Each round of subproblems is one stacked product z = R^-1 Qt b.  An
    infeasible z steps back toward the previous iterate and retires the
    coordinates pinned at zero; the survivors after the first of them
    are appended again (_qr_drop_stack).  A step of length zero blocks
    the fresh entry alone.  A problem past maxiter (default 10 * max(m,
    k)) subproblem solves leaves the stack with NaN weights and residual.
    Returns the solutions (p, k) and residual norms (p,).
    """
    p, m, k = A.shape
    q = min(m, k)
    if not p * q:
        # no column can enter
        return np.zeros((p, k)), np.linalg.norm(b, axis=1)
    maxiter = _cap(maxiter, m, k)
    rel = 10.0 * np.finfo(float).eps * max(m, k)
    mv, vm, vv = _products(m, k)
    # X[i, j] is column j of A[i]; cut[i, j] * ||r|| is its threshold
    X = A.transpose(0, 2, 1)
    cut = rel * np.sqrt(np.einsum("pkm,pkm->pk", X, X))
    r_floor = rel * np.linalg.norm(b, axis=1)
    # column k of w absorbs the padding -1 of cols
    w, res, live, rows = np.zeros((p, k + 1)), np.zeros(p), np.arange(p), np.arange(p)
    # column j of problem i may enter while held[i, j] < moves[i], the
    # count of w's moves: held is 0 while j is free, moves[i] while it is
    # blocked at the current iterate, and _PASSIVE while it is passive
    held, moves = np.zeros((p, k), dtype=int), np.ones(p, dtype=int)
    Qt, Ri = np.zeros((p, q, m)), np.zeros((p, q, q))
    # the passive columns, their rows of X and their weights, in factor
    # order
    cols, P, wf = np.full((p, q), -1), np.zeros((p, q, m)), np.zeros((p, q))
    nk, solves = np.zeros(p, dtype=int), np.zeros(p, dtype=int)
    # n bounds nk
    n, moved = 0, True
    while True:
        if moved:
            r = b - vm(wf[:, :n], P[:, :n])
            rnorm = np.sqrt(vv(r, r))
            grad = mv(X, r)
        # grad where a free column is above its threshold (so > 0), else 0
        score = grad * ((grad > cut * rnorm[:, None]) & (held < moves[:, None]))
        enter = score.argmax(axis=1)
        # with min(m, k) passive columns, every further column depends
        # on them
        go = (score[rows, enter] > 0.0) & (rnorm > r_floor) & (nk < q) & (solves <= maxiter)
        if not go.all():
            done = ~go
            # cols past nk are stale: their weight 0 goes to column k
            c = np.where(np.arange(q) < nk[done, None], cols[done], -1)
            w[live[done, None], c] = wf[done]
            res[live[done]] = rnorm[done]
            over = live[solves > maxiter]
            w[over] = res[over] = np.nan
            live, rows = live[go], rows[:go.sum()]
            if not live.size:
                break
            (X, b, cut, r_floor, held, moves, Qt, Ri, cols, P, wf, nk, solves, rnorm, grad,
             enter) = (v[go] for v in (X, b, cut, r_floor, held, moves, Qt, Ri, cols, P, wf, nk,
                                       solves, rnorm, grad, enter))
            n = int(nk.max())
        # a rejected column lands past nk, in the padding
        P[rows, nk], cols[rows, nk] = X[rows, enter], enter
        act = _qr_append_stack(Qt, Ri, nk, rows, n, P[rows, nk], cut[rows, enter], k)
        held[rows, enter] = np.where(act, _PASSIVE, moves)
        n, moved = min(n + 1, q), False
        # where no problem moves, its residual and gradient stand
        while act.any():
            moved = True
            solves += act
            # R^-1 and Qt are zero past each problem's columns, so is z
            z = mv(Ri[:, :n, :n], mv(Qt[:, :n], b))
            feasible = act & ((z > 0.0).sum(axis=1) == nk)
            np.copyto(wf[:, :n], z, where=feasible[:, None])
            moves += feasible
            act ^= feasible
            i = act.nonzero()[0]
            if not i.size:
                break
            z, wp, c = z[i], wf[i, :n], cols[i, :n]
            valid = np.arange(n) < nk[i, None]
            ratios = np.divide(wp, wp - z, out=np.full(z.shape, np.inf),
                               where=valid & (z <= 0.0) & (wp - z > 0.0))
            alpha = ratios.min(axis=1, keepdims=True)
            stuck = alpha[:, 0] == 0.0
            # a zero step rejects the fresh entry alone and leaves w
            wf[i, :n] = step = wp + alpha * (z - wp)
            drop = valid & np.where(stuck[:, None], c == enter[i, None],
                                    (ratios <= alpha) | (step <= 0.0))
            s, t = np.nonzero(drop)
            held[i[s], c[s, t]] = 0
            held[i[stuck], enter[i[stuck]]] = moves[i[stuck]]
            _qr_drop_stack(P, Qt, Ri, cols, nk, wf, i, drop, k)
            act[i[stuck]] = False
    return w[:, :k], res


def _threshold(prices, tol):
    """tol * (1 + ||prices||), one per row of prices: prices whose
    residual is at most this are inside the payoff cone."""
    return tol * (1.0 + np.linalg.norm(prices, axis=-1))


def _solve_direct(rows, children, x, threshold):
    """Weights w (p, k) of the two-instrument markets x[i] paying rows
    rows[children[i]], k >= 2, 0 off the pair (u, v) _nnls_stack enters
    first: children 0, 1 if k == 2, else j1 of largest A^T x, then j2 of
    largest A^T r over the others, r = x less its projection on row j1.
    Partial pivoting LU written out elementwise solves it.  ok: w >= 0,
    w reprices x within threshold less the rounding rel * ||A||_F * ||w||
    of that, rel = 10 * eps * m, and the second pivot is above rel * max|v|
    (else u, v are at a sine <= rel, which _nnls_stack would not split).
    An exact zero pivot or an overflow gives non-finite weights: they fail."""
    (p, k), i, j1, j2 = children.shape, np.arange(len(x)), 0, 1
    if k > 2:
        X = np.take(rows, children, axis=0)
        g = np.einsum("pkm,pm->pk", X, x)
        j1 = g.argmax(axis=1)
        first = X[i, j1]
        with np.errstate(all="ignore"):
            r = x - (g[i, j1] / np.einsum("pm,pm->p", first, first))[:, None] * first
        g = np.einsum("pkm,pm->pk", X, r)
        g[i, j1] = -np.inf
        j2 = g.argmax(axis=1)
    u, v = (np.take(rows, children[i, j], axis=0) for j in (j1, j2))
    # rows (a, b | y0), (c, d | y1) of A w = x, |a| >= |c|: entries top, top ^ 1 of u, v, x raveled
    top = 2 * i + (np.abs(u[:, 1]) > np.abs(u[:, 0]))
    (a, b, y0), (c, d, y1) = ([t.ravel()[e] for t in (u, v, x)] for e in (top, top ^ 1))
    rel = 10.0 * np.finfo(float).eps * 2
    with np.errstate(all="ignore"):
        l = c / a
        pivot = d - l * b
        w1 = (y1 - l * y0) / pivot
        w0 = (y0 - b * w1) / a
        resid = np.hypot(a * w0 + b * w1 - y0, c * w0 + d * w1 - y1)
        resid += rel * np.hypot(np.hypot(a, b), np.hypot(c, d)) * np.hypot(w0, w1)
        ok = ((w0 >= 0.0) & (w1 >= 0.0) & (resid <= threshold)
              & (np.abs(pivot) > rel * np.maximum(np.abs(b), np.abs(d))))
    w = np.zeros((p, k))
    w[i, j1], w[i, j2] = w0, w1
    return w, ok


def _project_stack(rows, children, prices, tol: float = DEFAULT_TOL):
    """Cone projections of a stack of one-period markets: the nodes of a
    tree level, or for project_to_cone a stack of one.

    Market i quotes prices[i] (m instruments) and pays the k payoff rows
    rows[children[i]].  Returns the cone weights (p, k) and whether each
    market is inside its cone by _threshold.  A stack holds at most
    _STACK_ENTRIES payoff entries.  A market with m == 2 <= k is solved
    directly, element by element (_solve_direct), so its bits depend on
    neither the stack nor the BLAS build.  Every other market, and one
    whose direct weights fail, goes through _nnls_stack (NaN past its
    cap), whose weights alone can depend on the stack, and is decided
    by the residual _projection reports on them (_reprice).
    """
    (p, k), m = children.shape, rows.shape[1]
    weights, inside = np.empty((p, k)), np.empty(p, dtype=bool)
    step = max(1, _STACK_ENTRIES // max(1, k * m))
    for lo in range(0, p, step):
        c, x = children[lo:lo + step], prices[lo:lo + step]
        threshold = _threshold(x, tol)
        w, ok = (_solve_direct(rows, c, x, threshold) if m == 2 <= k
                 else (np.empty((len(x), k)), np.zeros(len(x), bool)))
        rest = np.flatnonzero(~ok)
        if rest.size:
            X = rows[c[rest]]
            w[rest] = _nnls_stack(X.transpose(0, 2, 1), x[rest])[0]
            ok[rest] = _reprice(w[rest], X, x[rest])[2] <= threshold[rest]
        weights[lo:lo + step], inside[lo:lo + step] = w, ok
    return weights, inside


def _reprice(w, X, x):
    """x_star = w X, gap x_star - x and residual ||gap|| of weights w (p, k)
    of markets paying X (p, k, m) at prices x (p, m), by _products(k, m)."""
    _, vm, vv = _products(*X.shape[1:])
    x_star = vm(w, X)
    gap = x_star - x
    return x_star, gap, np.sqrt(vv(gap, gap))


def _position(payoffs, prices, gamma):
    """Cost gamma . prices and payoffs X gamma, by the products _products picks."""
    mv, _, vv = _products(*payoffs.shape)   # each on a stack of one
    return float(vv(gamma[None], prices[None])[0]), mv(payoffs[None], gamma[None])[0]


def _projection(payoffs, prices, weights, inside):
    """The ConeProjection of prices with _project_stack's cone weights of
    the payoff rows and verdict inside.  Outside, the certificate is the
    unit gap direction x_star - prices, which costs -setup_gain and pays
    at least min_payoff; non-finite prices or payoffs raise ValueError,
    and NaN weights (a solve past its cap) NonConvergence."""
    x_star, gap, rnorm = (v[0] for v in _reprice(weights[None], payoffs[None], prices[None]))
    certificate = None
    if not inside:
        if not (np.isfinite(prices).all() and np.isfinite(payoffs).all()):
            raise ValueError("prices and payoffs must be finite")
        if np.isnan(weights).any():
            raise NonConvergence("nnls did not converge within its subproblem cap")
        gamma = gap / rnorm
        cost, payoff = _position(payoffs, prices, gamma)
        certificate = ArbitrageCertificate(gamma=gamma, setup_gain=-cost,
                                           min_payoff=float(payoff.min()))
    return ConeProjection(weights=weights, x_star=x_star, residual_norm=float(rnorm),
                          prices=prices.copy(), certificate=certificate)


def project_to_cone(market: OnePeriodMarket, tol: float = DEFAULT_TOL) -> ConeProjection:
    """Project the price vector onto the cone of payoff rows, and decide.

    The weights solve min ||payoffs.T @ w - prices|| over w >= 0; the
    resulting x_star is the unique nearest cone point and satisfies the
    orthogonality identity (x_star - prices) . x_star = 0.  The market
    is decided as a tree node is, by _project_stack on a stack of one,
    and _projection builds the result: outside the cone, a certificate
    with min_payoff >= -tol.  NonConvergence if the solve passes its
    subproblem cap.
    """
    payoffs, prices = market.payoffs, market.prices
    weights, inside = _project_stack(payoffs, np.arange(len(payoffs))[None], prices[None], tol)
    return _projection(payoffs, prices, weights[0], inside[0])


def find_arbitrage(market: OnePeriodMarket, tol: float = DEFAULT_TOL):
    """Return an ArbitrageCertificate, or None when the market has none:
    the verdict of project_to_cone(market, tol)."""
    return project_to_cone(market, tol).certificate


def deflator_from_projection(projection: ConeProjection):
    """The projection's weights as a Deflator, or None if the prices were
    outside the payoff cone: exactly when its certificate is None."""
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
    scales with the market and the position.  A certificate's products
    (_position) give cost -setup_gain and its min_payoff to the bit."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != market.prices.shape:
        raise DimensionMismatch("gamma must hold one position per instrument")
    cost, payoff = _position(market.payoffs, market.prices, gamma)
    min_payoff = float(payoff.min())
    slack = float(tol * (np.abs(market.prices).max() + np.abs(market.payoffs).max())
                  * max(1.0, np.abs(gamma).max()))
    return PositionReport(cost=cost, min_payoff=min_payoff,
                          is_arbitrage=(cost < -slack and min_payoff >= -slack))

