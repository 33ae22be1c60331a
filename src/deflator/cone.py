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
from functools import lru_cache, partial

import numpy as np

from .exceptions import DimensionMismatch, NonConvergence

DEFAULT_TOL = 1e-9
# the least normal float: a sum of squares below it has lost digits
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class OnePeriodMarket:
    """Prices now and payoffs one period later, as read-only copies.

    prices   : array (m,), price of each instrument at time 0.
    payoffs  : array (N, m), row j holds every instrument's payoff in
               terminal outcome j.
    labels   : optional outcome names, used when reporting deflator
               weights atom by atom.
    A market compares and hashes by identity: two markets with equal
    arrays are two markets.
    """

    prices: np.ndarray
    payoffs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # read-only copies: the caller's arrays cannot change the market
        prices = np.atleast_1d(np.array(self.prices, dtype=float))
        payoffs = np.atleast_2d(np.array(self.payoffs, dtype=float))
        prices.flags.writeable = payoffs.flags.writeable = False
        if prices.ndim != 1 or payoffs.ndim != 2:
            raise DimensionMismatch("prices must be a vector and payoffs a matrix")
        if payoffs.shape[1] != prices.shape[0]:
            raise DimensionMismatch(
                f"payoff rows have {payoffs.shape[1]} entries but there are "
                f"{prices.shape[0]} prices")
        if not (np.isfinite(prices).all() and np.isfinite(payoffs).all()):
            raise ValueError("prices and payoffs must be finite")
        if self.labels is not None and len(self.labels) != payoffs.shape[0]:
            raise DimensionMismatch(f"{len(self.labels)} labels for {payoffs.shape[0]} "
                                    "outcomes: one label per outcome required")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def n_instruments(self) -> int:
        return self.prices.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.payoffs.shape[0]


@dataclass(frozen=True, eq=False)
class ArbitrageCertificate:
    """A position gamma with gamma . x < 0 and nonnegative payoffs.

    gamma is scaled to unit euclidean norm and orthogonal to the payoff
    rows that price the nearest cone point, so setup_gain equals the
    distance from the price vector to the payoff cone, to a few ulps of
    the prices, and scales linearly when the whole market is scaled.
    """

    gamma: np.ndarray
    setup_gain: float
    min_payoff: float


@dataclass(frozen=True, eq=False)
class ConeProjection:
    """Nearest point of the payoff cone to the price vector, and the
    verdict it gives.

    weights       : nonnegative cone coordinates, one per outcome.
    x_star        : the projected price vector, payoffs.T @ weights.
    residual_norm : euclidean distance from prices to x_star.
    prices        : the vector that was projected.
    certificate   : the arbitrage, or None when the prices are inside
                    the payoff cone (within the threshold).
    Its arrays, and its certificate's gamma, are read-only, so one
    projection can be handed out again (project_to_cone).
    """

    weights: np.ndarray
    x_star: np.ndarray
    residual_norm: float
    prices: np.ndarray
    certificate: ArbitrageCertificate | None


@dataclass(frozen=True, eq=False)
class Deflator:
    """Nonnegative outcome weights that reprice the market.

    atom_weights[j] is the price today of one unit paid in outcome j.
    It keeps its own copy of the weights and compares by identity.
    """

    atom_weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.array(self.atom_weights, dtype=float))
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
    is relative, and so is the threshold that decides a projection
    (_threshold): neither changes when A and b are rescaled.

    A is (m, n) and b (m,).  maxiter caps the least squares subproblem
    solves (default 10 * max(m, n)); exceeding it raises NonConvergence.
    Returns w (n,), the nonnegative solution, and rnorm = ||A @ w - b||.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatch("nnls needs A (m, n) and b (m,)")
    maxiter = _cap(maxiter, *A.shape)
    w, rnorm, _, _ = _nnls_stack(A[None], b[None], maxiter)
    if np.isnan(rnorm[0]):
        raise NonConvergence(f"nnls did not converge within {maxiter} subproblem solves")
    return w[0], float(rnorm[0])


# payoff entries p * k * m per stack of _project_stack: bounds its temporaries
_STACK_ENTRIES = 2 ** 13


# stacked products M v, v M and u . v.  _EINSUM streams along the stack,
# and its bits depend on no BLAS build; _MATMUL, the package's one BLAS
# form, serves only _nnls_stack's problems of 64 payoff entries or more
_EINSUM = tuple(partial(np.einsum, s) for s in ("pij,pj->pi", "pi,pij->pj", "pi,pi->p"))
_MATMUL = (lambda M, v: (M @ v[..., None])[..., 0], lambda v, M: (v[:, None] @ M)[:, 0],
           lambda u, v: (u[:, None] @ v[..., None])[:, 0, 0])


def _qr_append_stack(Qt, Ri, nk, rows, n, a, cutoff, products):
    """Append column a[i] (m,) to the factor of every problem i (rows
    holds 0..p-1, and n >= nk.max()) by Gram-Schmidt with one
    reorthogonalisation, in products, _EINSUM or _MATMUL.  Problem
    i's factor is Qt[i], the rows of Q, and Ri[i] = R^-1, both zero past
    nk[i]; the caller keeps its columns.  The new column (h, d) of R
    borders R^-1 as [R^-1, -R^-1 h / d; 0, 1 / d].  A column whose new
    diagonal entry d is at most cutoff[i] lies in the span of the
    factor: it is rejected, and the factor stays as it was.  Returns
    which columns went in."""
    _, vm, vv = products
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
    s = ok / np.where(ok, d, 1.0)
    Qt[rows, nk] = v * s[:, None]
    Ri[rows, :n, nk] = -vm(h, Ri[:, :n, :n].swapaxes(1, 2)) * s[:, None]
    Ri[rows, nk, nk] = s
    nk += ok
    return ok


def _factor(rows, cutoff):
    """The thin QR factor of rows (k, m), appended one at a time by
    _qr_append_stack in _EINSUM on a stack of one: Qt (1, k, m) and Ri
    (1, k, k), zero past the rows that went in, and which went in (k,).
    Row j stays out when its new diagonal entry of R is at most
    cutoff[j], and the rows after it go on into the same factor.  Its
    user is least_squares_hedge; a certificate extends the solver's own
    factor (_projection)."""
    k, m = rows.shape
    Qt, Ri, nk, at = np.zeros((1, k, m)), np.zeros((1, k, k)), np.zeros(1, int), np.zeros(1, int)
    went = [_qr_append_stack(Qt, Ri, nk, at, j, rows[None, j], cutoff[j:j + 1], _EINSUM)[0]
            for j in range(k)]
    return Qt, Ri, np.array(went, dtype=bool)


def _qr_drop_stack(P, Qt, Ri, cols, nk, wf, i, drop, products):
    """Remove the factor positions drop[s] (at least one) of problem
    i[s], with their weights wf, from a stacked factor kept by
    _qr_append_stack in products.  The survivors keep their order: those
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
                         np.where((nq == t) & (t < count), 0.0, np.inf), products)
    Qt[i, :n] = np.where(pad[..., None], 0.0, Q)
    Ri[i, :n, :n] = np.where(pad[:, None] | pad[..., None], 0.0, R)
    nk[i] = nq


def _cap(maxiter, m, k):
    """nnls's subproblem solve cap on (m, k): maxiter, by default 10 * max(m, k)."""
    return 10 * max(m, k) if maxiter is None else maxiter


def _nnls_stack(A, b, maxiter=None):
    """nnls on a stack of problems A[i] (m, k), b[i] (m,), in lockstep.

    Each problem keeps a thin QR factor of its passive columns, in the
    order they entered, padded to q = min(m, k) columns.  Every gradient
    is taken on r less its part in the span of the passive columns, r =
    b - A @ w: r is orthogonal to that span in exact arithmetic, but
    rounds by about eps * ||b|| in it.  The entering column has the
    largest gradient among the free columns above their threshold 10 *
    eps * max(m, k) * ||A_j|| * ||r||.  A problem stops when there is
    none, when ||r|| <= 10 * eps * max(m, k) * ||b||, or with q passive
    columns, and leaves the stack.
    By Cauchy-Schwarz a column above its threshold has a new diagonal
    entry of R above 10 * eps * max(m, k) * ||A_j||, the cutoff below
    which _qr_append_stack rejects an entry without a solve.  Each round of
    subproblems is one stacked product z = R^-1 Qt b.  An infeasible z
    steps back toward the previous iterate and retires the coordinates
    pinned at zero; the survivors after the first of them are appended
    again (_qr_drop_stack).  A step of length zero retires the fresh
    entry alone.  A rejected entry counts as a solve, so a problem that
    repeats one, and one past maxiter (default 10 * max(m, k))
    subproblem solves, leaves the stack with NaN weights and residual.
    Returns the solutions (p, k), residual norms (p,), and each problem's
    factor as it left the stack: its rows of Q (p, q, m), zero past nk,
    and nk (p,).  A solve that stops feasible has weights > 0 on its
    passive columns, so the factor spans exactly its columns with
    weights > 0.
    """
    p, m, k = A.shape
    q = min(m, k)
    basis, nk_out = np.zeros((p, q, m)), np.zeros(p, dtype=int)
    if not p * q:
        # no column can enter
        return np.zeros((p, k)), np.linalg.norm(b, axis=1), basis, nk_out
    maxiter = _cap(maxiter, m, k)
    rel = 10.0 * np.finfo(float).eps * max(m, k)
    products = mv, vm, vv = _EINSUM if m * k < 64 else _MATMUL
    # X[i, j] is column j of A[i]; cut[i, j] * ||r|| is its threshold
    X = A.transpose(0, 2, 1)
    cut = rel * np.sqrt(np.einsum("pkm,pkm->pk", X, X))
    # cut of a free column, NaN of a passive one: no gradient is above
    # NaN, and NaN * ||r|| stays quiet at ||r|| = 0, where inf would not
    free_cut = cut.copy()
    r_floor = rel * np.linalg.norm(b, axis=1)
    # column k of w absorbs the padding -1 of cols
    w, res, live, rows = np.zeros((p, k + 1)), np.zeros(p), np.arange(p), np.arange(p)
    Qt, Ri = np.zeros((p, q, m)), np.zeros((p, q, q))
    # the passive columns, their rows of X and their weights, in factor
    # order
    cols, P, wf = np.full((p, q), -1), np.zeros((p, q, m)), np.zeros((p, q))
    nk, solves = np.zeros(p, dtype=int), np.zeros(p, dtype=int)
    # n bounds nk
    n = 0
    while True:
        r = b - vm(wf[:, :n], P[:, :n])
        rnorm = np.sqrt(vv(r, r))
        Q = Qt[:, :n]
        grad = mv(X, r - vm(mv(Q, r), Q))
        # grad where a free column is above its threshold (so > 0), else 0
        score = np.where(grad > free_cut * rnorm[:, None], grad, 0.0)
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
            basis[live[done], :n], nk_out[live[done]] = Qt[done, :n], nk[done]
            over = live[solves > maxiter]
            w[over] = res[over] = np.nan
            live, rows = live[go], rows[:go.sum()]
            if not live.size:
                break
            X, b, cut, free_cut, r_floor, Qt, Ri, cols, P, wf, nk, solves, enter = (
                v[go] for v in (X, b, cut, free_cut, r_floor, Qt, Ri, cols, P, wf, nk, solves,
                                enter))
            n = int(nk.max())
        # a rejected column lands past nk, in the padding
        a, cutoff = X[rows, enter], cut[rows, enter]
        P[rows, nk], cols[rows, nk] = a, enter
        act = _qr_append_stack(Qt, Ri, nk, rows, n, a, cutoff, products)
        free_cut[rows, enter] = np.where(act, np.nan, cutoff)
        solves += 1
        n = min(n + 1, q)
        while True:
            # R^-1 and Qt are zero past each problem's columns, so is z
            z = mv(Ri[:, :n, :n], mv(Qt[:, :n], b))
            feasible = act & ((z > 0.0).sum(axis=1) == nk)
            np.copyto(wf[:, :n], z, where=feasible[:, None])
            act ^= feasible
            i = act.nonzero()[0]
            if not i.size:
                break
            solves[i] += 1
            z, wp, c = z[i], wf[i, :n], cols[i, :n]
            valid = np.arange(n) < nk[i, None]
            ratios = np.divide(wp, wp - z, out=np.full(z.shape, np.inf),
                               where=valid & (z <= 0.0) & (wp - z > 0.0))
            alpha = ratios.min(axis=1, keepdims=True)
            wf[i, :n] = step = wp + alpha * (z - wp)
            drop = valid & ((ratios <= alpha) | (step <= 0.0))
            s, t = np.nonzero(drop)
            free_cut[i[s], c[s, t]] = cut[i[s], c[s, t]]
            _qr_drop_stack(P, Qt, Ri, cols, nk, wf, i, drop, products)
    return w[:, :k], res, basis, nk_out


def check_tolerance(value, where) -> float:
    """value as a verdict tolerance, the factor of _threshold:
    ValueError unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{where}: the tolerance must be finite and > 0, not {value!r}")
    return float(value)


def _threshold(prices, tol):
    """tol * ||prices||, one per row of prices: prices whose residual is
    at most this are inside the payoff cone.  Its unit is the prices'
    own, so a rescaled market keeps its verdict, and a zero price vector
    is inside only when it is projected exactly.  ValueError when a row
    of finite prices has a sum of squares that overflows, or that falls
    below the normal range while a price is nonzero: the squares of the
    residual round the same way, so the verdict would read the rounding
    (without this check ex5.json scaled by 2^-540 reads fair).  Rows
    with a non-finite price pass, for the projection to refuse."""
    # np.linalg.norm's sum of squares: its bits, with a pair's sum written out
    with np.errstate(over="ignore"):
        s = prices * prices
        s = s[..., 0] + s[..., 1] if s.shape[-1] == 2 else s.sum(axis=-1)
    # one test of the stack's extremes, and row by row only if it fails
    if not (s.max(initial=0.0) < math.inf and s.min(initial=math.inf) >= _TINY):
        over = (s == math.inf) & np.isfinite(prices).all(axis=-1)
        under = (s < _TINY) & (prices != 0.0).any(axis=-1)
        bad = np.flatnonzero(over | under)
        if bad.size:
            i = bad[0]
            raise ValueError(f"prices of scale {np.abs(prices[i]).max():.3g} are out of the "
                             f"verdict's range: their sum of squares "
                             f"{'overflows' if over[i] else 'underflows'}; rescale the market")
    return tol * np.sqrt(s)


def _solve_direct(rows, children, x):
    """Weights w (p, k) of the two-instrument markets x[i] paying rows
    rows[children[i]], k >= 2, 0 off the pair (u, v) _nnls_stack enters
    first: children 0, 1 if k == 2, else j1 of largest A^T x, then j2 of
    largest A^T r over the others, r = x less its projection on row j1;
    the pair taken from the one gather X (p, k, 2) of the child rows,
    by flat index i * k + j into it when k > 2; solved by
    partial pivoting LU written out elementwise; and the residual
    _reprice reports on w, to the bit, or inf where w < 0 or the second
    pivot is at most rel * max|v|, rel = 20 * eps (u, v at a sine that
    small, which _nnls_stack would not split).  An overflow gives a
    non-finite residual."""
    p, k = children.shape
    X = np.take(rows, children, axis=0)
    if k == 2:
        u, v = X[:, 0], X[:, 1]
    else:
        # A^T x and A^T r as two products and a sum, in instrument order
        flat, at = X.reshape(-1, 2), k * np.arange(p)
        with np.errstate(all="ignore"):
            g = X[..., 0] * x[:, :1] + X[..., 1] * x[:, 1:]
            f1 = at + g.argmax(axis=1)
            u = np.take(flat, f1, axis=0)
            r = x - (g.ravel()[f1] / (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]))[:, None] * u
            g = X[..., 0] * r[:, :1] + X[..., 1] * r[:, 1:]
        g.ravel()[f1] = -np.inf
        f2 = at + g.argmax(axis=1)
        v = np.take(flat, f2, axis=0)
    # rows (a, b | y0), (c, d | y1) of A w = x, |a| >= |c|: rows top, 1 - top of (u, v | x)
    top = np.abs(u[:, 1]) > np.abs(u[:, 0])
    (a, b, y0), (c, d, y1) = ([np.where(top, t[:, 1 - e], t[:, e]) for t in (u, v, x)]
                              for e in (0, 1))
    rel = 10.0 * np.finfo(float).eps * 2
    with np.errstate(all="ignore"):
        l = c / a
        pivot = d - l * b
        w1 = (y1 - l * y0) / pivot
        w0 = (y0 - b * w1) / a
        # _reprice's gap, in instrument order
        g0, g1 = (w0 * u[:, e] + w1 * v[:, e] - x[:, e] for e in (0, 1))
        ok = (w0 >= 0.0) & (w1 >= 0.0) & (np.abs(pivot) > rel * np.maximum(np.abs(b), np.abs(d)))
        resid = np.where(ok, np.sqrt(g0 * g0 + g1 * g1), np.inf)
    if k == 2:
        return np.stack([w0, w1], 1), resid
    w = np.zeros((p, k))
    w.ravel()[f1], w.ravel()[f2] = w0, w1
    return w, resid


def _project_stack(rows, children, prices, tol: float = DEFAULT_TOL):
    """Cone projections of a stack of one-period markets (a tree level,
    or a stack of one): market i quotes prices[i] (m instruments) and
    pays the k payoff rows rows[children[i]], and a stack holds at most
    _STACK_ENTRIES payoff entries.  Returns the cone weights (p, k),
    whether the residual _projection reports on them (_reprice) is within
    _threshold, and the basis of the first market not inside: the rows
    of Q (n, m) of its final _nnls_stack factor, which span its payoff
    rows with weights > 0; or None when every market is inside.  With
    m == 2 <= k the weights are _solve_direct's where they are inside,
    and their bits depend on neither the stack nor the BLAS build; every
    other market goes through _nnls_stack (NaN past its cap), whose
    weights and factor alone can depend on the stack and the BLAS build."""
    (p, k), m = children.shape, rows.shape[1]
    weights, inside, basis = np.empty((p, k)), np.empty(p, dtype=bool), None
    step = max(1, _STACK_ENTRIES // max(1, k * m))
    for lo in range(0, p, step):
        c, x = children[lo:lo + step], prices[lo:lo + step]
        threshold = _threshold(x, tol)
        w, resid = (_solve_direct(rows, c, x) if m == 2 <= k
                    else (np.empty((len(x), k)), np.full(len(x), np.inf)))
        rest = np.flatnonzero(~(resid <= threshold))
        if rest.size:
            X = np.take(rows, c[rest], axis=0)
            w[rest], _, Qt, nk = _nnls_stack(X.transpose(0, 2, 1), x[rest])
            resid[rest] = _reprice(w[rest], X, x[rest])[2]
        ok = resid <= threshold
        if basis is None and not ok.all():
            # a market not inside is one of rest
            j = np.searchsorted(rest, ok.argmin())
            basis = Qt[j, :nk[j]]
        weights[lo:lo + step], inside[lo:lo + step] = w, ok
    return weights, inside, basis


def _reprice(w, X, x):
    """x_star = w X, gap x_star - x and residual ||gap|| of weights w (p, k)
    of markets paying X (p, k, m) at prices x (p, m), by _EINSUM at every size."""
    _, vm, vv = _EINSUM
    x_star = vm(w, X)
    gap = x_star - x
    return x_star, gap, np.sqrt(vv(gap, gap))


def _position(payoffs, prices, gamma):
    """Cost gamma . prices and payoffs X gamma, by np.einsum at every size."""
    return float(np.einsum("j,j->", gamma, prices)), np.einsum("ij,j->i", payoffs, gamma)


def _slack(market: OnePeriodMarket, gamma, tol):
    """Position gamma's cost and payoffs (_position), and the slack of
    the check on each: _threshold of the quotes it sums (the prices, or
    the outcome's payoff row) times ||gamma||, the cone verdict's unit
    times the position's, as for tree accounts (multi_period._account).
    DimensionMismatch unless gamma holds one position per instrument;
    ValueError unless gamma and tol are finite, tol > 0 (_threshold's
    for quotes whose squares are out of range)."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != market.prices.shape:
        raise DimensionMismatch("gamma must hold one position per instrument")
    if not np.isfinite(gamma).all():
        raise ValueError("gamma must be finite")
    tol, size = check_tolerance(tol, "tol"), np.linalg.norm(gamma, axis=-1)
    x, X = market.prices, market.payoffs
    return (*_position(X, x, gamma), float(_threshold(x[None], tol)[0] * size),
            _threshold(X, tol) * size)


def _projection(payoffs, prices, weights, basis):
    """The ConeProjection of prices with _project_stack's cone weights of
    the payoff rows and its basis of their passive span, None when the
    prices are inside the cone.  Outside, the certificate is the unit
    gap direction x_star - prices appended to that factor by
    _qr_append_stack, so its part in the passive span is taken off,
    twice, and the rest renormalized: the gap carries the weights'
    rounding, and off that span its cost is the distance.  Where no part
    is left off the span (a verdict at rounding level), it is the unit
    gap.  It costs -setup_gain and pays at least min_payoff, +inf over
    no outcomes; non-finite prices or payoffs raise ValueError, and NaN
    weights (a solve past its cap) NonConvergence."""
    x_star, gap, rnorm = (v[0] for v in _reprice(weights[None], payoffs[None], prices[None]))
    certificate = None
    if basis is not None:
        if not (np.isfinite(prices).all() and np.isfinite(payoffs).all()):
            raise ValueError("prices and payoffs must be finite")
        if np.isnan(weights).any():
            raise NonConvergence("nnls did not converge within its subproblem cap")
        (n, m), unit = basis.shape, gap / rnorm
        # R^-1 is scratch: only the appended row of Q is kept
        Qt, Ri = np.zeros((1, n + 1, m)), np.zeros((1, n + 1, n + 1))
        Qt[0, :n] = basis
        # a part of the gap off the passive span of at most rel is
        # rounding, as an entering column's is in _nnls_stack
        rel = 10.0 * np.finfo(float).eps * max(payoffs.shape)
        went = _qr_append_stack(Qt, Ri, np.full(1, n), np.zeros(1, int), n, unit[None],
                                rel * np.linalg.norm(unit[None], axis=1), _EINSUM)
        # a copy, so the certificate holds no factor
        gamma = Qt[0, n].copy() if went[0] else unit
        cost, payoff = _position(payoffs, prices, gamma)
        gamma.flags.writeable = False
        certificate = ArbitrageCertificate(gamma=gamma, setup_gain=-cost,
                                           min_payoff=float(payoff.min(initial=np.inf)))
    prices = prices.copy()
    weights.flags.writeable = x_star.flags.writeable = prices.flags.writeable = False
    return ConeProjection(weights=weights, x_star=x_star, residual_norm=float(rnorm),
                          prices=prices, certificate=certificate)


def project_to_cone(market: OnePeriodMarket, tol: float = DEFAULT_TOL) -> ConeProjection:
    """Project the price vector onto the cone of payoff rows, and decide.

    The weights solve min ||payoffs.T @ w - prices|| over w >= 0; the
    resulting x_star is the unique nearest cone point and satisfies the
    orthogonality identity (x_star - prices) . x_star = 0.  The market
    is decided as a tree node is, by _project_stack on a stack of one,
    and _projection builds the result: outside the cone, a certificate
    with min_payoff >= -tol.  ValueError unless tol is finite and > 0
    (check_tolerance); NonConvergence if the solve passes its subproblem
    cap.  A call on the market object and tol of the last solve returns
    that solve's projection again, without a solve.
    """
    return _project(market, check_tolerance(tol, "tol"))


# One slot, keyed by the market object (markets hash by identity) and
# tol.  A market and its projection are read-only, so the slot can hand
# the projection out again: find_arbitrage then project_to_cone, the
# README's workflow, solves once.  Not a memo per market: a memo would
# also answer repeated passes over the same markets from memory, and a
# benchmark of such passes would then time lookups, not projections,
# for no user's gain.
@lru_cache(maxsize=1)
def _project(market: OnePeriodMarket, tol: float) -> ConeProjection:
    payoffs, prices = market.payoffs, market.prices
    weights, _, basis = _project_stack(payoffs, np.arange(len(payoffs))[None], prices[None], tol)
    return _projection(payoffs, prices, weights[0], basis)


def find_arbitrage(market: OnePeriodMarket, tol: float = DEFAULT_TOL):
    """Return an ArbitrageCertificate, or None when the market has none:
    the verdict of project_to_cone(market, tol)."""
    return project_to_cone(market, tol).certificate


def deflator_from_projection(projection: ConeProjection):
    """The projection's weights as a Deflator, or None if the prices were
    outside the payoff cone: exactly when its certificate is None."""
    return Deflator(projection.weights) if projection.certificate is None else None


@dataclass(frozen=True)
class PositionReport:
    cost: float
    min_payoff: float
    is_arbitrage: bool


def verify_position(market: OnePeriodMarket, gamma, tol: float = DEFAULT_TOL) -> PositionReport:
    """Check a candidate position: arbitrage means a cost below minus its
    slack and no outcome paying below minus its own (_slack), so c * gamma
    gets gamma's verdict for every c > 0, as do prices and payoffs rescaled
    together or apart, and Strategy([gamma, -gamma]) on panel_from_one_period.
    A certificate's products (_position) give cost -setup_gain and its
    min_payoff to the bit.  ValueError unless gamma and tol are finite, tol > 0."""
    cost, payoff, cost_slack, payoff_slack = _slack(market, gamma, tol)
    return PositionReport(cost=cost, min_payoff=float(payoff.min(initial=np.inf)),
                          is_arbitrage=bool(cost < -cost_slack
                                            and (payoff >= -payoff_slack).all()))
