"""Log-likelihood, analytic gradient and Hessian for binary/ordinal models.

Model: a latent utility z = x'beta + eps falls in category j when
gamma_{j-1} < z <= gamma_j, with gamma_0 = -inf, gamma_1 = 0 and
gamma_J = +inf; binary data is the J = 2 case. The public parametrization
of the interior cut-points, and the sampler's, is their log spacings,
delta_j = log(gamma_j - gamma_{j-1}) for j = 2..J-1, so any real delta
vector yields a strictly increasing cut-point sequence. The derivative stage
works in the cut-points, where a log-concave link makes the log-likelihood
concave (Pratt 1981); ``_delta_derivatives`` maps its output to delta.

Cell probabilities F(gamma_j - x'b) - F(gamma_{j-1} - x'b) are evaluated as a
log-difference in whichever tail of the link distribution has the smaller
magnitude; the textbook subtraction of two cdf values loses all precision
once both arguments are beyond ~6; only that tail's log-cdf values are
computed, two per row or one for an end-category row. There is no floor:
log-probabilities far below the log of the smallest double stay finite
(log Phi(-40) is about -804.6), so the log-likelihood and its derivatives
are the model's, concave in (beta, gamma) for a log-concave link. An
interval narrower than the rounding scores -inf, which the Newton line
search and the sampler reject.

One likelihood pass runs in two stages. The first computes the interval
bounds and log-probabilities and sums them into the log-likelihood; it
returns them as a state. The derivative stage turns that state into the
gradient and the Hessian. At each finite bound it takes the log-density (for
the ratios f/p) and its slope f'/f (for the curvature) from
``Link.log_pdf_slope``, so no branch on the link lives here; an end-category
row's infinite bound contributes exactly 0. Each block of a fixed number of
rows gives one matrix product, and the sum of these products holds the
gradient, the beta-beta Hessian and the beta-cut-point block, so no n x k
temporary is built. A line search scores its candidates with the first stage
alone and runs the derivative stage only on the candidate it accepts, so no
bound or log-probability is computed twice.

Both stages, and the hit rate, cut the rows into one contiguous run of whole
blocks per CPU the process may run on. The first run goes in the calling
thread and the others on a pool of threads; numpy and scipy.special release
the interpreter lock in their elementwise loops, so the runs overlap. Each
run works one chunk of a few blocks at a time, so no temporary grows with n.
The first stage writes every row's bounds and log-probability into arrays
made for the whole pass and sums the log-probabilities there; the derivative
stage returns each block's product and per-category sums, and the caller adds
them in block order. Every product has the same shape, and no sum depends on
where the runs begin, so every bit of the result is the same at any CPU
count and at any BLAS thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _as_int
from .distributions import Link

# Rows per block of the derivative stage. A constant, so that the order of
# every sum, and with it every bit of the gradient and the Hessian, is the
# same on any machine and at any BLAS or CPU count. A run of rows is whole
# blocks, so a run boundary is always a block boundary.
_BLOCK_ROWS = 8192
# Rows a run takes through its elementwise work at once: whole blocks, few
# enough that each thread's temporaries stay small.
_CHUNK_ROWS = 2 * _BLOCK_ROWS

# (pid, workers, executor) of the thread pool that runs the runs after the
# first; made on first use, and again in a forked child, whose copy of the
# pool has no threads. Two threads that race here each get a working pool;
# the one not kept winds down once it is dropped.
_pool = (None, 0, None)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The pool of at least ``workers`` threads that belongs to this process."""
    global _pool
    pid, size, pool = _pool
    if pid != os.getpid() or size < workers:
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="discretefit-rows")
        _pool = (os.getpid(), workers, pool)
    return pool


def _row_runs(n: int, run) -> list:
    """[run(chunks), ...], one call per CPU, in row order: each call gets
    the row slices of one contiguous run of whole blocks, ``_CHUNK_ROWS``
    rows at a time. The first run goes in the calling thread, the others on
    the pool under the caller's numpy error state; every run is waited for,
    and the first exception in row order is raised as it was raised. Rows
    of one block make one run and start no thread."""
    n_blocks = -(-n // _BLOCK_ROWS)
    n_runs = max(1, min(_cpu_count(), n_blocks))
    edges = [min(n, n_blocks * i // n_runs * _BLOCK_ROWS) for i in range(n_runs + 1)]
    runs = [[slice(row, min(row + _CHUNK_ROWS, stop)) for row in range(start, stop, _CHUNK_ROWS)]
            for start, stop in zip(edges[:-1], edges[1:])]
    if n_runs == 1:
        return [run(runs[0])]
    errstate = dict(np.geterr(), call=np.geterrcall())

    def in_errstate(chunks):
        with np.errstate(**errstate):
            return run(chunks)

    pool = _worker_pool(n_runs - 1)
    futures = [pool.submit(in_errstate, chunks) for chunks in runs[1:]]
    try:
        first = run(runs[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


@dataclass
class ModelSpec:
    """Link and dimensions of a model; J alone picks the model.

    ``family`` is an optional check against J: ``"binary"`` requires J = 2
    and ``"ordinal"`` fits any J >= 2. After it, ``family`` reads the name J
    implies, ``"binary"`` at J = 2 and ``"ordinal"`` above. J and k must be
    integers; an integral float is taken as its int.
    """

    family: str | None
    link: Link
    J: int
    k: int
    intercept: bool = True

    def __post_init__(self):
        if self.family not in (None, "binary", "ordinal"):
            raise ValueError(f"unknown family {self.family!r}")
        self.link = Link(self.link)
        self.intercept = bool(self.intercept)
        self.J = _as_int("J", self.J)
        self.k = _as_int("k", self.k)
        if self.family == "binary" and self.J != 2:
            raise ValueError(f"binary family requires J = 2, got J = {self.J}")
        if self.J < 2:
            raise ValueError(f"need at least two response categories, got J = {self.J}")
        if self.k < 1:
            raise ValueError("need at least one design column")
        self.family = "binary" if self.J == 2 else "ordinal"

    @property
    def n_params(self) -> int:
        return self.k + self.J - 2


@dataclass
class ParamVector:
    """Coefficients plus log spacings of the interior cut-points."""

    beta: np.ndarray
    delta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.delta = np.atleast_1d(np.asarray(self.delta, dtype=float))

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate([self.beta, self.delta])

    def cutpoints(self) -> np.ndarray:
        return cutpoints_from_delta(self.delta)


def cutpoints_from_delta(delta) -> np.ndarray:
    """Expand log spacings into the full cut-point vector.

    Returns (-inf, 0, gamma_2, ..., gamma_{J-1}, +inf) of length J + 1 where
    gamma_j = gamma_{j-1} + exp(delta_j); strictly increasing by construction.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta must be finite")
    return np.concatenate([[-np.inf, 0.0], np.cumsum(np.exp(delta)), [np.inf]])


def _interval_logprob(link: Link, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(F(b) - F(a)) elementwise for a < b, tail-stable.

    Evaluates in the left tail when the interval midpoint is negative and in
    the right (survival) tail otherwise, so the difference is never formed
    from two cdf values saturating at the same end. Only the chosen tail is
    computed: with F(-w) = 1 - F(w) both cases are
    log F(hi) + log1p(-F(lo)/F(hi)) for (hi, lo) = (b, a) or (-a, -b).
    An end-category row (a = -inf or b = +inf) has lo = -inf, where the
    correction is log1p(-0) = -0 and the sum is exactly log F(hi), so such a
    row takes one log-cdf and the correction runs only where lo > -inf.
    log F(lo) - log F(hi) is capped at 0 by fmin: log-cdf values a few ulps
    apart can round out of order, and both can be -inf past |w| ~ 1e154, where
    log1p of a value below -1, or -inf - -inf, is nan; capped, such an
    interval gives log1p(-1) = -inf. Where log F(lo) <= log F(hi) no bit moves.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        use_left = b <= -a
        hi = np.where(use_left, b, -a)
        lo = np.where(use_left, a, -b)
        out = np.asarray(link.log_cdf(hi))  # an array even for 0-d input
        rows = np.flatnonzero(lo != -np.inf)
        log_hi = np.take(out, rows)
        log_ratio = link.log_cdf(np.take(lo, rows)) - log_hi
        np.put(out, rows, log_hi + np.log1p(-np.exp(np.fmin(log_ratio, 0.0, out=log_ratio))))
    return out


def _check_dimensions(spec: ModelSpec, params: ParamVector, X: np.ndarray, J=None) -> None:
    """Refuse parameters, a category count (when given) or a design whose
    last axis does not fit ``spec``, in that order; the one home of the rule
    for every function that evaluates a model on data."""
    _check_params(spec, params)
    if J is not None and J != spec.J:
        raise ValueError(f"data has J = {J} categories but spec declares J = {spec.J}")
    if X.shape[-1] != spec.k:
        raise ValueError(f"design has {X.shape[-1]} columns but spec declares k = {spec.k}")


def _check_params(spec: ModelSpec, params: ParamVector, name: str = "delta") -> None:
    """Refuse a ``beta`` that is not (k,) or a ``delta``, called ``name``, not (J - 2,)."""
    if params.beta.shape != (spec.k,):
        raise ValueError(f"beta has shape {params.beta.shape}, expected ({spec.k},)")
    if params.delta.shape != (spec.J - 2,):
        raise ValueError(f"{name} has length {params.delta.size}, expected J - 2 = {spec.J - 2}")


def _bounds(delta, y: np.ndarray, xb) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (a, b) = (gamma_{y-1} - xb, gamma_y - xb), the one gather of a
    row's interval; with xb = 0 it is the latent utility's own interval."""
    gamma = cutpoints_from_delta(delta)
    return gamma[y - 1] - xb, gamma[y] - xb


def _spacing_jacobian(delta: np.ndarray) -> np.ndarray:
    """d gamma_j / d delta_m = exp(delta_m) for m <= j; lower triangular."""
    return np.tril(np.tile(np.exp(delta), (delta.size, 1)))


def _bound_terms(link: Link, a, b, logp):
    """[[r_a, r_b], [t_a, t_b]] as one (2, 2, m) array: at each bound w the
    ratio r = f(w)/p and t = r f'(w)/f(w). The gradient of log p in (a, b)
    is g = (r_a, -r_b) and its Hessian diag(-t_a, t_b) - g g'. Both terms
    are exactly 0 at an infinite bound, which the link kernels never see:
    numpy's vectorized exp takes a slow path on -inf, and every end-category
    row has one. ``Link.log_pdf_slope`` gives log f and f'/f at each finite
    bound, under the overflow scope its probit square needs.
    """
    w = np.concatenate([a, b])
    finite = np.flatnonzero(np.isfinite(w))
    w = np.take(w, finite)
    logp = np.take(logp, finite, mode="wrap")  # row i of a and of b is row i of logp
    with np.errstate(over="ignore"):
        log_f, slope = link.log_pdf_slope(w)
        r = np.exp(log_f - logp)
    terms = np.zeros((2, 2 * np.size(a)))
    terms[0][finite] = r
    terms[1][finite] = slope * r
    return terms.reshape(2, 2, -1)


def _scatter_cuts(cuts: np.ndarray, y: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> None:
    """Write ``upper`` into row y and ``lower`` into row y - 1 of ``cuts``: a
    row per cut-point gamma_0..gamma_J, a column per observation (and maybe
    more); the rows 2..J-1 of the free cut-points must start at zero."""
    width = cuts.shape[1]
    flat = y * width + np.arange(y.size)
    cuts = cuts.reshape(-1)  # a view: the buffers passed in are contiguous
    cuts[flat] = upper
    cuts[flat - width] = lower


def _loglik_pass(spec: ModelSpec, params: ParamVector, data: Dataset):
    """First stage of a pass: (loglik, state).

    ``state`` holds the interval bounds and the log-probabilities,
    everything ``_derivative_pass`` needs.
    """
    _check_dimensions(spec, params, data.X, data.J)
    a, b, logp = np.empty((3, data.n))

    def run(chunks):
        for rows in chunks:
            a[rows], b[rows] = _bounds(params.delta, data.y[rows], data.X[rows] @ params.beta)
            logp[rows] = _interval_logprob(spec.link, a[rows], b[rows])

    _row_runs(data.n, run)
    return float(np.sum(logp)), (a, b, logp)


def _derivative_pass(spec: ModelSpec, data: Dataset, state):
    """Second stage of a pass: (gradient, Hessian) in the coefficients and
    the cut-points (beta, gamma_2..gamma_{J-1}) from ``_loglik_pass``'s state.

    Derivatives are taken with respect to the interval bounds and mapped
    through the (linear) bound Jacobian; the Hessian is symmetrized before
    returning. The rows are reduced in blocks of ``_BLOCK_ROWS``: each block
    gives one product
    X_blk' [X_blk w | r_a - r_b | cut-point weights], added in block order
    to a k x (k + J - 1) sum, which holds the beta-beta Hessian, the beta
    gradient and the beta-cut-point block, and its per-category sums, added
    to a (5, J + 2) one.
    """
    a, b, logp = state
    X, y, J, k = data.X, data.y, spec.J, spec.k
    n_bins = J + 2  # bincount target length

    def run(chunks):
        """[(product, per-category sums), ...], one per block."""
        scratch = np.empty((k + J, _CHUNK_ROWS))
        prod = scratch[:k + J - 1]  # the right factor, transposed
        # the cut-point rows 0..J of the scatter: rows 2..J-1 are prod's
        # cut-point weights, rows 0 and 1 are the X w and r_a - r_b rows,
        # written after the scatter, and row J is spare
        cuts = scratch[k - 1:]
        # bincount target of each row: its category, in its block's own bins
        bins = np.arange(_CHUNK_ROWS) // _BLOCK_ROWS * n_bins
        blocks = []
        for rows in chunks:
            (r_a, r_b), (t_a, t_b) = _bound_terms(spec.link, a[rows], b[rows], logp[rows])
            d2aa = -t_a - r_a * r_a
            d2bb = t_b - r_b * r_b
            d2ab = r_a * r_b
            X_chunk, m = X[rows], r_a.size
            n_blocks = -(-m // _BLOCK_ROWS)
            if m % _BLOCK_ROWS:
                # zero rows pad the last block, so every product has one shape: a
                # BLAS may round a product of another length by its thread count
                X_chunk = np.zeros((n_blocks * _BLOCK_ROWS, k))
                X_chunk[:m] = X[rows]
                prod[:, m:] = 0.0
            sums = np.zeros((n_blocks, 5, n_bins))
            if J > 2:  # no free cut-point at J = 2: skip the scatter and the bincounts
                cuts[2:J, :m] = 0.0
                _scatter_cuts(cuts, y[rows], d2bb + d2ab, d2aa + d2ab)
                target = y[rows] + bins[:m]
                sums = np.stack([np.bincount(target, weights, n_blocks * n_bins)
                                 for weights in (r_b, r_a, d2bb, d2aa, d2ab)])
                sums = sums.reshape(5, n_blocks, n_bins).transpose(1, 0, 2)
            np.multiply(X_chunk[:m].T, d2aa + d2bb + 2.0 * d2ab, out=prod[:k, :m])
            np.subtract(r_a, r_b, out=prod[k, :m])
            for i, lo in enumerate(range(0, m, _BLOCK_ROWS)):
                block = slice(lo, lo + _BLOCK_ROWS)
                blocks.append((X_chunk[block].T @ prod[:, block].T, sums[i]))
        return blocks

    acc = np.zeros((k, k + J - 1))
    by_cat = np.zeros((5, n_bins))
    for blocks in _row_runs(data.n, run):
        for product, sums in blocks:
            acc += product
            by_cat += sums
    r_b_by_cat, r_a_by_cat, bb_by_cat, aa_by_cat, ab_by_cat = by_cat
    grad = np.concatenate([acc[:, k], r_b_by_cat[2:J] - r_a_by_cat[3:J + 1]])
    H_gg = (np.diag(bb_by_cat[2:J] + aa_by_cat[3:J + 1])
            + np.diag(ab_by_cat[3:J], 1) + np.diag(ab_by_cat[3:J], -1))
    H = np.block([[acc[:, :k], -acc[:, k + 1:]], [-acc[:, k + 1:].T, H_gg]])
    return grad, 0.5 * (H + H.T)


def _delta_derivatives(delta: np.ndarray, grad: np.ndarray, H: np.ndarray):
    """The one home of the exp-spacing chain rule: (gradient, Hessian) in
    (beta, gamma) mapped to (beta, delta), T'g and T'HT + diag(T'g) on the
    cut-point block, with T = diag(I, A) and A the spacing Jacobian."""
    k = grad.size - delta.size
    A = _spacing_jacobian(delta)
    grad_delta = A.T @ grad[k:]
    H_bd = H[:k, k:] @ A
    H_dd = A.T @ H[k:, k:] @ A + np.diag(grad_delta)
    H = np.block([[H[:k, :k], H_bd], [H_bd.T, 0.5 * (H_dd + H_dd.T)]])
    return np.concatenate([grad[:k], grad_delta]), H


def _loglik_clamped(spec: ModelSpec, params: ParamVector, data: Dataset) -> float:
    """``loglik`` itself, under a name kept only for the bench tracer, which
    pins it, until ROADMAP items 0 and 11."""
    return _loglik_pass(spec, params, data)[0]


def loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> float:
    """Sum of per-observation cell log-probabilities."""
    return _loglik_clamped(spec, params, data)


def score_matrix(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Per-observation score contributions, shape (n, k + J - 2).

    Row sums reproduce ``grad_loglik`` up to summation order.
    """
    a, b, logp = _loglik_pass(spec, params, data)[1]
    r_a, r_b = _bound_terms(spec.link, a, b, logp)[0]
    cuts = np.zeros((spec.J + 1, data.n))
    _scatter_cuts(cuts, data.y, r_b, -r_a)
    scores_gamma = cuts[2:spec.J].T @ _spacing_jacobian(params.delta)
    return np.hstack([data.X * (r_a - r_b)[:, None], scores_gamma])


def grad_loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Analytic gradient of ``loglik`` in (beta, delta) coordinates."""
    state = _loglik_pass(spec, params, data)[1]
    return _delta_derivatives(params.delta, *_derivative_pass(spec, data, state))[0]


def hess_loglik(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """Analytic Hessian of ``loglik`` in (beta, delta) coordinates."""
    state = _loglik_pass(spec, params, data)[1]
    return _delta_derivatives(params.delta, *_derivative_pass(spec, data, state))[1]


def initial_params(spec: ModelSpec, counts: np.ndarray) -> ParamVector:
    """Starting values from the empirical cumulative category shares.

    ``counts`` holds the rows of each category 1..J, and every count must be
    positive: the fit refuses an empty category and the sampler starts from
    zero. The intercept is set to the link quantile of the observed P(y > 1)
    and the cut-point spacings to differences of share quantiles, so the
    start is interior and an intercept-only fit starts at its optimum.
    """
    cum_counts = np.cumsum(counts)
    q = spec.link.quantile(cum_counts[:-1] / cum_counts[-1])
    beta = np.zeros(spec.k)
    if spec.intercept:
        beta[0] = -q[0]
    return ParamVector(beta=beta, delta=np.log(np.diff(q)))
