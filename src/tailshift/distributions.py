"""Input models: Weibull-type marginals coupled by a Gaussian copula.

Each marginal lives on [0, inf) with tail probability exp(-x**alpha), so
alpha < 1 gives heavier-than-exponential tails and alpha > 1 lighter ones.
Dependence comes from a Gaussian copula: correlated standard normals are
pushed through the normal CDF and the marginal quantile function.

Log densities are evaluated from the normal scores directly rather than by
composing CDF and quantile calls.  Far out in the tail the CDF rounds to 1.0
in double precision, which would destroy the copula term exactly where the
stretched samples live; working with exp(-x**alpha) in log form avoids that.

The kernels work on samples held component-major: a C-contiguous (d, n)
array in which each component's n values sit next to each other.  numpy
reduces a short trailing axis slowly (a row max over a (1e5, 10) array takes
about 12 times as long as the same max over the (10, 1e5) layout), and every
density and the stretch reduce over the d components.

Every per-sample function enters by one door (``_per_sample``): it takes a
vector (d,) or a batch (n, d), lays it out component-major and runs its
kernel over fixed blocks of columns.  Samples are independent until the tail
sort, so a block is computed on its own and a large batch never holds more
than one block's temporaries.  The draw is pulled in the same blocks
(``_drawn_blocks``): an estimate weighs each block (stretch, image density
and loss) at each (h) cell and drops it before it asks for the next, keeping
only losses and log weights, which it writes into that cell's row of n.  The
kernels overwrite their own temporaries where that reads plainly, so a
block holds about six (d, m) arrays at its peak.

The linear algebra is numpy's: importing scipy.linalg would add about
6.5 MB of resident memory to every process that imports the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from scipy.special import log_ndtr, ndtri, ndtri_exp

from .errors import DomainError

__all__ = [
    "MarginalSpec",
    "CorrelationMatrix",
    "DistributionSpec",
    "copula_log_density",
    "joint_log_density",
    "sample_inputs",
]


_MAX_INDEX = int(np.iinfo(np.intp).max)   # numpy's largest array size


def _count(name, value, low, high=None):
    """value as an int, checked to be a whole number (not a bool) of at least low (0 or 1).

    high, if given, is the largest value allowed.
    """
    # bool is an int subclass, but True is no count
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, float) and value.is_integer()):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    value = int(value)
    if value < low:
        raise DomainError(f"{name} must be {'positive' if low else 'nonnegative'}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be at most {high}")
    return value


def _instance(name, value, cls):
    """Refuse, as DomainError naming it, a value that is not a cls: every model argument's rule."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}")


_REALS = (float, int, np.floating, np.integer)   # a bool is an int, refused apart


def _real(name, value, ok=None, rule="be finite"):
    """value as a float: a finite int, float or numpy integer or floating scalar, no bool.

    ok, if given, tests the float; rule words the whole check as "{name} must {rule}".
    """
    try:
        x = float(value) if isinstance(value, _REALS) and not isinstance(value, bool) else math.nan
    except OverflowError:                  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (ok is None or ok(x))):
        raise DomainError(f"{name} must {rule}, got {value!r}")
    return x


def _positive_finite(name, value):
    """value as a float, checked to be a positive finite real number."""
    return _real(name, value, lambda x: x > 0.0, "be positive and finite")


def _reals(name, x, ok=None, rule=None):
    """x as a float array, from an array numpy can shape of an int, unsigned or float dtype.

    The one reader of array arguments.  An ndarray is judged by its dtype alone; of a list
    (or a scalar) the first entry refused is named: a bool, or, where numpy reads no numbers,
    one that is no real number.  ok, if given, tests the floats elementwise and must fail a
    nan; rule words it as "{name} must {rule}", and names the first entry of a list (or
    the scalar) that it fails.  A float array comes back as it is.
    """
    entries = None
    try:
        a = np.asarray(x)
    except ValueError:                     # a ragged nesting: numpy holds it only as objects
        a = np.array(None)
    else:
        if not isinstance(x, np.ndarray):
            numbers = a.dtype.kind in "iuf"
            entries = np.array(x, dtype=object).ravel()
            for v in entries:
                if isinstance(v, (bool, np.bool_)) or not (numbers or isinstance(v, _REALS)):
                    raise DomainError(f"{name} must be an array of real numbers, got {v!r}")
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if ok is not None and not np.all(good := ok(a)):
        got = "" if entries is None else f", got {entries[np.argmin(good)]!r}"
        raise DomainError(f"{name} must {rule}{got}")
    return a


_INSIDE_UNIT = (lambda p: (p > 0.0) & (p < 1.0), "lie strictly inside (0, 1)")


def _draw_size(n, dim):
    """n as an int, checked to be a count of (n, dim) float64 draws numpy can hold."""
    # numpy refuses an array whose size in bytes passes its index range
    return _count("n", n, 1, _MAX_INDEX // (8 * dim))


@dataclass(frozen=True)
class MarginalSpec:
    """One nonnegative marginal with tail probability exp(-x**alpha)."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive_finite("alpha", self.alpha))

    def quantile(self, u):
        """Inverse CDF: (-log(1 - u))**(1/alpha) for u in [0, 1)."""
        u = _reals("u", u, lambda u: (u >= 0.0) & (u < 1.0), "lie in [0, 1)")
        out = (-np.log1p(-u)) ** (1.0 / self.alpha)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """CDF: 1 - exp(-x**alpha) for x >= 0."""
        x = _reals("x", x, lambda x: x >= 0.0, "be nonnegative")
        out = -np.expm1(-(x ** self.alpha))
        return float(out) if out.ndim == 0 else out

    def log_density(self, x):
        """Log density log(alpha) + (alpha - 1) log(x) - x**alpha for x > 0.

        x**alpha is exp(alpha log x), as in ``joint_log_density``.
        """
        x = _reals("x", x, lambda x: (x > 0.0) & (x < np.inf), "be strictly positive and finite")
        a = self.alpha
        log_x = np.log(x)
        out = math.log(a) + (a - 1.0) * log_x - np.exp(a * log_x)
        return float(out) if out.ndim == 0 else out


class CorrelationMatrix:
    """A validated correlation matrix with its Cholesky factor cached.

    Beside the factor ``chol`` it caches R^-1 - I, the matrix of the copula
    quadratic form s'(R^-1 - I)s, so a copula density is one product with a
    (d, d) matrix and no triangular solve.  R^-1 comes from the factor, as
    the solution Z of L'Z = Y with LY = I (numpy's solver; within about
    2e-17 of a Cholesky solve on the bundled patterns, where np.linalg.inv
    is off by up to 7e-16).  R^-1 - I is exactly zero when R is the
    identity.

    Parameters
    ----------
    matrix : array_like, shape (d, d)
        Symmetric positive definite matrix with unit diagonal.
    """

    def __init__(self, matrix):
        R = np.array(_reals("correlation matrix", matrix), order="C")   # a copy, made read-only
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise DomainError(f"correlation matrix must be square, got shape {R.shape}")
        if not np.all(np.isfinite(R)):
            raise DomainError("correlation matrix entries must be finite")
        if not np.allclose(R, R.T, rtol=0.0, atol=1e-12):
            raise DomainError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(R), 1.0, rtol=0.0, atol=1e-12):
            raise DomainError("correlation matrix must have unit diagonal")
        try:
            chol = np.linalg.cholesky(R)
        except np.linalg.LinAlgError:
            raise DomainError("correlation matrix is not positive definite") from None
        eye = np.eye(R.shape[0])
        inv = np.linalg.solve(chol.T, np.linalg.solve(chol, eye))
        inv_minus_identity = np.ascontiguousarray(inv - eye)
        for arr in (R, chol, inv_minus_identity):
            arr.setflags(write=False)
        self.matrix = R
        self.chol = chol
        self._inv_minus_identity = inv_minus_identity
        self.dim = R.shape[0]
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def tridiagonal(cls, dim, c):
        """Unit diagonal with c on the first off-diagonals, zero elsewhere."""
        R = np.eye(dim)
        idx = np.arange(dim - 1)
        R[idx, idx + 1] = R[idx + 1, idx] = _real("c", c)
        return cls(R)

    @classmethod
    def equicorrelated(cls, dim, c):
        """Unit diagonal with the constant c everywhere off the diagonal."""
        R = np.full((dim, dim), _real("c", c))
        np.fill_diagonal(R, 1.0)
        return cls(R)

    def __repr__(self):
        return f"CorrelationMatrix(dim={self.dim})"

    def __eq__(self, other):
        return isinstance(other, CorrelationMatrix) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        # + 0.0 folds -0.0 to 0.0, which == holds equal but tobytes tells apart
        return hash((self.matrix + 0.0).tobytes())


@dataclass(frozen=True)
class DistributionSpec:
    """Joint input model: a tuple of marginals plus their copula correlation."""

    marginals: tuple
    correlation: CorrelationMatrix

    def __post_init__(self):
        marginals = tuple(self.marginals)
        if not marginals:
            raise DomainError("at least one marginal is required")
        if not all(isinstance(m, MarginalSpec) for m in marginals):
            raise DomainError("marginals must be MarginalSpec instances")
        if len(marginals) != self.correlation.dim:
            raise DomainError(
                f"{len(marginals)} marginals but correlation matrix of dim {self.correlation.dim}"
            )
        object.__setattr__(self, "marginals", marginals)
        alphas = np.array([m.alpha for m in marginals])
        alphas.setflags(write=False)
        object.__setattr__(self, "_alphas", alphas)

    @classmethod
    def from_alphas(cls, alphas, correlation=None):
        """Build from a list of tail exponents; identity correlation by default."""
        # object dtype keeps each entry's own type: a bool beside floats stays a bool
        marginals = tuple(MarginalSpec(a) for a in np.atleast_1d(np.array(alphas, dtype=object)))
        if correlation is None:
            correlation = CorrelationMatrix.identity(len(marginals))
        return cls(marginals, correlation)

    @property
    def dim(self):
        return len(self.marginals)

    @property
    def alphas(self):
        return self._alphas


# Columns per block.  A (10, 2048) float temporary is 160 KB, and a block
# peaks at about six of them: under glibc's heap trim threshold, which
# follows the largest freed n-vector (1.6 MB at n = 1e5).  A block of 8192
# passed it, so every block gave its memory back and faulted it in again.
_BLOCK = 2048


def _per_sample(kernel, x, *args, dim=None, name="x"):
    """kernel(xc, *args) of a vector (d,) or a batch (n, d) x, over blocks of its columns.

    The one door of every per-sample function: x must be a real (``_reals``)
    vector of dim components (any d > 0 without dim) or a batch of such rows.
    The kernel gets x component-major, as (d, m) blocks of _BLOCK columns of
    a C-contiguous (d, n) array (the whole of it up to _BLOCK), and returns
    an (m,) or a (d, m) array, joined over the blocks (``_joined``).  An (m,)
    output comes back as a float for a vector and an (n,) array for a batch,
    a (d, m) one in x's shape.  F-ordered (n, d) views of (d, n) arrays, as
    the kernels hand batches around, enter without a copy; a C-ordered batch
    is copied once.
    """
    x = _reals(name, x)
    if x.ndim not in (1, 2) or (x.shape[-1] == 0 if dim is None else x.shape[-1] != dim):
        d = "d > 0" if dim is None else dim
        raise DomainError(f"{name} must be a vector of {d} components or a batch (n, {d}), "
                          f"got shape {x.shape}")
    xc = np.ascontiguousarray(np.atleast_2d(x).T)
    n = xc.shape[1]
    if n <= _BLOCK:
        out = kernel(xc, *args)
    else:
        (out,) = _joined(((kernel(xc[:, lo:lo + _BLOCK], *args),) for lo in range(0, n, _BLOCK)), n)
    out = out.T.reshape(x.shape[:-1] + out.shape[:-1])
    return float(out) if out.ndim == 0 else out


def _joined(parts, n):
    """The per-block tuples of parts, one per _BLOCK columns of n, joined on the last axis.

    Each part is a tuple of (..., m) arrays, made only when the join reaches it.  Up to _BLOCK
    columns the one part comes back as it is; past that each part is copied into outputs of
    n columns and dropped before the next is made.
    """
    parts = iter(parts)
    if n <= _BLOCK:
        return next(parts)
    outs = None
    for lo in range(0, n, _BLOCK):
        part = next(parts)
        if outs is None:
            outs = tuple(np.empty(p.shape[:-1] + (n,)) for p in part)
        for out, p in zip(outs, part):
            out[..., lo:lo + _BLOCK] = p
        del part, p                  # the next block may reuse this one's memory
    return outs


def _powers(base, exponents):
    """base ** exponents[:, None] for a (d, m) base, by one pow path at every m.

    The draw's t**(1/alpha) takes it (the densities take their powers by
    exp, which has no fast path).  numpy's pow takes a fast path (sqrt for
    0.5, square for 2, a division for -1) for an exponent it sees as one
    scalar, as a (d, 1) column is in wide batches, so a sample's bits would
    follow its batch's width.  Spelled out in full, (d, m), the exponents
    take the general pow at every width, as the row-major formula (an (m, d)
    batch to the power of the (d,) exponents) does for d > 1; for d = 1 the
    formula's exponent is one scalar.
    """
    if len(exponents) == 1:
        return np.power(base, exponents[0])
    return base ** np.repeat(exponents[:, None], base.shape[1], axis=1)


def _sum_components(a):
    """Sum over the d components of a (d, n) array, in index order.

    numpy reduces the outer axis of a C-ordered (d, n) array row by row, in
    order, while n > 1; it sums a contiguous axis pairwise, so an F-ordered
    array is made C-ordered first, and a single column is added as Python
    floats, which round as numpy's do and cost far less than d calls on
    one-element arrays.  The fixed order keeps a sample's value independent
    of the size of the batch it comes in.
    """
    if a.shape[1] == 1:
        return np.array([reduce(add, a[:, 0].tolist())])
    return np.add.reduce(np.ascontiguousarray(a), axis=0)


def _normal_scores(p):
    """Normal scores z with Phi(z) = 1 - exp(-p) of the powers p = x**alpha, componentwise.

    The tail probability exp(-p) goes to ndtri_exp in log form, so the score
    stays accurate even when the CDF is within one ulp of 1; ndtri_exp
    switches to its own near-zero form for small p.  p is overwritten with z.
    """
    z = ndtri_exp(np.negative(p, out=p), out=p)
    return np.negative(z, out=z)


def _matmul(a, b):
    """a @ b by numpy's matrix-matrix kernel, also for one row of a or one column of b.

    numpy multiplies a single row or column by a matrix-vector kernel that
    rounds otherwise than its matrix-matrix kernel, so such an operand is
    doubled before the product and the copy cut off: a sample's product then
    has the bits it has in a wider batch.
    """
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    if b.shape[1] == 1:
        return (a @ np.concatenate((b, b), axis=1))[:, :1]
    return a @ b


def _copula_log_density_from_scores(s, correlation):
    """Copula log density -(log det R + s'(R^-1 - I)s)/2 at scores s, shape (d, n).

    The quadratic form is one product with the cached R^-1 - I, by the
    matrix-matrix kernel at every n (``_matmul``), so a sample's density
    does not depend on its batch.  Returns shape (n,).
    """
    q = _matmul(correlation._inv_minus_identity, s)
    q *= s
    return -0.5 * (correlation.log_det + _sum_components(q))


def copula_log_density(u, correlation):
    """Log density of the Gaussian copula at u in (0, 1)**d.

    Parameters
    ----------
    u : array_like, shape (d,) or (n, d)
        Copula coordinates, each strictly inside (0, 1).
    correlation : CorrelationMatrix

    Returns
    -------
    float or ndarray
        -0.5*log det(R) - 0.5 * z'(inv(R) - I)z with z the normal scores
        of u.  Exactly 0 when R is the identity.
    """
    _instance("correlation", correlation, CorrelationMatrix)
    return _per_sample(lambda uc: _copula_log_density_from_scores(
        ndtri(_reals("u", uc, *_INSIDE_UNIT)), correlation), u, dim=correlation.dim, name="u")


def joint_log_density(x, dist):
    """Log density of the joint input model at x (componentwise > 0).

    Accepts a single vector of shape (d,) or a batch of shape (n, d);
    returns a float or an (n,) array accordingly.
    """
    _instance("dist", dist, DistributionSpec)
    return _per_sample(_log_density_columns, x, dist, dim=dist.dim)


def _log_density_columns(xc, dist):
    """Joint log density of a component-major (d, m) block of x, checked componentwise > 0.

    The powers x**alpha are exp(alpha log x), off the log x the density
    takes anyway: an exp costs a fraction of a pow, and has no fast path
    that would make a sample's bits depend on the width of its batch.
    """
    # the min is nan where x holds a nan; initial keeps an empty batch valid
    if not (np.minimum.reduce(xc, axis=None, initial=np.inf) > 0.0
            and np.maximum.reduce(xc, axis=None, initial=0.0) < np.inf):
        raise DomainError("x components must be strictly positive and finite")
    a = dist.alphas[:, None]
    terms = np.log(xc)
    p = np.multiply(terms, a)
    np.exp(p, out=p)
    terms *= a - 1.0
    terms += np.log(a)
    terms -= p
    marg = _sum_components(terms)
    del terms                   # a block keeps few (d, m) temporaries alive at once
    return marg + _copula_log_density_from_scores(_normal_scores(p), dist.correlation)


def _drawn_blocks(n, dist, seed, with_density=True):
    """The draw of n joint samples, block by block: (X, log f(X)) of each _BLOCK rows.

    X is a component-major (d, m) block and log f(X) its (m,) log density,
    None without with_density.  Correlated normals V = W chol' are mapped
    through the marginal quantiles as X = t**(1/alpha) with
    t = -log Phi(-V), which is the exact inverse of the score map used by
    ``joint_log_density`` and never rounds the copula coordinate to 0 or 1.
    The normal scores of X are V itself and chol^-1 V = W, so the density
    needs neither the score map nor a triangular solve: with
    log x = log(t)/alpha and x**alpha = t,

        log f(X) = sum_i (log alpha_i + (alpha_i - 1)/alpha_i * log t_i - t_i)
                   - (log det R + |W|**2 - |V|**2) / 2.

    A fresh generator is seeded on every call, and a block is drawn only
    when it is asked for (``_draw_rows``): W and V are never whole.
    """
    n = _draw_size(n, dist.dim)
    rng = np.random.default_rng(_count("seed", seed, 0))
    for lo in range(0, n, _BLOCK):
        yield _draw_rows(rng, min(_BLOCK, n - lo), n, dist, with_density)


def _draw_rows(rng, m, n, dist, with_density):
    """_draw_columns of the next m rows of W, and of V = W chol', in an n-sample draw.

    V is formed row-major, since the product's rounding, and so X for a
    given seed, depends on the operand layout, and with the bits of the
    product over the whole draw: the one row that ends a longer draw takes
    the matrix-matrix kernel (``_matmul``), and a one-sample draw keeps
    numpy's matrix-vector product.
    """
    W = rng.standard_normal((m, dist.dim))
    chol_t = dist.correlation.chol.T
    V = W @ chol_t if n == 1 else _matmul(W, chol_t)
    return _draw_columns(W.T, V.T, dist, with_density)


def _draw_columns(wt, vt, dist, with_density):
    """(X, log f(X)) of the draw, component-major, from (d, m) blocks of W' and V'.

    The sums over components in log f(X) run in index order
    (``_sum_components``), so a sample's log f(X) does not depend on the
    width of its block.
    """
    a = dist.alphas
    neg_v = np.negative(vt, order="C")
    t = log_ndtr(neg_v)
    np.negative(t, out=t)                  # t = -log Phi(-V)
    X = _powers(t, 1.0 / a)
    if not with_density:
        return X, None
    # X is made, so the density may overwrite neg_v and t in place
    quad = np.einsum("ij,ij->i", wt.T, wt.T) - _sum_components(np.square(neg_v, out=neg_v))
    sum_t = _sum_components(t)
    log_t = np.log(t, out=t)
    log_t *= ((a - 1.0) / a)[:, None]
    log_fx = (_sum_components(log_t) - sum_t
              - 0.5 * quad + (float(np.sum(np.log(a))) - 0.5 * dist.correlation.log_det))
    return X, log_fx


def sample_inputs(n, dist, seed):
    """Draw n joint samples, shape (n, d), reproducibly from seed.

    X = (-log Phi(-V))**(1/alpha) for correlated normals V: the blocks of
    ``_drawn_blocks``, joined, as an F-ordered view of the (d, n) draw.
    """
    _instance("dist", dist, DistributionSpec)
    n = _draw_size(n, dist.dim)        # _joined's range takes no float n past one block
    # the (X,) of each (X, None) block, by map: a generator expression would hold each block
    # until the next one is drawn
    (X,) = _joined(map(lambda b: b[:1], _drawn_blocks(n, dist, seed, with_density=False)), n)
    return X.T
