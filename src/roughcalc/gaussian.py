"""Sampling and conditioning for grid Gaussian vectors.

Two samplers produce ensembles of paths X ~ N(0, Sigma):

* `sample_ensemble` draws z ~ N(0, I) and maps through the Cholesky factor;
  works for every model/grid.  Its draw loop also serves the mixed model's
  joint sampler, one factor per component.
* `sample_ensemble_circulant` uses circulant embedding of the stationary
  fractional Gaussian noise autocovariance

      rho(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

  on uniform grids: the length-2n symmetric extension of rho is diagonalized
  by the FFT, normals weighted by the square-root spectrum fill the n + 1
  coefficients of a Hermitian half spectrum, and its real inverse transform
  is exact stationary noise provided every embedding eigenvalue is
  nonnegative (Davies-Harte 1987, Wood-Chan 1994).  Eigenvalues below
  -1e-9 * max force a fallback to the dense sampler, flagged on the
  ensemble; the ratio min/max is recorded either way.

Randomness is keyed by (seed, stream, chunk): each fixed-size chunk of rows
gets its own PCG64 generator via SeedSequence spawn keys.  Within a chunk
the normals are drawn in row blocks from that chunk's generator, in order.
Every parallel loop of the package follows one worker rule (`_share`): the
calling thread is one of the ``workers``, workers - 1 threads of a pool
started for the call run beside it, and each thread takes the next item
from one shared, lock-guarded iterator.  In the
samplers' chunk loop (`_fill_chunks`) an item is a row block: a thread
draws the block's normals while it holds the lock, so the draws stay in
block order, then applies the block's transform (the product with L, or the
half spectrum, inverse FFT and cumulative sum) in its own buffer, one of
``workers`` that the calling thread allocates; with no more blocks than
workers the loop runs inline.  So ensembles are bit-identical for any
worker count, at most ``workers`` blocks are live, and the working memory
of a sampler is bounded in bytes, not in rows:

* the dense sampler's blocks hold at most BLOCK_BYTES of normals each, so
  its working memory is workers x BLOCK_BYTES.  Its product with L is one
  gemm per block, and BLAS gives different bits for different row counts,
  so the blocks keep one size at every worker count;
* the circulant sampler's blocks are sized so that the normals and half
  spectra of all workers fit in BLOCK_BYTES together.  Its transform acts
  row by row, so the block size does not change a bit of the paths.

Conditioning reads the cached Cholesky factor L of Sigma.  The paths are
X = L Z with whitened innovations Z = L^{-1} X, and Z_{:j} is a function of
the first j coordinates alone, so given them

    E[X_i | X_{:j}] = sum_{r<j} L[i, r] Z_r,    Cov = L[:, j:] L[:, j:]^T.

An observed coordinate (i < j) has an all-zero row L[i, j:], hence a
conditional variance of exactly 0.  Conditional expectations of smooth
functions of future coordinates integrate with tensorized Gauss-Hermite
quadrature (probabilists' weights, whitened by a Cholesky factor of the
conditional covariance) or by Monte Carlo.  The catalog functionals need
none of this: their per-coordinate maps are smoothed in closed form
(`functionals.smooth_basis`), so the quadrature serves user callables.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
# numpy loads its random module on first use; every run draws, so load it
# with the package rather than inside the first draw
from numpy.random import PCG64, Generator, SeedSequence

from .errors import IllConditionedModelError, UnsupportedDimensionError
from .models import GramContext, jittered_cholesky

__all__ = [
    "BLOCK_BYTES",
    "CHUNK_ROWS",
    "RngStream",
    "PathEnsemble",
    "sample_ensemble",
    "sample_ensemble_circulant",
    "write_ensemble",
    "read_ensemble",
    "ConditionalLaw",
    "conditional_law",
    "regression_coefficients",
    "conditional_expectation",
    "expect_scalar",
]

CHUNK_ROWS = 16384
# Byte budget of one work block: the normals a sampler draws at a time, and
# the increment columns `experiments` reduces at a time.
BLOCK_BYTES = 8 << 20

_ENSEMBLE_MAGIC = b"RGCE"
_ENSEMBLE_VERSION = 1
_HEADER = struct.Struct("<IQQQ")  # version, m, n, seed


@dataclass(frozen=True)
class RngStream:
    """Deterministic generator family keyed by (seed, stream, chunk)."""

    seed: int
    stream: int = 0

    def generator(self, chunk: int = 0) -> Generator:
        ss = SeedSequence(entropy=self.seed, spawn_key=(self.stream, chunk))
        return Generator(PCG64(ss))


@dataclass(frozen=True)
class PathEnsemble:
    """Rows are i.i.d. path vectors over the grid; ``seed`` goes into the
    exported file header.  ``min_eig_ratio`` is min/max of the circulant
    embedding spectrum when the circulant sampler was asked for (also on a
    fallback), else None."""

    paths: np.ndarray
    seed: int
    sampler: str
    fallback: bool = False
    min_eig_ratio: float | None = None


def _chunk_bounds(m: int):
    starts = range(0, m, CHUNK_ROWS)
    return [(lo, min(lo + CHUNK_ROWS, m)) for lo in starts]


def _row_blocks(lo: int, hi: int, row_bytes: int):
    step = max(1, BLOCK_BYTES // row_bytes)
    return [(b0, min(b0 + step, hi)) for b0 in range(lo, hi, step)]


def _share(items, work, workers, lead=lambda i, item: item):
    """Run ``work(i, item)`` on every item, on ``workers`` threads.

    Thread 0 is the calling thread, and threads 1 .. workers - 1 are a pool
    started for the call.  Each thread takes the next item of one shared
    iterator under a lock, and ``lead(i, item)`` runs before the lock is
    released, so it sees the items in order; its result goes to ``work``
    in place of the item.  After an exception no thread takes another
    item, and the exception reaches the caller once every thread has
    stopped.
    """
    items, lock, failed = iter(items), threading.Lock(), []

    def run(i):
        try:
            while True:
                with lock:
                    item = None if failed else next(items, None)
                    if item is None:
                        return
                    item = lead(i, item)
                work(i, item)
        except BaseException:
            failed.append(i)
            raise

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        others = [pool.submit(run, i) for i in range(1, workers)]
        run(0)
    for future in others:
        future.result()


def _fill_chunks(m, seed, stream, width, passes, workers, scratch=None,
                 row_bytes=None):
    """Fill m rows, a row block at a time, on ``workers`` threads.

    Chunk c's generator draws, in order, each pass's row blocks of ``width``
    normals per row, and the pass's ``apply(z, b0, b1, tmp)`` maps the
    block z of rows b0:b1 into its output.  Through `_share`, the calling
    thread and workers - 1 pool threads each take the next block, draw its
    normals while still holding the lock, so the draws stay in block order,
    and apply it in their own buffer.  So at most ``workers`` blocks are
    live.  The buffers, sized to the largest block, and ``tmp =
    scratch(rows)`` are allocated here, by the calling thread, once per
    call.  With no more blocks than workers the threads would overlap
    little, so the loop runs inline.  The draws do not depend on workers.

    A block holds at most BLOCK_BYTES // row_bytes rows.  The default
    ``row_bytes`` is the normals alone, 8 * width, so the dense sampler
    keeps one BLOCK_BYTES of normals per worker, ``workers`` x BLOCK_BYTES
    in all: its product with L is one gemm per block, whose bits depend on
    the block's row count, so its blocks must not change with workers.  A
    row-independent transform can charge every buffer of every worker to
    ``row_bytes`` and so hold BLOCK_BYTES in all.
    """
    rng = RngStream(seed, stream)
    blocks = []
    for c, (lo, hi) in enumerate(_chunk_bounds(m)):
        gen = rng.generator(c)
        blocks += [(gen, apply, b0, b1) for apply in passes
                   for b0, b1 in _row_blocks(lo, hi, row_bytes or 8 * width)]
    count = workers if len(blocks) > workers > 1 else 1
    rows = max(b1 - b0 for _, _, b0, b1 in blocks)
    buffers = [(np.empty((rows, width)), scratch(rows) if scratch else None)
               for _ in range(count)]

    def draw(i, block):
        gen, apply, b0, b1 = block
        z, tmp = buffers[i]
        return functools.partial(apply, gen.standard_normal(out=z[:b1 - b0]), b0, b1, tmp)

    _share(blocks, lambda i, transform: transform(), count, lead=draw)


def _sample_dense(factors, m: int, seed: int, stream: int, workers: int
                  ) -> list[np.ndarray]:
    """m rows of z @ L^T for each Cholesky factor L in ``factors``, all of
    one size n.  Chunk c's generator fills the first factor's rows, then the
    next factor's, each in row blocks of at most BLOCK_BYTES of normals."""
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    n = factors[0].shape[0]
    outs = [np.empty((m, n)) for _ in factors]

    def product(chol, out):
        return lambda z, b0, b1, _: np.matmul(z, chol.T, out=out[b0:b1])

    _fill_chunks(m, seed, stream, n, [product(c, o) for c, o in zip(factors, outs)],
                 workers)
    for out in outs:
        out.setflags(write=False)
    return outs


def sample_ensemble(
    ctx: GramContext, m: int, seed: int, stream: int = 0, workers: int = 1
) -> PathEnsemble:
    """m i.i.d. draws of N(0, Sigma) via the cached Cholesky factor."""
    (paths,) = _sample_dense((ctx.chol,), m, seed, stream, workers)
    return PathEnsemble(paths, seed, "cholesky")


def _fgn_autocov(h: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * h
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def circulant_eigenvalues(h: float, n: int) -> np.ndarray:
    """FFT spectrum of the symmetric length-2n embedding of rho(0..n)."""
    rho = _fgn_autocov(h, n)
    c = np.concatenate([rho[:n], rho[n:n + 1], rho[n - 1:0:-1]])
    return np.fft.fft(c).real


def sample_ensemble_circulant(
    ctx: GramContext, m: int, seed: int, stream: int = 0, workers: int = 1
) -> PathEnsemble:
    """Circulant-embedding sampler for a one-component model (one weight
    zero) on a uniform grid: the noise of B^H, or of B (H = 1/2) when beta
    is 0, scaled by the nonzero weight.

    Falls back to the dense Cholesky sampler (with ``fallback=True``) if the
    embedding spectrum dips below -1e-9 times its maximum.

    Every buffer live in one call fits in BLOCK_BYTES together: each of the
    ``workers`` threads holds 2n normals and n + 1 complex half-spectrum
    coefficients per row of its block, and the row blocks are sized to
    that sum over all workers.  Fill, inverse FFT and cumulative sum act
    row by row, so the paths do not depend on the block size, nor on
    workers.
    """
    model = ctx.model
    if model.alpha and model.beta:
        raise ValueError("circulant sampler covers one-component models; "
                         "sample mixed components separately")
    if not ctx.grid.uniform:
        raise ValueError("circulant sampler requires a uniform grid")
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    hurst = model.hurst if model.beta else 0.5
    n = ctx.n
    g = circulant_eigenvalues(hurst, n)
    ratio = float(g.min() / g.max())
    if g.min() < -1e-9 * g.max():
        dense = sample_ensemble(ctx, m, seed, stream, workers)
        return PathEnsemble(dense.paths, seed, "cholesky", fallback=True,
                            min_eig_ratio=ratio)
    m_emb = 2 * n
    dt = ctx.grid.times[0]
    scale = (model.beta or model.alpha) * dt**hurst
    # Weights of the half spectrum: the normals z_0 and z_1 carry the real
    # coefficients 0 and n, and (z_{2..n} + i z_{n+1..2n-1}) / sqrt(2) the
    # complex ones; irfft's 1/(2n) is undone by sqrt(2n).
    w = np.sqrt(np.clip(g[:n + 1], 0.0, None)) * (np.sqrt(m_emb) * scale)
    w[1:n] /= np.sqrt(2.0)
    out = np.empty((m, n))

    def transform(z, b0, b1, half):
        # half's imaginary parts at 0 and n stay the zeros it was made with
        half = half[:b1 - b0]
        half.real[:, 0] = z[:, 0]
        half.real[:, n] = z[:, 1]
        half.real[:, 1:n] = z[:, 2:n + 1]
        half.imag[:, 1:n] = z[:, n + 1:]
        half *= w
        fgn = np.fft.irfft(half, n=m_emb, axis=1, out=z)
        np.cumsum(fgn[:, :n], axis=1, out=out[b0:b1])

    _fill_chunks(m, seed, stream, m_emb, [transform], workers,
                 scratch=lambda rows: np.zeros((rows, n + 1), dtype=complex),
                 row_bytes=workers * (8 * m_emb + 16 * (n + 1)))
    out.setflags(write=False)
    return PathEnsemble(out, seed, "circulant", min_eig_ratio=ratio)


def write_ensemble(path, ens: PathEnsemble) -> None:
    """Binary layout: magic, version u32, m u64, n u64, seed u64, then
    row-major little-endian float64 path data."""
    m, n = ens.paths.shape
    header = _ENSEMBLE_MAGIC + _HEADER.pack(_ENSEMBLE_VERSION, m, n, ens.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.paths, "<f8").data)


def read_ensemble(path) -> tuple[np.ndarray, int]:
    """Returns (paths, seed); validates magic, version and byte counts."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _ENSEMBLE_MAGIC:
            raise ValueError(f"not an ensemble file (magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated ensemble header: expected {_HEADER.size} "
                             f"bytes, got {len(header)}")
        version, m, n, seed = _HEADER.unpack(header)
        if version != _ENSEMBLE_VERSION:
            raise ValueError(f"unsupported ensemble version {version}")
        # compare sizes before reading, so a corrupt header cannot ask for
        # an arbitrarily large buffer
        expected = 8 * m * n
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise ValueError(f"ensemble payload of {m} x {n} paths needs "
                             f"{expected} bytes, file holds {actual}")
        data = np.empty((m, n), dtype="<f8")
        got = fh.readinto(data)
        if got != expected:
            raise ValueError(f"ensemble payload of {m} x {n} paths needs "
                             f"{expected} bytes, read {got}")
    return data, seed


@dataclass(frozen=True)
class ConditionalLaw:
    """Law of the trailing block given the first j coordinates.

    mean shift = mean_map @ prefix; the covariance L[j:, j:] L[j:, j:]^T
    does not depend on the prefix.
    """

    mean_map: np.ndarray  # (n - j, j)
    cov: np.ndarray       # (n - j, n - j)


def conditional_law(ctx: GramContext, j: int) -> ConditionalLaw:
    beta, cov = regression_coefficients(ctx, j, np.arange(j, ctx.n))
    return ConditionalLaw(beta.T, cov)


def regression_coefficients(
    ctx: GramContext, j: int, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional law of X[idx] given the first j coordinates.

    Returns (beta, cov): E[X[idx] | prefix] = beta.T @ prefix with
    beta = L[:j, :j]^{-T} L[idx, :j]^T of shape (j, k), and the k x k
    covariance cov = L[idx, j:] L[idx, j:]^T.  idx may contain observed
    indices (< j): their rows of L[idx, j:] are zero, so their conditional
    variance is exactly 0.
    """
    if not 0 <= j <= ctx.n:
        raise ValueError(f"adapted index {j} out of range 0..{ctx.n}")
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    chol = ctx.chol
    beta = ctx.chol_inv[:j, :j].T @ chol[idx, :j].T
    tail = chol[idx, j:]
    return beta, tail @ tail.T


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    """Cholesky of a PSD matrix, tolerating tiny negative roundoff and rank
    deficiency (an observed or repeated coordinate)."""
    factored = jittered_cholesky(cov)
    if factored is None:
        raise IllConditionedModelError("conditional covariance is not factorizable")
    return factored[0]


MAX_QUADRATURE_DIM = 4
DEFAULT_NODES = 32


@functools.lru_cache(maxsize=8)
def _hermite_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite rule normalized to N(0, 1); the cached
    arrays are read-only, so no caller can alter them for the next."""
    z, w = hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def conditional_expectation(
    ctx: GramContext,
    g,
    indices,
    j: int,
    prefix: np.ndarray,
    method: str = "quadrature",
    mc_n: int = 4096,
    rng: np.random.Generator | None = None,
) -> float:
    """E[g(X[indices]) | X_{t_1..t_j} = prefix].

    g maps an array of shape (..., len(indices)) to (...,).  Observed
    indices (< j) are substituted from the prefix; the rest integrate under
    the conditional Gaussian.  Quadrature tensorizes DEFAULT_NODES
    Gauss-Hermite points per future dimension and supports at most
    MAX_QUADRATURE_DIM of them; `method="mc"` draws mc_n conditional
    samples instead.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=int))
    prefix = np.asarray(prefix, dtype=float)
    if prefix.shape != (j,):
        raise ValueError(f"prefix must have shape ({j},), got {prefix.shape}")
    observed = indices < j
    base = np.zeros(indices.size)
    base[observed] = prefix[indices[observed]]
    fut = np.flatnonzero(~observed)
    if fut.size == 0:
        return float(g(base))
    beta, cov = regression_coefficients(ctx, j, indices[fut])
    mu = beta.T @ prefix if j else np.zeros(fut.size)
    if method == "quadrature":
        if fut.size > MAX_QUADRATURE_DIM:
            raise UnsupportedDimensionError(
                f"quadrature supports <= {MAX_QUADRATURE_DIM} future coordinates, "
                f"got {fut.size}; use method='mc'"
            )
        z, w = _hermite_nodes(DEFAULT_NODES)
        grids = np.meshgrid(*([z] * fut.size), indexing="ij")
        pts = np.stack([grid.ravel() for grid in grids], axis=-1)
        wgrids = np.meshgrid(*([w] * fut.size), indexing="ij")
        weights = np.prod(np.stack([wg.ravel() for wg in wgrids], axis=-1), axis=-1)
        chol = _chol_psd(cov)
        samples = mu[None, :] + pts @ chol.T
    elif method == "mc":
        if rng is None:
            raise ValueError("method='mc' requires an explicit rng")
        chol = _chol_psd(cov)
        samples = mu[None, :] + rng.standard_normal((mc_n, fut.size)) @ chol.T
        weights = np.full(mc_n, 1.0 / mc_n)
    else:
        raise ValueError(f"unknown method {method!r}")
    args = np.broadcast_to(base, (samples.shape[0], indices.size)).copy()
    args[:, fut] = samples
    vals = np.asarray(g(args), dtype=float)
    return float(vals @ weights)


def expect_scalar(h, mu: np.ndarray, sd) -> np.ndarray:
    """Vectorized E[h(mu_i + sd_i Z)], Z ~ N(0,1), via Gauss-Hermite.

    mu is (m,), sd scalar or (m,); h must broadcast elementwise.  Exact for
    polynomial h up to degree 2 * DEFAULT_NODES - 1, so affine and quadratic
    integrands incur no quadrature error.  It serves user-supplied maps;
    the catalog's `BasisMap` maps have closed forms, which the tests check
    against this rule.
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    z, w = _hermite_nodes(DEFAULT_NODES)
    pts = mu[..., None] + sd[..., None] * z
    return np.asarray(h(pts)) @ w
