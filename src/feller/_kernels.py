"""Hot numeric kernels: the weighted stencil gather and counter-based random words.

Both are plain numpy and deterministic, so every result is bit-reproducible.
"""

import numpy as np


def using_numba() -> bool:
    """False: the kernels are numpy only (reported by the benchmark runner)."""
    return False


# -- weighted gather ---------------------------------------------------------
#
# Every grid interpolation in the package reduces to a gather-dot with a
# precomputed stencil: out[i] += sum_k values[idx[i, k]] * w[i, k].  Stencils
# from ``grids`` are column-major, so every ``idx[:, k]`` read below is
# contiguous, and so is every ``w[:, k]`` but in a translated stencil, whose
# weights are one row broadcast down the rows: there each ``w[:, k]`` has
# stride 0, one weight for every row.  A stencil also names its live
# columns, those with a nonzero weight in some row; the kernel reads only
# those, in increasing order.  A skipped term is values[..] * (+-0), so the
# sum differs only where it would be a signed zero, or where a zero-weight
# neighbour is inf or nan (which then no longer reaches the result).  Each
# column is gathered into one scratch array, scaled and added to the result
# in place, so a sweep sums the gathers of all its stencils into one buffer,
# and on a zeroed buffer the products and their order of summation are those
# of the plain sum (0 + x = x).  ``np.take(mode="wrap")`` writes straight
# into its output (``mode="raise"`` would buffer it); it is exact because
# ``grids`` builds or checks every index in range once per stencil.


def gather_weighted(values, idx, w, cols=None, out=None):
    """Stencil application: out[i] += sum_k values[idx[i,k]] * w[i,k], over the
    columns ``cols`` (every column when None) in the order given; ``values``
    and ``w`` are float arrays, and none of the inputs is written.  The sum is
    added into ``out`` when given (shape ``(m,)``, the dtype of ``values``),
    else into a new array of zeros, and returned."""
    if cols is None:
        cols = range(idx.shape[1])
    if out is None:
        out = np.zeros(idx.shape[0], dtype=np.result_type(values, w))
    term = np.empty_like(out)
    for k in cols:
        np.take(values, idx[:, k], mode="wrap", out=term)
        term *= w[:, k]
        out += term
    return out


# -- counter-based random words ----------------------------------------------
#
# The splitmix64 finalizer used as a stateless counter-based generator
# (Salmon et al., SC 2011).  Per-path substreams come from mixing (seed, path
# index); the m-th word of a substream is finalize(stream + (m+1) * golden),
# uniform on [0, 2^64).  Callers compare the raw words with integer
# thresholds, so no word is ever rounded to a float.  Deterministic and
# order-free, hence independent of any worker decomposition.  The finalizer
# runs its eight passes in place over the whole array, with one scratch array
# of the same size: a sampler step draws at most ``chernoff._SAMPLE_ROWS``
# words (256 KiB).

_WORD = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
    (np.uint64(31), None),
)


def _finalize(z):
    """splitmix64's finalizer, in place on the uint64 array ``z``."""
    t = np.empty_like(z)
    for shift, mix in _ROUNDS:
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        if mix is not None:
            np.multiply(z, mix, out=z)
    return z


def _plus(words, c: int):
    """uint64 array words + c (mod 2^64), in a new buffer."""
    return np.add(words, np.uint64(c % _WORD), out=np.empty_like(words))


def step_uniforms(streams, step):
    """Words z[i] = finalize(streams[i] + (step+1)*golden), uniform on [0, 2^64) as uint64."""
    return _finalize(_plus(np.asarray(streams, dtype=np.uint64), (step + 1) * _GOLDEN))


def substream(seed: int, index) -> np.ndarray:
    """64-bit substream identifiers mixed from (seed, index) pairs.

    ValueError unless ``0 <= seed < 2^64``.
    """
    if not 0 <= seed < _WORD:
        raise ValueError("seed must be in [0, 2^64)")
    seed_mixed = int(_finalize(_plus(np.array(seed, dtype=np.uint64), _GOLDEN)))
    idx = np.asarray(index, dtype=np.uint64)
    words = np.multiply(idx, np.uint64(_GOLDEN), out=np.empty_like(idx))
    return _finalize(_plus(words, seed_mixed + _GOLDEN))
