"""Hot numeric kernels: the weighted stencil gather and counter-based uniforms.

Both are plain numpy and deterministic, so every result is bit-reproducible.
"""

import numpy as np


def using_numba() -> bool:
    """False: the kernels are numpy only (reported by the benchmark runner)."""
    return False


# -- weighted gather ---------------------------------------------------------
#
# Every grid interpolation in the package reduces to a gather-dot with a
# precomputed stencil: out[i] = sum_k values[idx[i, k]] * w[i, k].


def gather_weighted(values, idx, w):
    """Stencil application: out[i] = sum_k values[idx[i,k]] * w[i,k]."""
    acc = values[idx[:, 0]] * w[:, 0]
    for k in range(1, idx.shape[1]):
        acc = acc + values[idx[:, k]] * w[:, k]
    return acc


# -- counter-based uniform variates ------------------------------------------
#
# The splitmix64 finalizer used as a stateless counter-based generator.
# Per-path substreams come from mixing (seed, path index); the m-th variate
# of a substream is finalize(stream + (m+1) * golden).  Deterministic and
# order-free, hence independent of any worker decomposition.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_INV = 1.0 / 18446744073709551616.0  # 2**-64


def _finalize(z):
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def step_uniforms(streams, step):
    """Uniform [0,1) variates u[i] = finalize(streams[i] + (step+1)*golden) / 2**64."""
    streams = np.asarray(streams, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _finalize(streams + np.uint64(step + 1) * _GOLDEN)
    return z.astype(np.float64) * _INV


def substream(seed: int, index) -> np.ndarray:
    """64-bit substream identifiers mixed from (seed, index) pairs."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_mixed = _finalize(np.uint64(seed) + _GOLDEN)
        return _finalize(seed_mixed + idx * _GOLDEN + _GOLDEN)
