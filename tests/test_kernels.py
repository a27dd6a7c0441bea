import numpy as np
import pytest

from feller import _kernels as K


def _uniforms(streams, step):
    """The words of ``step`` scaled to [0, 1]."""
    words = K.step_uniforms(streams, step)
    assert words.dtype == np.uint64
    return words * 2.0**-64


def test_uniforms_range_and_moments():
    streams = K.substream(7, np.arange(200_000))
    u = _uniforms(streams, 3)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_substreams_distinct_and_deterministic():
    a = K.substream(1, np.arange(1000))
    b = K.substream(1, np.arange(1000))
    c = K.substream(2, np.arange(1000))
    np.testing.assert_array_equal(a, b)
    assert len(np.unique(a)) == 1000
    assert not np.array_equal(a, c)


def test_step_decorrelated():
    streams = K.substream(3, np.arange(50_000))
    u0 = _uniforms(streams, 0)
    u1 = _uniforms(streams, 1)
    corr = np.corrcoef(u0, u1)[0, 1]
    assert abs(corr) < 0.02


def _splitmix64(z: int) -> int:
    """splitmix64's finalizer on one Python integer (mod 2^64)."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 7, 2**64 - 1])
def test_words_are_splitmix64_of_the_counter(seed):
    golden, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    index = np.array([0, 1, 2, 999, 2**40])
    streams = K.substream(seed, index)
    mixed = _splitmix64((seed + golden) & mask)
    want = [_splitmix64((mixed + int(i) * golden + golden) & mask) for i in index]
    assert streams.tolist() == want
    for step in (0, 7, 2**33):
        want_z = [_splitmix64((w + (step + 1) * golden) & mask) for w in want]
        assert K.step_uniforms(streams, step).tolist() == want_z


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_a_word_is_refused(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        K.substream(seed, np.arange(3))


def _stencil_with_dead_columns(rng, dead, m=300, k=16, nodes=50):
    """A random column-major stencil whose columns ``dead`` hold signed zeros."""
    idx = np.asfortranarray(rng.integers(0, nodes, size=(m, k)))
    w = np.asfortranarray(rng.normal(size=(m, k)))
    w[:, dead] = rng.choice([0.0, -0.0], size=(m, len(dead)))
    live = tuple(j for j in range(k) if j not in dead)
    return idx, w, live


@pytest.mark.parametrize("dead", [[0], [0, 2, 3, 15], [4, 5, 6, 7, 12], list(range(1, 16))])
def test_gather_over_the_live_columns_equals_the_full_gather(rng, dead):
    idx, w, live = _stencil_with_dead_columns(rng, dead)
    values = rng.normal(size=50)
    assert np.array_equal(K.gather_weighted(values, idx, w, live), K.gather_weighted(values, idx, w))


def test_a_nan_behind_a_zero_weight_no_longer_reaches_the_result(rng):
    idx, w, live = _stencil_with_dead_columns(rng, [0, 3])
    idx[:, 3] = 50  # a node that only the dead column 3 reads
    values = np.append(rng.normal(size=50), np.nan)
    assert not np.isnan(K.gather_weighted(values, idx, w, live)).any()
    assert np.isnan(K.gather_weighted(values, idx, w)).all()


def test_a_stencil_without_live_columns_gives_zeros(rng):
    idx, w, live = _stencil_with_dead_columns(rng, list(range(16)))
    assert live == ()
    out = K.gather_weighted(np.full(50, np.nan), idx, w, live)
    assert out.shape == (300,) and out.dtype == float and not out.any()


@pytest.mark.parametrize("cols", [(1, 4, 5, 9), (15, 2, 7), (0,)])
def test_gather_leaves_its_inputs_and_sums_the_columns_in_the_given_order(rng, cols):
    # the kernel accumulates in place, in arrays of its own: read-only inputs
    # are accepted, and the result is the plain left-to-right sum bit for bit
    idx, w, _ = _stencil_with_dead_columns(rng, [3, 4])
    values = rng.normal(size=50)
    for a in (values, idx, w):
        a.setflags(write=False)
    want = values[idx[:, cols[0]]] * w[:, cols[0]]
    for k in cols[1:]:
        want = want + values[idx[:, k]] * w[:, k]
    got = K.gather_weighted(values, idx, w, cols)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cols", [(1, 4, 5, 9), (15, 2, 7), (0,), ()])
def test_gather_into_a_buffer_returns_it_with_the_bits_of_a_new_array(rng, cols):
    idx, w, _ = _stencil_with_dead_columns(rng, [3, 4])
    values = rng.normal(size=50)
    inputs = [values, idx, w]
    saved = [a.tobytes() for a in inputs]
    buf = np.full(idx.shape[0], np.nan)
    got = K.gather_weighted(values, idx, w, cols, out=buf)
    assert got is buf
    assert buf.tobytes() == K.gather_weighted(values, idx, w, cols).tobytes()
    assert [a.tobytes() for a in inputs] == saved
