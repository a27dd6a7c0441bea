import numpy as np

from feller import _kernels as K


def test_uniforms_range_and_moments():
    streams = K.substream(7, np.arange(200_000))
    u = K.step_uniforms(streams, 3)
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
    u0 = K.step_uniforms(streams, 0)
    u1 = K.step_uniforms(streams, 1)
    corr = np.corrcoef(u0, u1)[0, 1]
    assert abs(corr) < 0.02
