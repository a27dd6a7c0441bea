"""Tree, Monte-Carlo and grid evaluate one operator, S(t/n)^n, at finite n.

Property tests over the GENERAL family with a bounded, signed potential on
the parallelizable built-ins and sphere2, under every drift policy:

* tree vs MC is a z-test: the signed draw is unbiased for every c;
* tree vs grid (circle, torus2) is bounded by a refinement pair: the error
  of the 2N-node grid is at most the distance between the N- and 2N-node
  grids, at nodes both grids share.

Hypothesis runs derandomized, so every run draws the same examples, and
without shrinking, so a failure reports its first example at once.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import feller as fl
from feller.chernoff import ChernoffVariant as CV
from feller.grids import GridFunction

T, N_STEPS = 0.5, 3
# drift labels, as (policy, with B): A_0 = B, A_0 = D (the derived part) and A_0 = D + B
POLICIES = {"explicit": ("explicit", True), "derived": ("derived", False),
            "derived_plus": ("derived", True)}
PROPERTY = settings(derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate])

# per chart: diffusion fields (not all divergence-free, so the derived drift
# is not zero), the extra drift field B, the potential's shape (|.| <= 1)
# and the test function
CASES = {
    "circle": (
        ["custom:1+0.3*sin(theta)"], "constant:[0.3]",
        lambda c: np.sin(c[:, 0]), lambda c: np.cos(c[:, 0]),
    ),
    "torus2": (
        ["frame:1", "custom:0.3*cos(theta1),1"], "constant:[0.2,-0.1]",
        lambda c: np.cos(c[:, 0]) * np.sin(c[:, 1]),
        lambda c: np.cos(c[:, 0]) * np.cos(c[:, 1]),
    ),
    "euclidean:1": (
        ["custom:1+0.2*sin(x1)"], "constant:[0.3]",
        lambda c: np.sin(c[:, 0]), lambda c: np.cos(c[:, 0]),
    ),
    "hyperbolic-h2": (
        ["frame:1", "frame:2"], "constant:[0.1,0.0]",
        lambda c: np.sin(c[:, 0]), lambda c: 1.0 / (1.0 + c[:, 0] ** 2 + np.log(c[:, 1]) ** 2),
    ),
    # the rotations flow exactly and have no divergence; the custom field (e_z
    # plus 0.3 y e_x, projected) has one, so the derived drift is an RK4 field
    "sphere2": (
        ["rotational:1", "rotational:2", "rotational:3", "custom:0.3*y,0,1"], "rotational:3",
        lambda c: c[:, 2], lambda c: c[:, 0] + c[:, 1] * c[:, 2],
    ),
}


def make_spec(name, label, amplitude):
    m = fl.manifold_from_string(name)
    sources, extra, shape, f = CASES[name]
    fields = [fl.field_from_string(m, s) for s in sources]
    policy, with_b = POLICIES[label]
    drift = fl.field_from_string(m, extra) if with_b else None
    spec = fl.GeneratorSpec(fields, drift_policy=policy, drift=drift,
                            potential=lambda c: amplitude * shape(c), feller=False)
    return m, spec, f


# dt |c| <= (T / N_STEPS) 2 = 1/3: every step's weight stays positive
amplitudes = st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0))
coordinates = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("name", list(CASES))
@settings(PROPERTY, max_examples=3)
@given(amplitude=amplitudes, u=coordinates, v=coordinates)
def test_tree_and_mc_agree(name, policy, amplitude, u, v):
    m, spec, f = make_spec(name, policy, amplitude)
    x = m.point({
        "hyperbolic-h2": [u, np.exp(v)], "torus2": [u, v],
        "sphere2": [np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v)],
    }.get(name, [u]))
    tree = fl.iterate_tree(spec, CV.GENERAL, T, N_STEPS, f, x)
    mc = fl.iterate_mc(spec, CV.GENERAL, T, N_STEPS, f, x, 4000, seed=11)
    assert abs(mc.mean - tree) <= 4.0 * mc.stderr, (tree, mc)


GRIDS = {"circle": (32,), "torus2": (16, 16)}


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("name", list(GRIDS))
@settings(PROPERTY, max_examples=2)
@given(amplitude=amplitudes, node=st.integers(0, 2**16))
def test_grid_error_within_its_refinement_step(name, policy, amplitude, node):
    m, spec, f = make_spec(name, policy, amplitude)
    shape = GRIDS[name]
    coarse = fl.iterate_grid(spec, CV.GENERAL, T, N_STEPS, GridFunction.from_function(m, shape, f))
    fine = fl.iterate_grid(spec, CV.GENERAL, T, N_STEPS,
                           GridFunction.from_function(m, tuple(2 * k for k in shape), f))
    # four coarse nodes, each a fine node too: (i_1, .., i_d) -> (2 i_1, .., 2 i_d)
    picks = np.random.default_rng(node).integers(0, shape, size=(4, len(shape)))
    err, step = 0.0, 0.0
    for idx in picks:
        x = m.point(2.0 * np.pi * idx / np.array(shape))
        tree = fl.iterate_tree(spec, CV.GENERAL, T, N_STEPS, f, x)
        g_coarse, g_fine = coarse.values[tuple(idx)], fine.values[tuple(2 * idx)]
        err, step = max(err, abs(g_fine - tree)), max(step, abs(g_coarse - g_fine))
    assert 0.0 < err <= step, (err, step)
