import ast

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import feller as fl
from feller.expressions import (
    ExpressionError,
    _derivative,
    _parse,
    compile_expression,
    compile_partials,
)
from feller.fields import divergence_batch

NAMES = ["x1", "x2"]  # euclidean:2, with the aliases x and y


def partial(source, j, coords):
    return compile_partials(source, NAMES)[j](coords)


@pytest.fixture
def pts(rng):
    # positive coordinates keep log, sqrt and non-integer powers real
    return rng.uniform(0.2, 2.0, size=(40, 2))


# -- one exact test per rule ------------------------------------------------------------


def test_constants_and_identifiers(pts):
    np.testing.assert_array_equal(partial("3.5", 0, pts), 0.0)
    np.testing.assert_array_equal(partial("pi", 0, pts), 0.0)
    np.testing.assert_array_equal(partial("x1", 0, pts), 1.0)
    np.testing.assert_array_equal(partial("x1", 1, pts), 0.0)
    np.testing.assert_array_equal(partial("y", 1, pts), 1.0)  # alias of x2


def test_sum_difference_and_unary_minus(pts):
    x, y = pts.T
    np.testing.assert_array_equal(partial("x + y^2", 1, pts), 2.0 * y)
    np.testing.assert_array_equal(partial("x - y", 1, pts), -1.0)
    np.testing.assert_array_equal(partial("-x", 0, pts), -1.0)
    np.testing.assert_array_equal(partial("+x", 0, pts), 1.0)


def test_product(pts):
    x, y = pts.T
    np.testing.assert_array_equal(partial("x*y", 0, pts), y)
    np.testing.assert_array_equal(partial("x*x", 0, pts), x + x)


def test_quotient(pts):
    x, y = pts.T
    np.testing.assert_array_equal(partial("x/y", 0, pts), 1.0 / y)
    np.testing.assert_array_equal(partial("x/y", 1, pts), -(x / (y * y)))


def test_power(pts):
    x, y = pts.T
    np.testing.assert_array_equal(partial("x^3", 0, pts), 3.0 * x**2.0)
    np.testing.assert_array_equal(partial("x^y", 0, pts), y * x ** (y - 1.0))
    np.testing.assert_array_equal(partial("x^y", 1, pts), x**y * np.log(x))


@pytest.mark.parametrize(
    "source, expected",
    [
        ("sin(x)", np.cos),
        ("cos(x)", lambda x: -np.sin(x)),
        ("exp(x)", np.exp),
        ("tanh(x)", lambda x: 1.0 - np.tanh(x) ** 2.0),
        ("log(x)", lambda x: 1.0 / x),
        ("sqrt(x)", lambda x: 1.0 / (2.0 * np.sqrt(x))),
        ("abs(x - 1)", lambda x: np.sign(x - 1.0)),
    ],
)
def test_functions(source, expected, pts):
    np.testing.assert_array_equal(partial(source, 0, pts), expected(pts[:, 0]))
    np.testing.assert_array_equal(partial(source, 1, pts), 0.0)


def test_chain_rule(pts):
    x = pts[:, 0]
    np.testing.assert_array_equal(partial("sin(2*x)", 0, pts), np.cos(2.0 * x) * 2.0)


def test_zero_and_one_terms_fold_away():
    table = {"x1": 0, "x2": 1}

    def d(source, j):
        return ast.unparse(_derivative(_parse(source), table, j))

    assert d("2*x2 + x1", 0) == "1.0"
    assert d("x2*sin(x2)", 0) == "0.0"
    assert d("x1*x2", 0) == "x2"
    assert d("x1^1", 0) == "1.0"
    assert d("3*x1^2 + x2", 0) == "3 * (2 * x1)"
    assert d("exp(x2)*x1", 0) == "exp(x2)"


def test_circle_divergence_is_the_exact_derivative(rng):
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.3*sin(theta)")
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(200, 1))
    np.testing.assert_allclose(divergence_batch(A, theta), 0.3 * np.cos(theta[:, 0]),
                               rtol=0.0, atol=1e-15)


def test_custom_fields_carry_partials():
    for name in ("euclidean:2", "circle", "torus2", "hyperbolic-h2", "sphere2"):
        m = fl.manifold_from_string(name)
        assert fl.field_from_string(m, "custom:" + ",".join(["1"] * m.chart_dim)).jacobian


def test_jacobian_layout():
    # J[i, j] = d_j A^i
    e2 = fl.euclidean(2)
    A = fl.expression_field(e2, ["x1*x2", "x2^2"])
    J = A.jacobian_batch(np.array([[2.0, 3.0]]))
    np.testing.assert_array_equal(J[0], [[3.0, 2.0], [0.0, 6.0]])


@pytest.mark.parametrize("source", ["x1 + phi", "foo(x1)", "sign(x1)", "x1 % 2", "'a'"])
def test_unknown_names_and_functions_are_refused(source):
    with pytest.raises(ExpressionError):
        compile_expression(source, NAMES)
    with pytest.raises(ExpressionError):
        compile_partials(source, NAMES)


# -- random expressions against central differences ----------------------------------------

LEAVES = st.sampled_from(["x1", "x2", "y", "0.5", "2", "3", "pi"])


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "sin", "cos", "exp", "tanh", "abs"]), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        # log and sqrt of arguments >= 1, powers of bases >= 1: real everywhere
        st.tuples(st.sampled_from(["log", "sqrt"]), children)
        .map(lambda t: f"{t[0]}(1+({t[1]})^2)"),
        st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children)
        .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(children, st.sampled_from(["2", "3"])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, children).map(lambda t: f"(1+({t[0]})^2)^({t[1]})"),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=8)
# coordinates on a 1e-3 lattice in [-2, 2]: much nearer to 0 the expressions
# themselves lose their low-order terms (1 + x^2 rounds to 1)
COORDS = st.integers(-2000, 2000).map(lambda k: k / 1000.0)


def _quotients(f, c, j, h):
    """Backward and forward difference quotients of f along coordinate j."""
    step = np.zeros_like(c)
    step[0, j] = h
    fm, f0, fp = (float(f(c + s)[0]) for s in (-step, 0.0 * step, step))
    return (f0 - fm) / h, (fp - f0) / h


@settings(max_examples=300, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(source=EXPRESSIONS, x1=COORDS, x2=COORDS)
def test_partials_match_central_differences(source, x1, x2):
    f = compile_expression(source, NAMES)
    c = np.array([[x1, x2]])
    with np.errstate(all="ignore"):
        exact = [float(p(c)[0]) for p in compile_partials(source, NAMES)]
        for j in range(2):
            h = 1e-5 * max(1.0, abs(c[0, j]))
            back, fwd = _quotients(f, c, j, h)
            fd, fd_half = (back + fwd) / 2.0, sum(_quotients(f, c, j, h / 2.0)) / 2.0
            assume(np.all(np.isfinite([exact[j], back, fwd, fd_half])))
            # only where f is smooth across [x - h, x + h] (no kink of abs), the
            # central quotient has settled (no pole nearby) and its rounding
            # error eps |f| / h is small
            scale = max(1.0, abs(fd))
            assume(abs(fwd - back) <= 1e-3 * scale and abs(fd - fd_half) <= 1e-8 * scale)
            assume(np.finfo(float).eps * abs(float(f(c)[0])) / h <= 1e-8 * scale)
            assert abs(exact[j] - fd) <= 1e-6 * max(1.0, abs(exact[j])), (source, j)
