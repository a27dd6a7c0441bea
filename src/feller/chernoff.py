"""Chernoff shift-operator families S(t) and the iterated composition S(t/n)^n.

The general family averages function values along integral curves of the
generator's fields,

    (S(t)f)(x) = 1/(4r) sum_j [ f(gamma_{x,A_j}(sqrt(2rt)))
                              + f(gamma_{x,-A_j}(sqrt(2rt))) ]
               + 1/2 f(gamma_{x,A_0}(2t)) + t c(x) f(x),

and satisfies S(t)f = f + t (L f) + o(t), so S(t/n)^n converges to the
semigroup generated by L.  Variants:

* ``GENERAL`` - the family above;
* ``DRIFTLESS_CORRECTED`` - drift-free form with weights 1/(2r) and flow
  time sqrt(rt): consistent with the same generator;
* ``DRIFTLESS_LITERAL`` - drift-free form with weights 1/(2r) but flow time
  sqrt(2rt).  Its first-order expansion is f + 2t L f, i.e. it approximates
  the semigroup at double speed; it is provided so the discrepancy can be
  measured (see ``consistency_defect``), not silently repaired;
* ``HEAT_GEODESIC`` - geodesic steps with initial velocities
  +-sqrt(d) e_k for time sqrt(t), weights 1/(2d), realizing half the
  Laplace-Beltrami operator on parallelizable manifolds.

``branch_moves`` is the one description of a step: the branch table of
S(.) in draw order (for ``GENERAL`` the drift first, then +A_1, -A_1, ..,
+A_r, -A_r, then with c != 0 the identity with the signed weight s c(x)),
each branch with its weight and the data of its move at the step time s.
``move_rows`` is the one place rows move: row i by branch ``idx[i]``, the
rows of one field (``-A_j`` flows ``A_j`` for ``-tau``) in one
``flow_batch`` call with one signed time per row, the group-shift rows in
one ``compose``; ``_level`` is the one expansion of a level of S(s), for
``iterate_tree`` and ``apply_S_batch``, the one S(t).  Three evaluation
strategies for S(t/n)^n f read the table at s = t/n: exact tree recursion
(``iterate_tree``, the oracle), semi-Lagrangian grid sweeps
(``iterate_grid``) and Monte-Carlo path sampling (``iterate_mc``).
``sample_steps`` is the one sample loop, shared by ``iterate_mc`` and the
random walks of ``walks`` (which read the ``GENERAL`` table at s = 1/n);
``sample_endpoints`` calls it once per block of ``_SAMPLE_ROWS`` rows for
``iterate_mc`` and ``walks.walk_endpoints`` and holds the product tables
of every block.  When every row starts at one point, the loop moves one row
per distinct draw history while those are few.  The tree, too, is evaluated
in chunks of at most ``_CHUNK_LEAVES`` leaves, so neither the tree nor the
sampler holds more than one block of points at a time, whatever the leaf or
sample count.
Wherever a strategy evaluates the potential branch's weight,
``dt * |c| > 1`` raises ``PotentialStepError``.

Every parallelizable built-in is a Lie group whose frame is left-invariant:
R^d, the circle and torus2 under addition, H2 as the ``ax+b`` group.  Each
heat-geodesic branch is therefore right-multiplication by one fixed group
element ``h_b(s)``, the frame geodesic from the identity: it carries
``shift(s) -> h_b(s)`` and its manifold's ``compose``.

Draws are integer: one splitmix64 word per row and step against the
thresholds of ``_thresholds``, or, for a table of 2^m branches of weight
exactly 2^-m and no signed branch (the heat-geodesic tables on the circle,
torus2, H2 and R^d for d = 1, 2 and 4, and the driftless tables for r = 1,
2 and 4), one shift ``z >> (64 - m)``, which draws the same index
(``_draw_shift``).  With the signed branch a row draws with probability
|weight| / M, M = 1 + |s c(x)|, and carries a signed mass (Del Moral,
*Feynman-Kac Formulae*, 2004, ch. 2).  A heat-geodesic MC path folds k
draws into one gather from a table of group products (``sample_steps``), and
a heat-geodesic tree chunk folds its last levels into one broadcast
``compose`` of its nodes against such a table (``iterate_tree``); both move
by rounding only.  A table folds whenever every branch is a group shift.
``compose`` returns column-major rows, and the sampler's blocks are
column-major too, so each coordinate is read and written as one contiguous
column.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ._kernels import step_uniforms, substream
from .errors import BudgetExceededError, PotentialStepError, VariantIncompatibleError
from .fields import GeneratorSpec, VectorField, apply_generator
from .flows import DEFAULT_ODE, OdeSettings, flow_batch
from .grids import GridFunction
from .manifolds import Point

DEFAULT_TREE_BUDGET = 10**7


class ChernoffVariant(enum.Enum):
    GENERAL = "general"
    DRIFTLESS_CORRECTED = "driftless-corrected"
    DRIFTLESS_LITERAL = "driftless-literal"
    HEAT_GEODESIC = "heat-geodesic"

    @classmethod
    def from_string(cls, s: str) -> "ChernoffVariant":
        key = s.strip().lower().replace("_", "-")
        for v in cls:
            if v.value == key:
                return v
        raise ValueError(f"unknown Chernoff variant {s!r}")


def check_steps(t: float, n: int) -> None:
    """Refuse a step count below 1 and a time that is negative, NaN or infinite
    (every strategy and walk)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be >= 0 and finite")


def _potential_step(spec: GeneratorSpec, dt: float, coords: np.ndarray) -> np.ndarray:
    """``dt * c`` at the rows of ``coords``; PotentialStepError where
    ``dt * |c| > 1`` (every strategy and apply_S_batch)."""
    pot = dt * spec.potential_values(coords)
    worst = float(np.abs(pot).max(initial=0.0))
    if worst > 1.0:
        raise PotentialStepError(
            f"dt*|c| reaches {worst:.4g} > 1 at step dt = {dt:.4g}: "
            "the potential term outweighs the step; raise n"
        )
    return pot


@dataclass(frozen=True)
class Branch:
    """One branch of S(s): its exact weight, its label and the data of its move.

    ``move_rows`` reads the move; a branch carries one of three kinds:

    * a flow: its ``field``, the ``ode`` settings and the signed flow time
      ``time(s)`` at step time s (``2s``, ``sqrt(2rs)`` or ``sqrt(rs)``; the
      ``-A_j`` branch flows ``A_j`` itself for ``-tau(s)``);
    * a group shift (every heat-geodesic branch): right-multiplication by the
      element ``shift(s)`` of its manifold, whose product is ``compose``;
    * the potential's identity: ``weight`` 0 and the signed per-row weight
      ``signed(coords, s) = s c(x)``.
    """

    weight: Fraction
    label: str
    field: Optional[VectorField] = None
    time: Optional[Callable] = None
    ode: Optional[OdeSettings] = None
    shift: Optional[Callable[[float], np.ndarray]] = None
    compose: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    signed: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def weight_at(self, coords: np.ndarray, s: float):
        """The weight at step time s: a float, or ``s c`` at the rows of ``coords``."""
        return float(self.weight) if self.signed is None else self.signed(coords, s)


def branch_moves(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    ode: OdeSettings = DEFAULT_ODE,
) -> list[Branch]:
    """The branch table of S(.): every branch in draw order with its exact weight.

    ``GENERAL`` lists the drift ``spec.drift_field()`` first, then ``+A_1,
    -A_1, .., +A_r, -A_r``; the driftless variants list ``+-A_j`` and accept
    a spec exactly when ``spec.drift_field().is_zero``, whatever its drift
    policy; ``HEAT_GEODESIC`` lists the geodesics with initial velocities
    ``+-sqrt(d) e_k``.  A potential, only with ``GENERAL``, is the signed
    identity branch, last.
    """
    m = spec.manifold
    branches: list[Branch] = []

    def flow_branch(weight, label, field, time):
        return Branch(weight, label, field=field, time=time, ode=ode)

    def field_pairs(weight, tau, tau_label):
        for j, f in enumerate(spec.fields, start=1):
            branches.append(flow_branch(weight, f"flow(+A_{j}, {tau_label})", f, tau))
            branches.append(
                flow_branch(weight, f"flow(-A_{j}, {tau_label})", f, lambda s: -tau(s))
            )

    if variant is ChernoffVariant.GENERAL:
        r = spec.r
        drift = spec.drift_field()
        branches.append(flow_branch(Fraction(1, 2), "flow(A_0, 2s)", drift, lambda s: 2.0 * s))
        field_pairs(Fraction(1, 4 * r), lambda s: np.sqrt(2.0 * r * s), "sqrt(2rs)")
    elif variant in (ChernoffVariant.DRIFTLESS_CORRECTED, ChernoffVariant.DRIFTLESS_LITERAL):
        if not spec.drift_field().is_zero:
            raise VariantIncompatibleError(f"{variant.value} requires A_0 = 0")
        r = spec.r
        if variant is ChernoffVariant.DRIFTLESS_CORRECTED:
            field_pairs(Fraction(1, 2 * r), lambda s: np.sqrt(r * s), "sqrt(rs)")
        else:
            field_pairs(Fraction(1, 2 * r), lambda s: np.sqrt(2.0 * r * s), "sqrt(2rs)")
    elif variant is ChernoffVariant.HEAT_GEODESIC:
        if m.identity is None:
            raise VariantIncompatibleError(
                f"heat-geodesic requires a parallelizable manifold, not {m.name}"
            )
        d = m.dim
        root_d = math.sqrt(d)
        frame = m.frame_batch(m.identity[None, :])

        def geo_branch(k, sign, mark):
            # the frame is left-invariant: the geodesic from x is x times the
            # geodesic from the identity
            v = sign * root_d * frame[k, 0]
            shift = lambda s: m.geodesic_shift(v, math.sqrt(s))
            label = f"geodesic({mark}sqrt(d) e_{k + 1}, sqrt(s))"
            return Branch(Fraction(1, 2 * d), label, shift=shift, compose=m.compose)

        for k in range(d):
            for sign, mark in ((+1.0, "+"), (-1.0, "-")):
                branches.append(geo_branch(k, sign, mark))
    else:  # pragma: no cover
        raise ValueError(variant)

    assert sum(b.weight for b in branches) == 1
    if spec.potential is not None:
        if variant is not ChernoffVariant.GENERAL:
            raise VariantIncompatibleError(f"{variant.value} requires c = 0")
        signed = lambda coords, s: _potential_step(spec, s, coords)
        branches.append(Branch(Fraction(0), "identity, s c(x)", signed=signed))
    return branches


def move_rows(branches: Sequence[Branch], coords: np.ndarray, idx, s) -> np.ndarray:
    """Row i of ``coords`` moved by branch ``idx[i]`` at step time s, as a new array.

    The one place rows move.  ``idx`` is one branch index per row, or one for
    every row; ``s`` is a scalar, or for a flow table one step time per row.
    The rows of one field (``+A_j`` and ``-A_j``) move in one ``flow_batch``
    call with one signed time per row, the shift rows in one ``compose`` with
    one group element per row, and the rows of the potential's identity stay
    put.  Both moves act row by row, so each row gets the bits it would get
    alone.
    """
    idx = np.broadcast_to(idx, coords.shape[:1])
    movers: dict = {}
    for j, br in enumerate(branches):
        # the identity's rows stay put; row masks find the drawn branches, as
        # np.unique and np.isin allocate per-row index arrays
        if br.signed is None and (idx == j).any():
            movers.setdefault(br.compose if br.field is None else (br.field, br.ode), []).append(j)
    out = None
    for members in movers.values():
        mask = np.logical_or.reduce([idx == j for j in members])
        every = mask.all()
        sub = slice(None) if every else mask  # a view, not a copy, of every row
        lead = branches[members[0]]
        if lead.field is None:
            vals = np.array([branches[j].shift(s) for j in members])
        else:
            s_sub = s if np.ndim(s) == 0 else np.asarray(s)[sub]
            vals = np.array([branches[j].time(s_sub) for j in members])
        # a lone branch passes its shift or time as it is; several pick one per row
        if len(members) == 1:
            vals = vals[0]
        else:
            which = np.searchsorted(members, idx[sub])
            vals = vals[which] if np.ndim(s) == 0 else vals[which, np.arange(which.size)]
        if lead.field is None:
            moved = lead.compose(coords[sub], vals)
        else:
            moved = flow_batch(lead.field, coords[sub], vals, lead.ode)
        if every:  # one mover holds every row
            return moved
        if out is None:
            out = np.array(coords, dtype=float)
        out[mask] = moved
    return np.array(coords, dtype=float) if out is None else out


# a folded block of draws indexes a table of at most this many group products
_TABLE_ROWS = 4096


def _thresholds(branches: Sequence[Branch]) -> list:
    """Thresholds ``T_j = ceil(cumw_j * 2^64)`` of every branch but the last.

    A word z, uniform on [0, 2^64), draws branch ``sum_j (T_j <= z)``: the
    first branch whose cumulative weight exceeds ``z / 2^64``, compared
    exactly.  Only the last cumulative weight, 1, would not fit a word.  With
    the signed branch last, ``T_j = cumw_j`` as floats and z is ``u M``, u =
    ``(word >> 11) 2^-53`` and M = ``1 + |s c|``: ``u M >= 1`` draws it.
    """
    cumw, out = Fraction(0), []
    for br in branches[:-1]:
        cumw += br.weight
        T = -(-(cumw.numerator << 64) // cumw.denominator)
        out.append(np.uint64(T) if branches[-1].signed is None else float(cumw))
    return out


def _draw_shift(branches: Sequence[Branch]):
    """``64 - m`` when the table is b = 2^m >= 2 branches of weight exactly 1/b
    (so none is the signed branch, of weight 0); else None.

    Then ``T_j = j 2^(64-m)``, so ``T_j <= z`` exactly when ``j <= z >> (64 - m)``:
    the word z draws branch ``z >> (64 - m)``, its top m bits, the index
    ``sum_j (T_j <= z)`` without a pass per threshold (Knuth and Yao, 1976).
    """
    b = len(branches)
    m = b.bit_length() - 1
    if b < 2 or b != 1 << m or any(br.weight != Fraction(1, b) for br in branches):
        return None
    return np.uint64(64 - m)


def _block_len(b: int) -> int:
    """The largest k with ``b^k <= _TABLE_ROWS`` for ``b >= 2`` branches: the
    draws folded into one index."""
    k = 1
    while b ** (k + 1) <= _TABLE_ROWS:
        k += 1
    return k


def _products(H: np.ndarray, k: int, compose) -> np.ndarray:
    """The ``b^k`` products ``h_{d_1} ... h_{d_k}``, in row ``sum_i d_i b^(k-i)``.

    ``H`` holds one row per branch: group elements with the manifold's
    ``compose``, or weights as a column with ``np.multiply``.
    """
    P = H
    for _ in range(k - 1):
        P = compose(P[:, None, :], H[None, :, :]).reshape(-1, H.shape[1])
    return P


def sample_steps(
    branches: Sequence[Branch],
    s: float,
    coords: np.ndarray,
    streams: np.ndarray,
    steps: int,
    mass: Optional[np.ndarray] = None,
    tables: Optional[dict] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The branch chain: ``steps`` draws moving the rows of ``coords`` in place.

    Step m draws the word ``z = step_uniforms(streams, m)`` per row and takes
    branch ``sum_j (T_j <= z)`` over the thresholds of ``_thresholds``, or,
    for a table of ``2^m`` equal weights without the signed branch (the
    heat-geodesic tables, and the driftless ones for r = 1, 2 and 4), the
    same index as one shift, ``z >> (64 - m)`` (``_draw_shift``); a
    table with the signed branch needs ``mass``, each row's signed mass,
    which takes M per step, negated where the draw is a negative weight.
    The loop runs in blocks of k steps and yields once per block: the
    block's draws and ``coords`` as they are before the block's moves (the
    live array: copy what must be kept); the moves run when the caller asks
    for the next block.

    With a branch that is not a group shift, k = 1: each step yields its
    branch indices, and ``move_rows`` moves the rows by them.  When every
    row starts at one point, the rows of one draw history hold the same
    coordinates: the loop numbers the histories (``np.unique`` of ``hist *
    b + drawn``), moves one row per history and branch and scatters the
    result back, as long as the histories times b stay within the rows; then
    every row moves.  A flow endpoint does not depend on its batch, so the
    endpoints keep their bits.

    When every branch is a group shift, a path is a random walk on the
    group, ``x h_{d_1} ... h_{d_n}``.  Then k is the largest integer with
    ``b^k <= 4096`` for b branches (6 for b = 4, 12 for b = 2), a block
    yields its draws folded into one index ``sum_i d_i b^(k-i)``, and it
    moves all rows by one gather from a table of the ``b^k`` products and
    one ``compose``.  The tables (one for the last ``steps mod k`` draws)
    are built by repeated ``compose``, so endpoints differ from
    ``move_rows`` step by step by rounding only.  They are kept in ``tables``
    by their number of draws: the caller's dict (``sample_endpoints`` passes
    one for all its blocks), else one of this call.
    """
    b = len(branches)
    thresholds, shift = _thresholds(branches), _draw_shift(branches)
    signed = branches[-1].signed
    folded = all(br.shift is not None for br in branches)
    k = _block_len(b) if folded else 1
    if folded:
        compose = branches[0].compose
        H = np.array([br.shift(s) for br in branches])
    tables = {} if tables is None else tables
    index_type = np.min_scalar_type(b**k - 1)  # narrow indices fold faster
    hist = None if folded or (coords != coords[:1]).any() else np.zeros(len(coords), np.intp)
    for start in range(0, steps, k):
        size = min(k, steps - start)
        for step in range(start, start + size):
            z = step_uniforms(streams, step)
            if step == start:
                idx = np.zeros(z.shape, dtype=index_type)
            else:
                idx *= b
            if signed is not None:  # u M >= 1 draws the signed branch
                weight = signed(coords, s)
                scale = 1.0 + np.abs(weight)
                z = (z >> np.uint64(11)) * 2.0**-53 * scale
                mass *= np.where((z >= 1.0) & (weight < 0.0), -scale, scale)
            if shift is not None:  # z is this step's own array: shift it in place
                z >>= shift
                idx += z.astype(index_type)
            else:
                for T in thresholds:
                    idx += T <= z
        yield idx, coords
        if folded:
            if size not in tables:
                tables[size] = _products(H, size, compose)
            coords[...] = compose(coords, np.take(tables[size], idx, axis=0))
        elif hist is None:
            coords[...] = move_rows(branches, coords, idx, s)
        else:
            keys, first, hist = np.unique(hist * b + idx, return_index=True, return_inverse=True)
            coords[...] = move_rows(branches, coords[first], keys % b, s)[hist]
            if keys.size * b > coords.shape[0]:
                hist = None


# the endpoint sampler runs this many rows at a time
_SAMPLE_ROWS = 32768


def sample_endpoints(
    branches: Sequence[Branch],
    s: float,
    x: Point,
    rows: int,
    seed: int,
    steps: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Endpoints of ``rows`` branch chains of ``steps`` draws at step time s from x.

    Row i draws from ``substream(seed, i)``.  The rows run in blocks of
    ``_SAMPLE_ROWS``, one ``sample_steps`` call each; each block yields
    ``(lo, coords, mass)``: its first row index, its endpoints and their
    signed masses (all 1 for a table without a signed branch).  Every row's
    draws and moves depend on its index alone, so the blocks reproduce one
    whole-batch run bit for bit, in memory that does not grow with ``rows``.
    A block's endpoints are column-major (F-contiguous).
    The product tables are held here for every block, so each is built once
    per call.
    """
    tables: dict = {}
    # no rows still run one empty block, which checks the seed
    for lo in range(0, max(rows, 1), _SAMPLE_ROWS):
        hi = min(lo + _SAMPLE_ROWS, rows)
        # column-major, as ``compose`` returns its rows: each coordinate is
        # one contiguous column
        coords = np.broadcast_to(x.coords, (hi - lo, x.coords.shape[0])).copy(order="F")
        mass = np.ones(hi - lo)
        # the streams die with the loop: held over the yield, they raised the
        # peak RSS of 5e5 H2 paths by 1.3 MB
        for _ in sample_steps(
            branches, s, coords, substream(seed, np.arange(lo, hi)), steps, mass, tables
        ):
            pass
        yield lo, coords, mass


def _level(branches: Sequence[Branch], pts: np.ndarray, wts: np.ndarray, s: float):
    """One level of S(s) from the nodes ``pts`` of weights ``wts``: the leaves,
    branch-major (leaf ``j * len(pts) + i`` is node i moved by branch j, in one
    ``move_rows`` call), and their weights."""
    b = len(branches)
    leaves = move_rows(branches, np.tile(pts, (b, 1)), np.repeat(np.arange(b), len(pts)), s)
    return leaves, np.concatenate([br.weight_at(pts, s) * wts for br in branches])


def apply_S_batch(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    coords: np.ndarray,
    ode: OdeSettings = DEFAULT_ODE,
) -> np.ndarray:
    """(S(t)f) at a batch of coordinate rows: per row ``sum_i w_i f(p_i)``, the
    last term ``t c(x) f(x)`` with a potential."""
    check_steps(t, 1)
    branches, rows = branch_moves(spec, variant, ode), coords.shape[0]
    moved, weights = _level(branches, coords, np.ones(rows), t)
    terms = (weights * np.asarray(f(moved), dtype=float)).reshape(len(branches), rows)
    return sum(terms, np.zeros(rows))  # in table order: np.sum reassociates one row's terms


# the tree is evaluated in chunks of at most this many leaves, each grown from
# at least _CHUNK_NODES nodes: chunks grown from one node each run slower.  A
# folded chunk's product table is never larger than the sampler's.
_CHUNK_NODES = 16
_CHUNK_LEAVES = _CHUNK_NODES * _TABLE_ROWS


def iterate_tree(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    budget: int = DEFAULT_TREE_BUDGET,
    ode: OdeSettings = DEFAULT_ODE,
) -> float:
    """Exact (S(t/n)^n f)(x) by full expansion of the branch tree.

    The leaf count is ``b^n`` for b branches (a potential is one) and must
    stay within ``budget``.  The first levels expand breadth-first, one
    ``_level`` each, to a frontier; the last ``depth = min(n, _block_len(b))``
    levels expand one chunk of frontier nodes at a time (the largest depth
    with ``_CHUNK_NODES * b^depth <= _CHUNK_LEAVES``).
    Each chunk of at most ``_CHUNK_LEAVES`` leaves is evaluated by ``f`` and
    its weighted sum added to a running total, chunk by chunk in frontier
    order, so memory does not grow with the leaf count.

    When every branch is a group shift (the ``HEAT_GEODESIC`` tables), a
    chunk's ``depth`` levels are folded as in ``sample_steps``: its leaves
    are one broadcast ``compose`` of its nodes against the ``b^depth``
    products of ``_products``, node-major, weighted by the products of the
    branch weights, and the chunk sums as
    ``fw @ (f(leaves).reshape(nodes, b^depth) @ wP)``.  Its value differs
    from a whole-tree expansion by rounding only.  Otherwise each chunk
    expands level by level, one ``_level`` each: a tree of at most
    ``_CHUNK_LEAVES`` leaves is one chunk, summed by one dot product in the
    order of a whole-tree expansion, and a larger tree's sum differs from
    that by rounding only.  Deterministic and bit-reproducible for fixed ode
    settings.
    """
    spec.manifold._check_point(x)
    check_steps(t, n)
    dt = t / n
    branches = branch_moves(spec, variant, ode)
    b = len(branches)
    if b**n > budget:
        raise BudgetExceededError(
            f"{b}^{n} leaf evaluations exceed the budget of {budget}"
        )

    depth = min(n, _block_len(b))
    frontier, fw = x.coords[None, :].copy(), np.ones(1)
    for _ in range(n - depth):
        frontier, fw = _level(branches, frontier, fw, dt)
    per_chunk = max(_CHUNK_LEAVES // b**depth, 1)
    folded = all(br.shift is not None for br in branches)
    if folded:
        compose = branches[0].compose
        leaves = b**depth
        H = np.array([br.shift(dt) for br in branches])
        P = _products(H, depth, compose)
        W = np.array([[float(br.weight)] for br in branches])
        wP = _products(W, depth, np.multiply)[:, 0]
    total = 0.0
    for lo in range(0, frontier.shape[0], per_chunk):
        nodes, wts = frontier[lo : lo + per_chunk], fw[lo : lo + per_chunk]
        if folded:
            # node-major leaves, node i's in rows i * leaves .. (i + 1) * leaves:
            # one broadcast compose, column-major
            pts = compose(nodes[:, None, :], P[None, :, :]).reshape(-1, nodes.shape[1])
            vals = np.asarray(f(pts), dtype=float).reshape(len(nodes), leaves)
            total += float(wts @ (vals @ wP))
        else:
            for _ in range(depth):
                nodes, wts = _level(branches, nodes, wts, dt)
            total += float(np.asarray(f(nodes), dtype=float) @ wts)
    return total


def iterate_grid(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f0: GridFunction,
    ode: OdeSettings = DEFAULT_ODE,
) -> GridFunction:
    """n semi-Lagrangian sweeps of S(t/n) applied to a grid function.

    On the grid S(t/n) is a sum of stencils, one per branch, each carrying
    its branch weight (the potential's identity: ``s c(x)`` on each node's
    own column).  The branch displacement of every node is precomputed once
    (the fields are autonomous), one ``move_rows`` call per branch, so each
    sweep is a handful of stencil gathers: cost O(n * nodes * branches).
    A group shift on a chart with a group (``identity``) whose grid axes are
    all periodic translates the grid angles, so it moves one row, the
    identity, which is node 0, and takes ``shift_stencil`` of it: one row
    of weights for every node, and no per-node stencil build.  The linear
    grid's displacement warning reads that row's distance.  Every other
    branch moves every node and takes ``build_stencil`` of the targets.
    A sweep fills the padded values (``flat_values``; on a chart without
    padding, a view of the current values), zeroes the next values, adds
    every stencil's gather into them in branch order and swaps the two.
    Beyond these buffers of the call, a sweep allocates only the gather
    kernel's scratch column.
    """
    if f0.manifold is not spec.manifold:
        raise VariantIncompatibleError("grid and generator live on different manifolds")
    check_steps(t, n)
    dt = t / n
    m = spec.manifold
    branches = branch_moves(spec, variant, ode)
    nodes = f0.node_coords()
    # every weight before any move: the potential's check fires before any flow runs
    weights = [br.weight_at(nodes, dt) for br in branches]
    # on a group chart whose grid axes are all periodic, node 0 is the
    # identity and a shift translates the grid angles: every node moves as
    # node 0 does
    translates = m.identity is not None and f0.periodic
    stencils = []
    max_disp, cell = 0.0, f0.cell_size()
    # one branch at a time: moving every branch's nodes in one call holds b
    # targets and their flow temporaries at once
    for j, (br, w) in enumerate(zip(branches, weights)):
        one_row = translates and br.shift is not None
        rows = m.identity[None, :] if one_row else nodes
        target = move_rows(branches, rows, j, dt)
        # only the warning below reads the displacement, and after a move of
        # one cell it cannot fire
        if f0.interp == "linear" and max_disp < cell:
            max_disp = max(max_disp, float(m.distance_batch(rows, target).max()))
        stencils.append(f0.shift_stencil(target[0], w) if one_row else f0.build_stencil(target, w))
    if 0.0 < max_disp < cell:
        warnings.warn(
            "branch displacement below one grid cell with linear interpolation; "
            "results may be dominated by interpolation error",
            stacklevel=2,
        )
    # this call's own buffers: CLI rows run in threads.  A chart without
    # padding gathers from a view of the values, so only a padded one owns a
    # padded buffer; allocated after the values, it raised grid-sphere's peak
    # RSS by 1 MB
    pad = np.empty(f0.padded_size) if f0.padded_size > f0.values.size else None
    values = f0.values.ravel().copy()
    new = np.empty_like(values)
    for _ in range(n):
        flat = f0.flat_values(values, out=pad)
        new.fill(0.0)
        for st in stencils:
            st.apply(flat, out=new)
        values, new = new, values
    return f0.with_values(values)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def iterate_mc(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    samples: int,
    seed: int,
    ode: OdeSettings = DEFAULT_ODE,
) -> McEstimate:
    """Monte-Carlo estimate of (S(t/n)^n f)(x).

    One branch is drawn per step with probability equal to its weight, from
    one integer word per path and step (``sample_steps``); with a potential,
    with probability |weight| / M, M = 1 + (t/n)|c|, and a sample is f(end)
    times its path's signed mass.  Heat-geodesic paths move k steps at a time
    by one group product each.  An unbiased estimator of ``iterate_tree`` for
    every c, at a higher variance when c != 0 (circle, c = -3-2 sin^2, f =
    cos + 2, t = 1, n = 8: stderr 0.08 from 4e5 samples on a value of 0.02);
    substreams are derived statelessly from (seed, path index), so results
    are reproducible and independent of any worker decomposition.  The paths
    run in ``sample_endpoints``'s row blocks; ``f`` is evaluated block by
    block into one ``(samples,)`` array, whose mean and standard error are
    those of one whole-batch run, bit for bit.  Memory beyond that array is
    one block's.
    ValueError unless ``0 <= seed < 2^64``.
    """
    spec.manifold._check_point(x)
    check_steps(t, n)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    branches = branch_moves(spec, variant, ode)
    vals = np.empty(samples)
    for lo, coords, mass in sample_endpoints(branches, t / n, x, samples, seed, n):
        vals[lo : lo + coords.shape[0]] = np.asarray(f(coords), dtype=float) * mass
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def consistency_defect(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    sample: Sequence[Point],
    f_grad: Callable[[np.ndarray], np.ndarray],
    f_hess: Callable[[np.ndarray], np.ndarray],
    ode: OdeSettings = DEFAULT_ODE,
) -> float:
    """max over the sample of |(S(t)f - f)/t - (L_0 f + c f)|.

    Measures the first-order consistency of the Chernoff family with the
    generator; O(t) for the consistent variants, and converging to the
    non-zero residual |L_0 f| for the literal driftless form.  ``f_grad``
    and ``f_hess`` are f's gradient and Hessian, for ``apply_generator``;
    each sample point must lie on the spec's manifold.
    """
    if t <= 0.0:
        raise ValueError("consistency_defect requires t > 0")
    for p in sample:
        spec.manifold._check_point(p)
    coords = np.stack([p.coords for p in sample])
    s_vals = apply_S_batch(spec, variant, t, f, coords, ode)
    f_vals = np.asarray(f(coords), dtype=float)
    gen = apply_generator(spec, f, coords, f_grad=f_grad, f_hess=f_hess)
    return float(np.abs((s_vals - f_vals) / t - gen).max())
