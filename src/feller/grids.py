"""Grid representations of functions on the charts that declare a grid.

The chart gives the kind of each axis (``Manifold.grid_axes``), the map from
its coordinates to the per-axis grid angles and back (``grid_angles``,
``grid_point``) and its interpolation orders (``grid_orders``).  A periodic
axis has n equispaced angles and linear or 4-point Lagrange ("cubic")
interpolation; a polar axis has n cell-centred latitudes, padded by pole
rows that hold the mean of the adjacent row, and linear interpolation.  The
circle and torus2 have periodic axes, sphere2 a polar latitude and a
periodic longitude, bilinear only.  Every stencil is the tensor product of
per-axis stencils over the padded values, applied by the hot gather kernel
in ``_kernels``.

A stencil's index and weight arrays have shape ``(m, k)`` (one row per query
point, one column per interpolation node).  ``build_stencil`` makes both
column-major: they are built as ``(k, m)`` arrays and stored as their
transposed views, so the per-column reads of the gather kernel are
contiguous and no copy is made.  ``shift_stencil`` serves a translation of
the grid angles on a grid whose axes are all periodic (a group shift on the
circle or torus2): every moved node's stencil is node 0's, offset by the
node's index, so it builds the per-axis stencils of one point, the index by
integer broadcasting, and one row of K weights broadcast read-only down the
rows, each weight column of stride 0.

A stencil also records its live columns, those with a nonzero weight in
some row (in a translated stencil, in its one row), and the kernel gathers
only those.  A query that sits on a node of an axis (a shift along one axis
of torus2, an identity move) has the weights (1, 0) or (0, 1, 0, 0) on that
axis, so whole tensor columns are dead: a heat-geodesic cubic sweep on
torus2 gathers 4 of its 16 columns.

A sweep writes into arrays its caller owns: ``flat_values(values, out)``
fills a buffer of ``padded_size`` floats with the values and the pole rows,
and ``Stencil.apply(flat, out)`` gathers into an array of one entry per
query.  The kernel reads with ``np.take(mode="wrap")``, which writes straight
into its output; ``build_stencil`` checks once that every index lies in
``[0, padded_size)``, and ``shift_stencil`` reduces each index modulo its
axis, so no index wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import gather_weighted
from .errors import ResolutionTooCoarseError, VariantIncompatibleError
from .manifolds import Manifold, TWO_PI

_MIN_NODES = 8
_POLAR = "polar"


def _axis_nodes(kind: str, n: int) -> np.ndarray:
    """Grid angles of the n nodes of an axis."""
    if kind == _POLAR:
        return -0.5 * np.pi + (np.arange(n) + 0.5) * np.pi / n
    return TWO_PI * np.arange(n) / n


def _axis_stencil(theta: np.ndarray, n: int, order: str):
    """Per-axis periodic stencil: node indices and weights, each of shape (k, m)."""
    h = TWO_PI / n
    s = np.mod(theta, TWO_PI) / h
    # snap queries that sit on a node (within 1e-9 cells) so that zero
    # displacement reproduces values bit-exactly (S(0) = identity)
    near = np.round(s)
    s = np.where(np.abs(s - near) < 1e-9, near, s)
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    # each row written into the (k, m) results: no temporary beyond one row
    if order == "linear":
        idx = np.add.outer(np.arange(2), i0)
        w = np.empty(idx.shape)
        w[0] = 1.0 - frac
        w[1] = frac
    else:
        # 4-point Lagrange basis on nodes {-1, 0, 1, 2} evaluated at frac in [0,1)
        idx = np.add.outer(np.arange(-1, 3), i0)
        w = np.empty(idx.shape)
        s = frac
        w[0] = -s * (s - 1.0) * (s - 2.0) / 6.0
        w[1] = (s * s - 1.0) * (s - 2.0) / 2.0
        w[2] = -s * (s + 1.0) * (s - 2.0) / 2.0
        w[3] = s * (s * s - 1.0) / 6.0
    return np.mod(idx, n, out=idx), w


def _polar_stencil(lat: np.ndarray, n: int):
    """Linear stencil in latitude over the padded rows (0 = south pole,
    1..n = data, n+1 = north pole): row indices and weights of shape (2, m)."""
    nodes = _axis_nodes(_POLAR, n)
    # snap latitudes on a node (within 1e-9 cells) as _axis_stencil does; NaN stays NaN
    s = (lat + 0.5 * np.pi) * (n / np.pi) - 0.5
    near = np.clip(np.nan_to_num(np.round(s)), 0, n - 1)
    lat = np.where(np.abs(s - near) < 1e-9, nodes[near.astype(np.int64)], lat)
    pad = np.concatenate([[-0.5 * np.pi], nodes, [0.5 * np.pi]])
    r1 = np.clip(np.searchsorted(pad, lat, side="right"), 1, n + 1)
    r0 = r1 - 1
    frac = (lat - pad[r0]) / (pad[r1] - pad[r0])
    return np.stack([r0, r1]), np.stack([1.0 - frac, frac])


def _tensor_weights(ws: list) -> np.ndarray:
    """The (K, m) tensor product of per-axis (k, m) weights, the last axis fastest."""
    w = ws[0]
    for wa in ws[1:]:
        shape = (len(w), len(wa), w.shape[1])
        w = np.multiply(w[:, None], wa, out=np.empty(shape)).reshape(-1, shape[2])
    return w


@dataclass(frozen=True)
class Stencil:
    idx: np.ndarray      # (m, k) flat indices, column-major
    w: np.ndarray        # (m, k) weights, column-major, or one row broadcast (stride-0 columns)
    cols: tuple          # the live columns, in order: those with a nonzero weight in some row

    def apply(self, flat_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The gather over the live columns, written into ``out`` when given."""
        return gather_weighted(flat_values, self.idx, self.w, self.cols, out)


class GridFunction:
    """Function values on the canonical uniform grid of a compact manifold."""

    def __init__(self, manifold: Manifold, values: np.ndarray, interp: str = "cubic"):
        values = np.asarray(values, dtype=float)
        if not manifold.grid_axes:
            raise VariantIncompatibleError(
                f"grid functions require a compact built-in, not {manifold.name}"
            )
        axes = len(manifold.grid_axes)
        if values.ndim != axes:
            counts = "1 node count" if axes == 1 else f"{axes} node counts"
            raise ValueError(f"{manifold.name} grids take {counts} (one per axis), "
                             f"got shape {values.shape}")
        if min(values.shape) < _MIN_NODES:
            raise ResolutionTooCoarseError(
                f"need >= {_MIN_NODES} nodes per axis, got {values.shape}"
            )
        if interp not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation order {interp!r}")
        if interp not in manifold.grid_orders:
            interp = manifold.grid_orders[0]
        self.manifold = manifold
        self.values = values
        self.values.setflags(write=False)
        self.interp = interp
        # per axis, the rows of padding at each end: a pole row on a polar axis
        self._pads = tuple(int(kind == _POLAR) for kind in manifold.grid_axes)
        self.periodic = not any(self._pads)  # every axis periodic: shift_stencil applies
        self._padded_shape = tuple(n + 2 * p for n, p in zip(values.shape, self._pads))
        self.padded_size = int(np.prod(self._padded_shape))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_function(
        cls,
        manifold: Manifold,
        shape,
        fn: Callable[[np.ndarray], np.ndarray],
        interp: str = "cubic",
    ) -> "GridFunction":
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        grid = cls(manifold, np.empty(shape), interp)  # refuse a bad chart or shape before fn runs
        return grid.with_values(np.asarray(fn(grid.node_coords()), dtype=float))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.manifold, values.reshape(self.values.shape), self.interp)

    # -- nodes -------------------------------------------------------------

    def node_coords(self) -> np.ndarray:
        kinds, shape = self.manifold.grid_axes, self.values.shape
        axes = np.meshgrid(*map(_axis_nodes, kinds, shape), indexing="ij")
        return self.manifold.grid_point([g.ravel() for g in axes])

    def cell_size(self) -> float:
        """The smallest node spacing in grid angle over the axes."""
        kinds, shape = self.manifold.grid_axes, self.values.shape
        return min((np.pi if kind == _POLAR else TWO_PI) / n for kind, n in zip(kinds, shape))

    # -- interpolation -------------------------------------------------------

    def build_stencil(self, coords: np.ndarray) -> Stencil:
        """Precompute the gather stencil for query points (hot-path reuse)."""
        coords = np.atleast_2d(coords)
        # tensor product over the axes, one node per axis in each column (the
        # last axis varies fastest): each axis's (k, m) stencil is broadcast
        # against the product so far, straight into the (K, m) result
        axes = self._axis_stencils(coords)
        idx = axes[0][0]
        for n, p, (ia, _) in zip(self.values.shape[1:], self._pads[1:], axes[1:]):
            shape = (len(idx), len(ia), coords.shape[0])
            # the padded length of the axis scales the flat index so far
            idx = np.multiply(idx[:, None], n + 2 * p, out=np.empty(shape, dtype=np.int64))
            idx += ia
            idx = idx.reshape(-1, shape[2])
        w = _tensor_weights([wa for _, wa in axes])
        # the gather's np.take(mode="wrap") is exact only on indices in range;
        # the per-axis stencils are built so (np.mod, np.clip), even on nan rows
        if idx.size and (idx.min() < 0 or idx.max() >= self.padded_size):
            raise IndexError(f"stencil index outside the {self.padded_size} padded values")
        live = tuple(np.flatnonzero(w.any(axis=1)).tolist())  # one contiguous row per column
        return Stencil(idx.T, w.T, live)

    def shift_stencil(self, point: np.ndarray) -> Stencil:
        """The stencil of every node moved by the translation of the grid
        angles that takes node 0 to ``point``, on a grid whose axes are all
        periodic.

        Node i's stencil is node 0's with every node index offset by i on
        each axis, so one row of stencil serves them all: the per-axis
        stencils are built for ``point`` alone, the ``(m, K)`` index is the
        integer sum ``(i_a + o_a) mod n_a`` in ``build_stencil``'s column
        order, and the weights are that one row of K floats broadcast
        read-only down the rows (each column has stride 0).
        """
        if not self.periodic:
            raise VariantIncompatibleError(f"{self.manifold.name}: a grid axis is not periodic")
        axes = self._axis_stencils(np.atleast_2d(point))
        # (K, N so far), the nodes in node_coords' order: the last axis varies
        # fastest over both the columns and the nodes
        idx = np.zeros((1, 1), dtype=np.int64)
        for n, (ia, _) in zip(self.values.shape, axes):
            along = np.add.outer(ia[:, 0], np.arange(n))  # (k, n) node indices on this axis
            np.mod(along, n, out=along)
            shape = (len(idx), len(along), idx.shape[1], n)
            idx = np.multiply(idx[:, None, :, None], n, out=np.empty(shape, dtype=np.int64))
            idx += along[None, :, None, :]
            idx = idx.reshape(shape[0] * shape[1], -1)
        w = _tensor_weights([wa for _, wa in axes])[:, 0]
        live = tuple(np.flatnonzero(w).tolist())
        return Stencil(idx.T, np.broadcast_to(w, idx.T.shape), live)

    def _axis_stencils(self, coords: np.ndarray) -> list:
        """Per grid axis, the stencil of the query points over the padded values."""
        kinds, shape = self.manifold.grid_axes, self.values.shape
        return [
            _polar_stencil(a, n) if kind == _POLAR else _axis_stencil(a, n, self.interp)
            for kind, a, n in zip(kinds, self.manifold.grid_angles(coords), shape)
        ]

    def flat_values(
        self, values: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Values raveled for stencil application, each polar axis padded at
        both ends by the mean of its first and last row: written into ``out``
        (``padded_size`` floats) when given, else into a new array, or
        returned as a view of the values on a chart without padding."""
        v = self.values if values is None else values.reshape(self.values.shape)
        if out is None:
            if not any(self._pads):
                return np.ascontiguousarray(v.ravel())
            out = np.empty(self.padded_size)
        padded = out.reshape(self._padded_shape)
        # the interior, then every pole row: no entry is left unwritten
        padded[tuple(slice(p, n + p) for n, p in zip(v.shape, self._pads))] = v
        for a in np.flatnonzero(self._pads):
            ends = (slice(None),) * a
            padded[ends + (0,)] = v[ends + (0,)].mean()
            padded[ends + (-1,)] = v[ends + (-1,)].mean()
        return out

    def interpolate(self, coords: np.ndarray) -> np.ndarray:
        return self.build_stencil(coords).apply(self.flat_values())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())
