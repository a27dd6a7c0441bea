"""Grid representations of functions on the compact built-in manifolds.

The flat charts (the circle and torus2, ``FlatTorus`` for d = 1 and 2) have an
equispaced periodic grid on each axis, with linear or 4-point Lagrange
("cubic") interpolation.  Sphere2 has a latitude-longitude grid of cell
centers, always bilinear, with pole rows synthesized as the mean of the
adjacent row.  Every stencil is the tensor product of per-axis stencils (on
sphere2: latitude over the pole-padded rows, periodic longitude), applied by
the hot gather kernel in ``_kernels``.

A stencil's index and weight arrays have shape ``(m, k)`` (one row per query
point, one column per interpolation node) and are column-major: they are
built as ``(k, m)`` arrays and stored as their transposed views, so the
per-column reads of the gather kernel are contiguous and no copy is made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import gather_weighted
from .errors import ResolutionTooCoarseError, VariantIncompatibleError
from .manifolds import FlatTorus, Manifold, Sphere2, TWO_PI

_MIN_NODES = 8


def _cubic_weights(frac: np.ndarray) -> list:
    # 4-point Lagrange basis on nodes {-1, 0, 1, 2} evaluated at frac in [0,1)
    s = frac
    return [
        -s * (s - 1.0) * (s - 2.0) / 6.0,
        (s * s - 1.0) * (s - 2.0) / 2.0,
        -s * (s + 1.0) * (s - 2.0) / 2.0,
        s * (s * s - 1.0) / 6.0,
    ]


def _axis_stencil(theta: np.ndarray, n: int, order: str):
    """Per-axis periodic stencil: k node-index and k weight arrays of shape (m,)."""
    h = TWO_PI / n
    s = np.mod(theta, TWO_PI) / h
    # snap queries that sit on a node (within 1e-9 cells) so that zero
    # displacement reproduces values bit-exactly (S(0) = identity)
    near = np.round(s)
    s = np.where(np.abs(s - near) < 1e-9, near, s)
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    if order == "linear":
        return [np.mod(i0, n), np.mod(i0 + 1, n)], [1.0 - frac, frac]
    return [np.mod(i0 + k, n) for k in (-1, 0, 1, 2)], _cubic_weights(frac)


@dataclass(frozen=True)
class Stencil:
    idx: np.ndarray      # (m, k) flat indices, column-major
    w: np.ndarray        # (m, k) weights, column-major

    def apply(self, flat_values: np.ndarray) -> np.ndarray:
        return gather_weighted(flat_values, self.idx, self.w)


class GridFunction:
    """Function values on the canonical uniform grid of a compact manifold."""

    def __init__(self, manifold: Manifold, values: np.ndarray, interp: str = "cubic"):
        values = np.asarray(values, dtype=float)
        if not isinstance(manifold, (FlatTorus, Sphere2)):
            raise VariantIncompatibleError(
                f"grid functions require a compact built-in, not {manifold.name}"
            )
        if values.ndim != manifold.dim:
            raise ValueError(f"{manifold.name} grid values must be {manifold.dim}-D")
        if min(values.shape) < _MIN_NODES:
            raise ResolutionTooCoarseError(
                f"need >= {_MIN_NODES} nodes per axis, got {values.shape}"
            )
        if interp not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation order {interp!r}")
        if isinstance(manifold, Sphere2):
            interp = "linear"  # bilinear with pole averaging is the only mode
        self.manifold = manifold
        self.values = values
        self.values.setflags(write=False)
        self.interp = interp

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
        shape = self.values.shape
        if isinstance(self.manifold, Sphere2):
            nlat, nlon = shape
            lat = -0.5 * np.pi + (np.arange(nlat) + 0.5) * np.pi / nlat
            lon = TWO_PI * np.arange(nlon) / nlon
            glat, glon = np.meshgrid(lat, lon, indexing="ij")
            cl = np.cos(glat.ravel())
            return np.stack(
                [cl * np.cos(glon.ravel()), cl * np.sin(glon.ravel()), np.sin(glat.ravel())],
                axis=-1,
            )
        axes = np.meshgrid(*(TWO_PI * np.arange(n) / n for n in shape), indexing="ij")
        return np.stack([g.ravel() for g in axes], axis=-1)

    def cell_size(self) -> float:
        if isinstance(self.manifold, Sphere2):
            return np.pi / self.values.shape[0]
        return TWO_PI / max(self.values.shape)

    # -- interpolation -------------------------------------------------------

    def build_stencil(self, coords: np.ndarray) -> Stencil:
        """Precompute the gather stencil for query points (hot-path reuse)."""
        coords = np.atleast_2d(coords)
        # tensor product over the axes, one node per axis in each column
        # (the last axis varies fastest), written in place: no temporary
        # larger than one row of the result
        cols = list(itertools.product(*(zip(ia, wa) for ia, wa in self._axis_stencils(coords))))
        idx = np.empty((len(cols), coords.shape[0]), dtype=np.int64)
        w = np.empty(idx.shape)
        for j, ((i0, w0), *rest) in enumerate(cols):
            idx[j], w[j] = i0, w0
            for n, (ia, wa) in zip(self.values.shape[1:], rest):
                idx[j] *= n
                idx[j] += ia
                w[j] *= wa
        return Stencil(idx.T, w.T)

    def _axis_stencils(self, coords: np.ndarray) -> list:
        """Per axis of the flat values, the ``_axis_stencil`` of the query points."""
        shape = self.values.shape
        if not isinstance(self.manifold, Sphere2):
            return [_axis_stencil(coords[:, a], n, self.interp) for a, n in enumerate(shape)]
        # latitude over the padded rows: 0 = south pole, 1..nlat = data,
        # nlat+1 = north pole; longitude periodic
        nlat, nlon = shape
        lat = np.arcsin(np.clip(coords[:, 2], -1.0, 1.0))
        pad_lat = np.concatenate(
            [[-0.5 * np.pi], -0.5 * np.pi + (np.arange(nlat) + 0.5) * np.pi / nlat, [0.5 * np.pi]]
        )
        r1 = np.clip(np.searchsorted(pad_lat, lat, side="right"), 1, nlat + 1)
        r0 = r1 - 1
        flat = (lat - pad_lat[r0]) / (pad_lat[r1] - pad_lat[r0])
        lon = np.arctan2(coords[:, 1], coords[:, 0])
        return [([r0, r1], [1.0 - flat, flat]), _axis_stencil(lon, nlon, "linear")]

    def flat_values(self, values: np.ndarray | None = None) -> np.ndarray:
        """Values raveled for stencil application (pole-padded on the sphere)."""
        v = self.values if values is None else values.reshape(self.values.shape)
        if not isinstance(self.manifold, Sphere2):
            return np.ascontiguousarray(v.ravel())
        south = np.full(v.shape[1], v[0].mean())
        north = np.full(v.shape[1], v[-1].mean())
        return np.ascontiguousarray(np.concatenate([south, v.ravel(), north]))

    def interpolate(self, coords: np.ndarray) -> np.ndarray:
        return self.build_stencil(coords).apply(self.flat_values())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())
