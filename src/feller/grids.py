"""Grid representations of functions on the compact built-in manifolds.

Circle and Torus2 use equispaced periodic grids with linear or 4-point
Lagrange ("cubic") interpolation; Sphere2 uses a latitude-longitude grid of
cell centers with bilinear interpolation and pole rows synthesized as the
mean of the adjacent row.  All interpolation reduces to a precomputed
gather stencil, applied by the hot kernel in ``_kernels``.

A stencil's index and weight arrays have shape ``(m, k)`` (one row per query
point, one column per interpolation node) and are column-major: they are
built as ``(k, m)`` arrays and stored as their transposed views, so the
per-column reads of the gather kernel are contiguous and no copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import gather_weighted
from .errors import ResolutionTooCoarseError, VariantIncompatibleError
from .manifolds import Manifold, Sphere2, TWO_PI

_MIN_NODES = 8


def _cubic_weights(frac: np.ndarray) -> np.ndarray:
    # 4-point Lagrange basis on nodes {-1, 0, 1, 2} evaluated at frac in [0,1)
    s = frac
    w = np.empty((4,) + s.shape)
    w[0] = -s * (s - 1.0) * (s - 2.0) / 6.0
    w[1] = (s * s - 1.0) * (s - 2.0) / 2.0
    w[2] = -s * (s + 1.0) * (s - 2.0) / 2.0
    w[3] = s * (s * s - 1.0) / 6.0
    return w


def _axis_stencil(theta: np.ndarray, n: int, order: str):
    """Per-axis periodic stencil: node indices (k, m) and weights (k, m)."""
    h = TWO_PI / n
    s = np.mod(theta, TWO_PI) / h
    # snap queries that sit on a node (within 1e-9 cells) so that zero
    # displacement reproduces values bit-exactly (S(0) = identity)
    near = np.round(s)
    s = np.where(np.abs(s - near) < 1e-9, near, s)
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    if order == "linear":
        idx = np.stack([i0, i0 + 1])
        w = np.stack([1.0 - frac, frac])
    else:
        idx = np.stack([i0 - 1, i0, i0 + 1, i0 + 2])
        w = _cubic_weights(frac)
    return np.mod(idx, n), w


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
        name = manifold.name
        if name == "circle":
            if values.ndim != 1:
                raise ValueError("circle grid values must be 1-D")
        elif name == "torus2":
            if values.ndim != 2:
                raise ValueError("torus2 grid values must be 2-D")
        elif name == "sphere2":
            if values.ndim != 2:
                raise ValueError("sphere2 grid values must be (n_lat, n_lon)")
        else:
            raise VariantIncompatibleError(
                f"grid functions require a compact built-in, not {name}"
            )
        if min(values.shape) < _MIN_NODES:
            raise ResolutionTooCoarseError(
                f"need >= {_MIN_NODES} nodes per axis, got {values.shape}"
            )
        if interp not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation order {interp!r}")
        if name == "sphere2":
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
        nodes = cls._nodes_for(manifold, shape)
        return cls(manifold, np.asarray(fn(nodes), dtype=float).reshape(shape), interp)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.manifold, values.reshape(self.values.shape), self.interp)

    # -- nodes -------------------------------------------------------------

    @staticmethod
    def _nodes_for(manifold: Manifold, shape) -> np.ndarray:
        name = manifold.name
        if name == "circle":
            (n,) = shape
            return (TWO_PI * np.arange(n) / n)[:, None]
        if name == "torus2":
            n1, n2 = shape
            t1 = TWO_PI * np.arange(n1) / n1
            t2 = TWO_PI * np.arange(n2) / n2
            g1, g2 = np.meshgrid(t1, t2, indexing="ij")
            return np.stack([g1.ravel(), g2.ravel()], axis=-1)
        if name == "sphere2":
            nlat, nlon = shape
            lat = -0.5 * np.pi + (np.arange(nlat) + 0.5) * np.pi / nlat
            lon = TWO_PI * np.arange(nlon) / nlon
            glat, glon = np.meshgrid(lat, lon, indexing="ij")
            cl = np.cos(glat.ravel())
            return np.stack(
                [cl * np.cos(glon.ravel()), cl * np.sin(glon.ravel()), np.sin(glat.ravel())],
                axis=-1,
            )
        raise VariantIncompatibleError(f"no grids on {name}")

    def node_coords(self) -> np.ndarray:
        return self._nodes_for(self.manifold, self.values.shape)

    def cell_size(self) -> float:
        if self.manifold.name == "sphere2":
            return np.pi / self.values.shape[0]
        return TWO_PI / max(self.values.shape)

    # -- interpolation -------------------------------------------------------

    def build_stencil(self, coords: np.ndarray) -> Stencil:
        """Precompute the gather stencil for query points (hot-path reuse)."""
        name = self.manifold.name
        coords = np.atleast_2d(coords)
        if name == "circle":
            n = self.values.shape[0]
            idx, w = _axis_stencil(coords[:, 0], n, self.interp)
            return Stencil(idx.T, w.T)
        if name == "torus2":
            n1, n2 = self.values.shape
            i1, w1 = _axis_stencil(coords[:, 0], n1, self.interp)
            i2, w2 = _axis_stencil(coords[:, 1], n2, self.interp)
            # column a * k + b (k nodes per axis) pairs node a of axis 1 with node b of axis 2
            m = coords.shape[0]
            idx = (i1[:, None, :] * n2 + i2[None, :, :]).reshape(-1, m)
            w = (w1[:, None, :] * w2[None, :, :]).reshape(-1, m)
            return Stencil(idx.T, w.T)
        return self._sphere_stencil(coords)

    def _sphere_stencil(self, q: np.ndarray) -> Stencil:
        nlat, nlon = self.values.shape
        lat = np.arcsin(np.clip(q[:, 2], -1.0, 1.0))
        lon = np.mod(np.arctan2(q[:, 1], q[:, 0]), TWO_PI)
        # padded rows: 0 = south pole, 1..nlat = data, nlat+1 = north pole
        pad_lat = np.concatenate(
            [[-0.5 * np.pi], -0.5 * np.pi + (np.arange(nlat) + 0.5) * np.pi / nlat, [0.5 * np.pi]]
        )
        r1 = np.clip(np.searchsorted(pad_lat, lat, side="right"), 1, nlat + 1)
        r0 = r1 - 1
        denom = pad_lat[r1] - pad_lat[r0]
        flat = (lat - pad_lat[r0]) / denom
        hl = TWO_PI / nlon
        s = lon / hl
        c0 = np.floor(s).astype(np.int64)
        flon = s - c0
        c0 = np.mod(c0, nlon)
        c1 = np.mod(c0 + 1, nlon)
        idx = np.stack([r0 * nlon + c0, r0 * nlon + c1, r1 * nlon + c0, r1 * nlon + c1])
        w = np.stack(
            [
                (1.0 - flat) * (1.0 - flon),
                (1.0 - flat) * flon,
                flat * (1.0 - flon),
                flat * flon,
            ]
        )
        return Stencil(idx.T, w.T)

    def flat_values(self, values: np.ndarray | None = None) -> np.ndarray:
        """Values raveled for stencil application (pole-padded on the sphere)."""
        v = self.values if values is None else values.reshape(self.values.shape)
        if self.manifold.name != "sphere2":
            return np.ascontiguousarray(v.ravel())
        south = np.full(v.shape[1], v[0].mean())
        north = np.full(v.shape[1], v[-1].mean())
        return np.ascontiguousarray(np.concatenate([south, v.ravel(), north]))

    def interpolate(self, coords: np.ndarray) -> np.ndarray:
        return self.build_stencil(coords).apply(self.flat_values())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())
