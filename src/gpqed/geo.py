"""Two-dimensional assignment along a polyline boundary.

A boundary is an ordered open polyline; points to the left of the direction
of travel are control (label 0), points to the right are intervention
(label 1). Points landing on the path itself (within 1e-9) are assigned to
the intervention side, consistent with the ">= threshold" convention of the
one-dimensional case, and one warning per call gives their count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gp, inference
from .errors import DataError, InputError
from .gp import GPFit

ON_PATH_TOL = 1e-9


def _cross(u, v):
    """z-component of the 2-D cross product u × v over the last axis."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True)
class BoundaryPolyline:
    """Ordered 2D vertices; left of the path is control, right is intervention."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise InputError("a boundary needs >= 2 two-dimensional vertices")
        if not np.all(np.isfinite(v)):
            raise InputError("boundary vertices must be finite")
        d = np.diff(v, axis=0)
        if np.any(np.all(d == 0, axis=1)):
            raise InputError("consecutive boundary vertices must be distinct")
        if np.any((_cross(d[:-1], d[1:]) == 0)
                  & (np.sum(d[:-1] * d[1:], axis=1) < 0)):
            raise InputError("boundary polyline folds back on itself")
        # simple path: segments i < j - 1 meet when each one's ends lie on
        # different sides of, or on, the other's line, or when both lie on
        # one line and overlap (side[i, k]: sign of vertex k against segment
        # i; t[i, k]: its position along segment i, 0 to 1 on the segment)
        offsets = v[None, :, :] - v[:-1, None, :]
        side = np.sign(_cross(d[:, None, :], offsets))
        straddle = side[:, :-1] != side[:, 1:]
        t = np.sum(offsets * d[:, None, :], axis=2) / np.sum(d * d, axis=1)[:, None]
        overlap = ((side[:, :-1] == 0) & (side[:, 1:] == 0)
                   & (np.maximum(t[:, :-1], t[:, 1:]) >= 0)
                   & (np.minimum(t[:, :-1], t[:, 1:]) <= 1))
        if np.triu((straddle & straddle.T) | overlap, 2).any():
            raise InputError("boundary polyline is self-intersecting")
        object.__setattr__(self, "vertices", v)

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)

    @property
    def length(self) -> float:
        return float(self.segment_lengths.sum())


def _nearest_segment_side(boundary: BoundaryPolyline, X: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (m, 2) array X: (distance to the path, signed cross
    product against the nearest segment). Among segments tied for the minimum
    distance (shared-vertex ties) the one most perpendicular to the point
    offset decides, the first of equals winning, which keeps the side
    consistent across corner regions."""
    a, d = boundary.vertices[:-1], np.diff(boundary.vertices, axis=0)
    seg_len2 = np.sum(d * d, axis=1)
    offset = X[:, None, :] - a                       # (m, segments, 2)
    t = np.clip(np.sum(offset * d, axis=2) / seg_len2, 0.0, 1.0)
    dists = np.linalg.norm(X[:, None, :] - (a + t[..., None] * d), axis=2)
    dmin = dists.min(axis=1)
    crosses = _cross(d, offset) / np.sqrt(seg_len2)
    tied = dists <= dmin[:, None] + 1e-12
    pick = np.argmax(np.where(tied, np.abs(crosses), -np.inf), axis=1)
    return dmin, crosses[np.arange(len(X)), pick]


def _labels(boundary: BoundaryPolyline, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2 or not np.all(np.isfinite(X)):
        raise InputError("boundary labels require finite 2-D points")
    dist, cross = _nearest_segment_side(boundary, X)
    on_path = dist <= ON_PATH_TOL
    if on_path.any():
        # stacklevel 3: the caller of classify or BoundaryLabel.labels
        warnings.warn(f"{np.count_nonzero(on_path)} point(s) lie on the "
                      "boundary; assigned to intervention", stacklevel=3)
    # positive cross product = left of the direction of travel
    return np.where((cross > 0) & ~on_path, 0, 1)


def classify(boundary: BoundaryPolyline, point) -> int:
    """0 if the point is left of the path, 1 if right or on the path."""
    return int(_labels(boundary, np.reshape(point, (1, 2)))[0])


@dataclass(frozen=True)
class BoundaryLabel(inference.LabelFunction):
    """LabelFunction adapter around a BoundaryPolyline."""

    boundary: BoundaryPolyline

    def labels(self, X: np.ndarray) -> np.ndarray:
        return _labels(self.boundary, X)


def boundary_points(boundary: BoundaryPolyline, count: int) -> np.ndarray:
    """`count` points equally spaced by arc length, endpoints included."""
    if count < 2:
        raise InputError("count must be >= 2")
    v = boundary.vertices
    seg_len = boundary.segment_lengths
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    targets = np.linspace(0.0, cum[-1], count)
    j = np.searchsorted(cum[1:-1], targets, side="right")  # segment per target
    frac = (targets - cum[j]) / seg_len[j]
    return v[j] + frac[:, None] * (v[j + 1] - v[j])


@dataclass(frozen=True)
class EffectProfile:
    """Gaussian effect posterior evaluated along the boundary."""

    arc_lengths: np.ndarray
    points: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def effect_profile(fit_c: GPFit, fit_i: GPFit, boundary: BoundaryPolyline,
                   count: int = 50) -> EffectProfile:
    """Pointwise effect posterior d(s) = f_I(s) - f_C(s) along the boundary."""
    if fit_c.data.p != 2 or fit_i.data.p != 2:
        raise InputError("effect profiles require 2-D fits")
    pts = boundary_points(boundary, count)
    mc, vc = gp.predict(fit_c, pts)
    mi, vi = gp.predict(fit_i, pts)
    arcs = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    return EffectProfile(arc_lengths=arcs, points=pts,
                         means=mi - mc, variances=vi + vc)


def load_boundary(path) -> BoundaryPolyline:
    """Read a polyline from text: one "x y" vertex per line, '#' comments."""
    vertices = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected 'x y', got {line!r}")
            try:
                vertices.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric vertex") from exc
    if len(vertices) < 2:
        raise DataError(f"{path}: a boundary needs at least 2 vertices")
    return BoundaryPolyline(np.array(vertices))
