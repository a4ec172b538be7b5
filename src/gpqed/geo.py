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

from . import inference
from .errors import DataError, InputError, check_int
from .gp import GPFit, finite_decimal

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
        return float(np.cumsum(self.segment_lengths)[-1])


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


def _points_by_arc_length(boundary: BoundaryPolyline, count: int) -> tuple:
    """(arc lengths, points): `count` arc lengths equally spaced from 0 to
    boundary.length, and the points on the path at them."""
    check_int("count", count, 2)
    v = boundary.vertices
    seg_len = boundary.segment_lengths
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    targets = np.linspace(0.0, cum[-1], count)
    j = np.searchsorted(cum[1:-1], targets, side="right")  # segment per target
    frac = (targets - cum[j]) / seg_len[j]
    return targets, v[j] + frac[:, None] * (v[j + 1] - v[j])


def boundary_points(boundary: BoundaryPolyline, count: int) -> np.ndarray:
    """`count` points equally spaced by arc length, endpoints included."""
    return _points_by_arc_length(boundary, count)[1]


@dataclass(frozen=True)
class EffectProfile:
    """Gaussian effect posterior evaluated along the boundary."""

    arc_lengths: np.ndarray
    points: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def effect_profile(fit_c: GPFit, fit_i: GPFit, boundary: BoundaryPolyline,
                   count: int = 50) -> EffectProfile:
    """`inference.effect_size` at `count` points spaced by arc length, with
    the arc length along the path at each."""
    arcs, pts = _points_by_arc_length(boundary, count)
    means, variances = inference.effect_size(fit_c, fit_i, pts)
    return EffectProfile(arc_lengths=arcs, points=pts,
                         means=means, variances=variances)


def load_boundary(path) -> BoundaryPolyline:
    """Read a polyline from text: one "x y" vertex per line, each
    coordinate a finite decimal number (`gp.finite_decimal`), '#' comments,
    UTF-8 with or without a byte-order mark. A file that does not hold a
    valid `BoundaryPolyline` is a DataError naming the path."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte {exc.start}: "
                            f"{exc.reason}") from None
    vertices = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'x y', got {line!r}")
        try:
            vertices.append([finite_decimal(t) for t in parts])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    if len(vertices) < 2:
        raise DataError(f"{path}: a boundary needs at least 2 vertices")
    try:
        return BoundaryPolyline(np.array(vertices))
    except InputError as exc:
        raise DataError(f"{path}: {exc}") from exc
