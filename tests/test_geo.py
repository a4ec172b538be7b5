import numpy as np
import pytest

from gpqed import geo, gp, inference
from gpqed.errors import DataError, InputError
from gpqed.geo import (
    BoundaryLabel,
    BoundaryPolyline,
    boundary_points,
    classify,
    effect_profile,
    load_boundary,
)
from gpqed.gp import Dataset
from gpqed.kernels import from_name


def _horizontal():
    return BoundaryPolyline(np.array([[-5.0, 0.0], [5.0, 0.0]]))


def _monotone_polyline(rng, n_vertices=5, span=4.0):
    """A left-to-right polyline that is the graph of a function of x."""
    xs = np.sort(rng.uniform(-span, span, n_vertices))
    while np.any(np.diff(xs) < 1e-3):
        xs = np.sort(rng.uniform(-span, span, n_vertices))
    ys = rng.uniform(-2.0, 2.0, n_vertices)
    return BoundaryPolyline(np.column_stack([xs, ys]))


def _lattice_zigzag():
    """A non-monotone integer-lattice polyline (it turns back in x) and a
    batch of integer and half-integer points around it, many of them tied
    between segments that share a vertex."""
    b = BoundaryPolyline(np.array([[0, 0], [3, 3], [6, 0], [6, 4], [2, 4],
                                   [2, 7]], dtype=float))
    g = np.arange(-3.0, 10.0)
    X = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return b, np.vstack([X, X + 0.5])


def _sided(boundary, X):
    """The rows of X with a side: off the path and off the lines that extend
    its end segments, where the cross product is zero."""
    dist, cross = geo._nearest_segment_side(boundary, X)
    return X[(dist > 1e-6) & (np.abs(cross) > 1e-6)]


def _above_below_oracle(boundary, point):
    """Independent side test for x-monotone polylines: above the graph is
    left of the left-to-right path (label 0), below is label 1."""
    v = boundary.vertices
    x, y = point
    x = min(max(x, v[0, 0]), v[-1, 0])
    y_path = np.interp(x, v[:, 0], v[:, 1])
    return 0 if y > y_path else 1


class TestValidation:
    def test_needs_two_vertices(self):
        with pytest.raises(InputError):
            BoundaryPolyline(np.array([[0.0, 0.0]]))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InputError):
            BoundaryPolyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))

    def test_rejects_self_intersection(self):
        with pytest.raises(InputError):
            BoundaryPolyline(np.array([[0.0, 0.0], [2.0, 0.0],
                                       [2.0, 1.0], [1.0, -1.0]]))

    def test_rejects_collinear_overlap_in_both_directions(self):
        # the last segment lies on the first: on the overlap the side would
        # be decided by tie order alone
        b = np.array([[0, 0], [2, 0], [2, 1], [4, 1], [4, -1], [1, -1],
                      [1, 0], [1.5, 0]])
        for vertices in (b, b[::-1]):
            with pytest.raises(InputError, match="self-intersecting"):
                BoundaryPolyline(vertices)

    def test_rejects_fold_back(self):
        # adjacent anti-parallel segments overlap; the side on the overlap
        # would be decided by tie order alone
        with pytest.raises(InputError, match="folds back"):
            BoundaryPolyline(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InputError, match="folds back"):
            BoundaryPolyline(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                                       [3.0, 1.0], [-1.0, 1.0]]))

    def test_accepts_zigzag(self):
        BoundaryPolyline(np.array([[0, 0], [1, 1], [2, 0], [3, 1.0]]))
        # collinear segments that keep their direction do not fold back
        BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))


class TestClassify:
    def test_above_horizontal_is_control(self):
        assert classify(_horizontal(), [0.0, 1.0]) == 0

    def test_below_horizontal_is_intervention(self):
        assert classify(_horizontal(), [0.0, -1.0]) == 1

    def test_on_path_goes_to_intervention_with_warning(self):
        with pytest.warns(UserWarning):
            assert classify(_horizontal(), [0.0, 0.0]) == 1

    def test_reversal_flips_labels(self, rng):
        b = _monotone_polyline(rng)
        rev = BoundaryPolyline(b.vertices[::-1])
        for _ in range(50):
            pt = rng.uniform(-4, 4, 2)
            if abs(pt[1] - np.interp(pt[0], b.vertices[:, 0],
                                     b.vertices[:, 1])) < 1e-6:
                continue
            assert classify(b, pt) == 1 - classify(rev, pt)
        b, X = _lattice_zigzag()
        X = _sided(b, X)
        assert len(X) > 250
        np.testing.assert_array_equal(
            BoundaryLabel(b).labels(X),
            1 - BoundaryLabel(BoundaryPolyline(b.vertices[::-1])).labels(X))

    def test_matches_independent_oracle(self, rng):
        cases = 0
        while cases < 1000:
            b = _monotone_polyline(rng)
            pt = rng.uniform(-4, 4, 2)
            # stay away from the path and from the open ends, where "side"
            # is defined by the nearest segment rather than the graph
            if not (b.vertices[0, 0] + 0.1 < pt[0] < b.vertices[-1, 0] - 0.1):
                continue
            y_path = np.interp(pt[0], b.vertices[:, 0], b.vertices[:, 1])
            if abs(pt[1] - y_path) < 0.3:
                continue
            assert classify(b, pt) == _above_below_oracle(b, pt)
            cases += 1

    def test_rigid_transform_invariance(self, rng):
        for _ in range(30):
            b = _monotone_polyline(rng)
            pt = rng.uniform(-4, 4, 2)
            theta = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            shift = rng.normal(size=2)
            b2 = BoundaryPolyline(b.vertices @ R.T + shift)
            if abs(pt[1] - np.interp(pt[0], b.vertices[:, 0],
                                     b.vertices[:, 1])) < 1e-3:
                continue
            assert classify(b, pt) == classify(b2, R @ pt + shift)
        b, X = _lattice_zigzag()
        X = _sided(b, X)
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        shift = rng.normal(size=2)
        b2 = BoundaryPolyline(b.vertices @ R.T + shift)
        np.testing.assert_array_equal(BoundaryLabel(b).labels(X),
                                      BoundaryLabel(b2).labels(X @ R.T + shift))


class TestBoundaryPoints:
    def test_simple_segment(self):
        b = BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(boundary_points(b, 3),
                                   [[0, 0], [0.5, 0], [1, 0]])

    def test_count_two_gives_endpoints(self, rng):
        b = _monotone_polyline(rng)
        pts = boundary_points(b, 2)
        np.testing.assert_allclose(pts, [b.vertices[0], b.vertices[-1]])

    def test_points_lie_on_polyline(self, rng):
        b = _monotone_polyline(rng)
        dist, _ = geo._nearest_segment_side(b, boundary_points(b, 17))
        assert dist.shape == (17,)
        assert np.all(dist < 1e-9)

    def test_total_arc_length_preserved(self):
        # equal-length segments with a sample count that lands on every
        # vertex: the chord chain reproduces the full arc length exactly
        b = BoundaryPolyline(np.array([[0.0, 0.0], [1.0, 0.0],
                                       [1.0, 1.0], [0.0, 1.0]]))
        pts = boundary_points(b, 7)
        chain = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        assert chain == pytest.approx(b.length, abs=1e-12)

    def test_chord_chain_never_exceeds_arc_length(self, rng):
        b = _monotone_polyline(rng, n_vertices=6)
        for count in (10, 50, 200):
            pts = boundary_points(b, count)
            chain = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            assert chain <= b.length + 1e-12

    def test_arc_lengths_strictly_increasing(self, rng):
        b = _monotone_polyline(rng)
        pts = boundary_points(b, 40)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.all(steps > 0)

    def test_count_validation(self):
        with pytest.raises(InputError):
            boundary_points(_horizontal(), 1)


class TestEffectProfile:
    def _fits(self, rng, same=False):
        kern = from_name("se", lengthscale=2.0)
        Xc = rng.uniform(-3, 3, size=(15, 2))
        yc = np.sin(Xc[:, 0]) + rng.normal(scale=0.1, size=15)
        fit_c = gp.fit(Dataset(Xc, yc), kern, 0.05)
        if same:
            return fit_c, fit_c
        Xi = rng.uniform(-3, 3, size=(15, 2))
        yi = np.sin(Xi[:, 0]) + 1.0 + rng.normal(scale=0.1, size=15)
        fit_i = gp.fit(Dataset(Xi, yi), kern, 0.05,
                       mean_constant=fit_c.mean_constant)
        return fit_c, fit_i

    def test_identical_fits_zero_mean(self, rng):
        fit_c, fit_i = self._fits(rng, same=True)
        prof = effect_profile(fit_c, fit_i, _horizontal(), count=10)
        np.testing.assert_allclose(prof.means, 0.0, atol=1e-10)

    def test_consistent_with_pointwise_effect(self, rng):
        fit_c, fit_i = self._fits(rng)
        prof = effect_profile(fit_c, fit_i, _horizontal(), count=5)
        for pt, m, v in zip(prof.points, prof.means, prof.variances):
            em, ev = inference.effect_size(fit_c, fit_i, pt)
            assert m == pytest.approx(em, abs=1e-12)
            assert v == pytest.approx(ev, abs=1e-12)

    def test_requires_2d_fits(self, rng):
        kern = from_name("se")
        f = gp.fit(Dataset(np.linspace(0, 1, 5), np.zeros(5)), kern, 0.1)
        with pytest.raises(InputError):
            effect_profile(f, f, _horizontal())


class TestBoundaryLabel:
    def test_labels_split_plane(self):
        lab = BoundaryLabel(_horizontal())
        X = np.array([[0.0, 2.0], [1.0, -2.0], [-1.0, 0.5]])
        assert lab.labels(X).tolist() == [0, 1, 0]

    def test_requires_2d(self):
        lab = BoundaryLabel(_horizontal())
        with pytest.raises(InputError):
            lab.labels(np.zeros((3, 1)))
        with pytest.raises(InputError):
            lab.labels(np.array([[0.0, 1.0], [np.nan, 1.0]]))

    def test_batch_equals_one_row_calls_with_one_warning(self):
        b, X = _lattice_zigzag()
        on_path = geo._nearest_segment_side(b, X)[0] <= geo.ON_PATH_TOL
        assert on_path.any() and not on_path.all()
        with pytest.warns(UserWarning) as record:
            batch = BoundaryLabel(b).labels(X)
        assert len(record) == 1
        assert f"{np.count_nonzero(on_path)} point(s)" in str(record[0].message)
        assert record[0].filename == __file__
        with pytest.warns(UserWarning):
            single = [classify(b, x) for x in X]
        assert batch.tolist() == single
        assert np.all(batch[on_path] == 1)


class TestLoadBoundary:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "border.txt"
        p.write_text("# comment\n0 0\n1.5 2.0\n\n3 1\n")
        b = load_boundary(p)
        np.testing.assert_allclose(b.vertices, [[0, 0], [1.5, 2], [3, 1]])

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "border.txt"
        p.write_text("0 0\n1 2 3\n")
        with pytest.raises(DataError, match=":2"):
            load_boundary(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "border.txt"
        p.write_text("0 0\na b\n")
        with pytest.raises(DataError):
            load_boundary(p)

    def test_too_few_vertices(self, tmp_path):
        p = tmp_path / "border.txt"
        p.write_text("0 0\n")
        with pytest.raises(DataError):
            load_boundary(p)
