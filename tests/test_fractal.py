import csv
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from conftest import fibonacci, tribonacci
from oracles import reference_export_csv, reference_render_svg
from rauzykit import (
    DimensionMismatch,
    GridIndex,
    LabeledPointCloud,
    MatrixMismatch,
    NotPisot,
    Substitution,
    broken_line_prefix_sums,
    export_csv,
    grid_intersection_estimate,
    hausdorff_distance,
    incidence_matrix,
    intersection_cloud,
    projection_operator,
    rauzy_cloud,
    reflect_cloud,
    render_svg,
    reverse_substitution,
    run_bpa,
    spectral_split,
    stream_for,
)
from rauzykit.fractal import CloudMeta, letter_labels
from rauzykit.selfcheck import flipped_tribonacci


def tribonacci_operator():
    return projection_operator(spectral_split(incidence_matrix(tribonacci())))


def point_cloud(points, labels=None):
    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
    return LabeledPointCloud(
        arr,
        tuple(labels or ("a",) * n),
        np.arange(n, dtype=np.int64),
        CloudMeta("test", "", n),
    )


def label_cloud(cloud, label):
    """The points of cloud that carry label."""
    mask = np.array([lab == label for lab in cloud.labels], dtype=bool)
    return LabeledPointCloud(
        cloud.coords[mask], (label,) * int(mask.sum()), cloud.indices[mask], cloud.meta
    )


class TestBrokenLine:
    def test_two_letter_start(self):
        stream = stream_for(fibonacci())  # fixed point starts "ab..."
        sums = broken_line_prefix_sums(stream, 2)
        assert sums.tolist() == [[1, 0], [1, 1]]

    def test_totals_are_index_plus_one(self):
        stream = stream_for(tribonacci())
        sums = broken_line_prefix_sums(stream, 50)
        assert (sums.sum(axis=1) == np.arange(1, 51)).all()

    def test_tribonacci_first_four(self):
        stream = stream_for(tribonacci())  # prefix abac
        sums = broken_line_prefix_sums(stream, 4)
        assert sums.tolist() == [[1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 1, 1]]

    def test_consecutive_steps_are_basis_vectors(self):
        stream = stream_for(tribonacci())
        sums = broken_line_prefix_sums(stream, 100)
        steps = np.diff(sums, axis=0)
        assert ((steps >= 0).all() and (steps.sum(axis=1) == 1).all())


class TestRauzyCloud:
    def test_single_point(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 1, op)
        assert len(cloud) == 1
        assert cloud.labels == ("a",)
        assert np.allclose(cloud.coords[0], op.project([1, 0, 0]))

    def test_diameter_growth_under_one_percent(self):
        op = tribonacci_operator()
        small = rauzy_cloud(tribonacci(), 10 ** 4, op)
        large = rauzy_cloud(tribonacci(), 10 ** 5, op)
        growth = (large.diameter() - small.diameter()) / small.diameter()
        assert 0 <= growth < 0.01

    def test_rejects_non_unimodular(self):
        flat = Substitution.from_rules(["a", "b"], {"a": "ab", "b": "ba"})  # determinant 0
        op = projection_operator(spectral_split(incidence_matrix(flat)))  # stable dimension 0
        with pytest.raises(NotPisot):
            rauzy_cloud(flat, 10, op)

    def test_rejects_operator_of_another_matrix(self):
        family2 = Substitution.from_rules(["a", "b", "c"], {"a": "aab", "b": "aac", "c": "a"})
        with pytest.raises(MatrixMismatch):
            rauzy_cloud(family2, 10, tribonacci_operator())

    def test_labels_are_the_letters_read(self):
        cloud = rauzy_cloud(tribonacci(), 500, tribonacci_operator())
        letters = tribonacci().alphabet.letters
        assert cloud.labels == tuple(letters[i] for i in stream_for(tribonacci()).prefix_indices(500))
        assert all(type(label) is str for label in cloud.labels)

    def test_letter_labels_takes_plain_strings(self):
        labels = letter_labels(("a", "bc", "d"), np.array([1, 0, 2, 1]))
        assert labels == ("bc", "a", "d", "bc")
        assert isinstance(labels, tuple) and all(type(label) is str for label in labels)
        assert letter_labels(("a",), np.zeros(0, dtype=np.int64)) == ()

    def test_label_partition(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 2000, op)
        parts = [label_cloud(cloud, label) for label in cloud.label_set()]
        assert sum(len(part) for part in parts) == len(cloud)
        union = frozenset().union(*(GridIndex.from_cloud(part, 0.05).occupied_cells() for part in parts))
        assert union == GridIndex.from_cloud(cloud, 0.05).occupied_cells()
        per_label = sum(cloud.labels.count(label) for label in cloud.label_set())
        assert per_label == len(cloud)

    def test_label_classes_disjoint_except_boundary_cells(self):
        # the three subtiles share only boundary cells, a lower-dimensional
        # set, so the shared fraction shrinks with the cell size
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 2 * 10 ** 5, op)
        assert cloud.label_set() == ("a", "b", "c")
        parts = [label_cloud(cloud, label) for label in cloud.label_set()]

        def shared_fraction(scale):
            eps = scale * cloud.diameter()
            occupied = GridIndex.from_cloud(cloud, eps).occupied_cells()
            labels_per_cell = Counter(
                cell for part in parts for cell in GridIndex.from_cloud(part, eps).occupied_cells()
            )
            multi = sum(1 for count in labels_per_cell.values() if count > 1)
            return multi / len(occupied)

        coarse, fine = shared_fraction(0.02), shared_fraction(0.005)
        assert fine < 0.02
        assert fine < coarse


class TestGridIndex:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [0, 300])
    def test_matches_floor_oracle(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        eps = 0.25  # a power of two: the multiples of eps below lie exactly on cell boundaries
        spread = rng.uniform(-4, 4, size=(n, d))
        on_boundary = rng.integers(-16, 16, size=(n, d)) * eps
        coords = np.where(rng.random((n, 1)) < 0.3, on_boundary, spread)
        coords = np.vstack([coords, coords[: n // 4]])  # duplicate points
        grid = GridIndex.from_cloud(point_cloud(coords), eps)
        oracle = {tuple(int(v) for v in np.floor(row / eps)) for row in coords}
        assert grid.occupied_cells() == oracle
        assert grid.cells.dtype == np.int64 and grid.cells.shape == (len(oracle), d)
        assert [tuple(row) for row in grid.cells.tolist()] == sorted(oracle)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
    def test_refuses_a_cell_size_that_is_not_finite_and_positive(self, eps):
        cloud = point_cloud([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            GridIndex(eps, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            GridIndex.from_cloud(cloud, eps)
        with pytest.raises(ValueError):
            hausdorff_distance(cloud, cloud, eps)
        with pytest.raises(ValueError):
            grid_intersection_estimate(cloud, cloud, eps)


class TestReflection:
    def test_involution_is_exact(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 500, op)
        twice = reflect_cloud(reflect_cloud(cloud))
        assert np.array_equal(twice.coords, cloud.coords)
        assert twice.labels == cloud.labels

    def test_origin_cloud_fixed(self):
        cloud = point_cloud([[0.0, 0.0]])
        assert np.array_equal(reflect_cloud(cloud).coords, cloud.coords)


class TestHausdorff:
    def test_identical_clouds(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 3000, op)
        assert hausdorff_distance(cloud, cloud, 0.02) == 0.0

    def test_shift_by_ten_cells(self):
        rng = np.random.default_rng(8)
        eps = 0.05
        pts = rng.uniform(0, 1, size=(500, 2))
        a = point_cloud(pts)
        b = point_cloud(pts + np.array([10 * eps, 0.0]))
        d = hausdorff_distance(a, b, eps)
        assert 9 * eps <= d <= 11 * eps

    def test_two_distant_points(self):
        a = point_cloud([[0.0, 0.0]])
        b = point_cloud([[3.0, 4.0]])
        d = hausdorff_distance(a, b, 0.01)
        assert d == pytest.approx(5.0, abs=0.05)

    def test_dimension_mismatch(self):
        a = point_cloud([[0.0, 0.0]])
        b = point_cloud([[0.0]])
        with pytest.raises(DimensionMismatch):
            hausdorff_distance(a, b, 0.1)

    def test_empty_cases(self):
        empty = point_cloud(np.zeros((0, 2)), labels=())
        assert hausdorff_distance(empty, empty, 0.1) == 0.0
        assert hausdorff_distance(empty, point_cloud([[1.0, 1.0]]), 0.1) == np.inf


class TestGridIntersection:
    def test_self_intersection_is_full(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 3000, op)
        eps = 0.02 * cloud.diameter()
        estimate = grid_intersection_estimate(cloud, cloud, eps)
        assert estimate.cells == GridIndex.from_cloud(cloud, eps).occupied_cells()
        assert estimate.area == pytest.approx(estimate.cell_count * eps ** 2)

    def test_disjoint_clouds(self):
        a = point_cloud([[0.0, 0.0]])
        b = point_cloud([[5.0, 5.0]])
        assert grid_intersection_estimate(a, b, 0.1).cell_count == 0


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 300, op)
        path = tmp_path / "cloud.csv"
        export_csv(cloud, path)
        with open(path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["n", "letter", "x1", "x2"]
        assert tuple(row[1] for row in rows) == cloud.labels
        assert np.array_equal([int(row[0]) for row in rows], cloud.indices)
        coords = np.array([[float(v) for v in row[2:]] for row in rows])
        assert np.max(np.abs(coords - cloud.coords)) < 1e-8

    def test_csv_bytes_deterministic(self, tmp_path):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 200, op)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(cloud, p1)
        export_csv(cloud, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_cloud_exports(self, tmp_path):
        empty = point_cloud(np.zeros((0, 2)), labels=())
        csv_path = tmp_path / "empty.csv"
        export_csv(empty, csv_path)
        assert csv_path.read_text().strip() == "n,letter,x1,x2"
        svg_path = tmp_path / "empty.svg"
        render_svg([empty], svg_path)
        text = svg_path.read_text()
        assert '<g id="cloud0">' in text and "<circle" not in text

    def test_overlay_uses_distinct_palettes(self, tmp_path):
        op = tribonacci_operator()
        a = rauzy_cloud(tribonacci(), 50, op)
        b = rauzy_cloud(reverse_substitution(tribonacci()), 50, op)
        path = tmp_path / "overlay.svg"
        render_svg([a, b], path)
        text = path.read_text()
        assert text.count("<g id=") == 2
        colors_a = {line.split('fill="')[1][:7] for line in text.splitlines() if "circle" in line}
        assert len(colors_a) == 6  # three letters per cloud, disjoint palettes

    def test_one_dimensional_cloud_renders(self, tmp_path):
        fib_op = projection_operator(spectral_split(incidence_matrix(fibonacci())))
        cloud = rauzy_cloud(fibonacci(), 100, fib_op)
        assert cloud.dimension == 1
        path = tmp_path / "line.svg"
        render_svg([cloud], path)
        assert "<svg" in path.read_text()

    def test_svg_rejects_high_dimensions(self, tmp_path):
        cloud = point_cloud(np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            render_svg([cloud], tmp_path / "bad.svg")
        assert not (tmp_path / "bad.svg").exists()


SPECIAL_LABELS = ("a,b", 'q"t', "x y", "n\nl", "c\rr", "'", "-")
MANY_LABELS = SPECIAL_LABELS + tuple(f"l{i}" for i in range(11))  # 18 > 12 palette colors


def labeled_cloud(d, n, labels, seed=0):
    """n points of dimension d, labels cycled in order."""
    coords = np.random.default_rng(seed).normal(scale=3.0, size=(n, d))
    return point_cloud(coords, labels=[labels[i % len(labels)] for i in range(n)])


def flipped_intersection_cloud():
    sub = flipped_tribonacci()
    op = projection_operator(spectral_split(incidence_matrix(sub)))
    return intersection_cloud(run_bpa(sub, reverse_substitution(sub)), op, 3000)


EXPORT_CASES = {
    "dimension-0": lambda: [labeled_cloud(0, 7, ("a", "b"))],
    "dimension-1": lambda: [labeled_cloud(1, 50, ("a", "b"))],
    "dimension-2": lambda: [labeled_cloud(2, 50, ("a", "b", "c"))],
    "special-labels": lambda: [labeled_cloud(2, 90, SPECIAL_LABELS)],
    "palette-wrap": lambda: [labeled_cloud(2, 90, MANY_LABELS)],
    "empty-label": lambda: [labeled_cloud(1, 5, ("", "e"))],
    "overlay": lambda: [labeled_cloud(2, 40, MANY_LABELS), labeled_cloud(2, 30, ("a", "z"), seed=1)],
    "special-values": lambda: [
        point_cloud(
            [[-0.0, 1e-300], [1e20, -1e20], [np.inf, -np.inf], [np.nan, 0.5], [0.0, -0.0]],
            labels=["a", "b", "a", "c", "b"],
        )
    ],
    "empty": lambda: [point_cloud(np.zeros((0, 2)), labels=())],
    "tribonacci": lambda: [rauzy_cloud(tribonacci(), 3000, tribonacci_operator())],
    "flipped-tribonacci-pairs": lambda: [flipped_intersection_cloud()],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan in the viewBox arithmetic
@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
class TestExportsMatchLoopOracle:
    """The streamed writers against the row-at-a-time loop writers, byte for byte."""

    def test_csv_bytes(self, case, tmp_path):
        for i, cloud in enumerate(EXPORT_CASES[case]()):
            new, ref = tmp_path / f"new{i}.csv", tmp_path / f"ref{i}.csv"
            export_csv(cloud, new)
            reference_export_csv(cloud, ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_svg_bytes(self, case, tmp_path):
        clouds = EXPORT_CASES[case]()
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        render_svg(clouds, new)
        reference_render_svg(clouds, ref)
        assert new.read_bytes() == ref.read_bytes()
        root = ET.parse(new).getroot()
        circles = root.findall("{http://www.w3.org/2000/svg}g/{http://www.w3.org/2000/svg}circle")
        assert len(circles) == sum(len(c) for c in clouds)
