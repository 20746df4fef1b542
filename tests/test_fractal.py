import csv
import functools
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from conftest import fibonacci, traced_peak_mb, tribonacci
from oracles import cell_hausdorff, floor_cells, reference_export_csv, reference_render_svg
from rauzykit import (
    DimensionMismatch,
    GridIndex,
    LabeledPointCloud,
    MatrixMismatch,
    NotPisot,
    Substitution,
    export_csv,
    grid_intersection_estimate,
    hausdorff_distance,
    incidence_matrix,
    intersection_cloud,
    prefix_counts,
    projection_operator,
    rauzy_cloud,
    reflect_cloud,
    render_svg,
    reverse_substitution,
    run_bpa,
    spectral_split,
    stream_for,
)
from rauzykit.fractal import _ROWS_PER_WRITE, _WALK_ROWS
from rauzykit.selfcheck import flipped_tribonacci


def tribonacci_operator():
    return projection_operator(spectral_split(incidence_matrix(tribonacci())))


def point_cloud(points, labels=None):
    """A cloud of the given points and labels; its alphabet is the labels in
    order of first appearance, as a tuple, which may hold the empty label
    that Alphabet refuses."""
    arr = np.asarray(points, dtype=float)
    labels = tuple(labels or ("a",) * arr.shape[0])
    names = tuple(dict.fromkeys(labels))
    return LabeledPointCloud(arr, names, np.array([names.index(label) for label in labels], dtype=np.int64))


def labels_of(cloud):
    """The label of each point, in point order."""
    return tuple(cloud.alphabet[j] for j in cloud.letters.tolist())


def label_cloud(cloud, label):
    """The points of cloud that carry label."""
    mask = cloud.letters == list(cloud.alphabet).index(label)
    return LabeledPointCloud(cloud.coords[mask], cloud.alphabet, cloud.letters[mask])


class TestBrokenLine:
    def test_two_letter_start(self):
        stream = stream_for(fibonacci())  # fixed point starts "ab..."
        sums = prefix_counts(stream.prefix_indices(2), np.eye(2, dtype=np.int64))
        assert sums.tolist() == [[1, 0], [1, 1]]

    def test_totals_are_index_plus_one(self):
        stream = stream_for(tribonacci())
        sums = prefix_counts(stream.prefix_indices(50), np.eye(3, dtype=np.int64))
        assert (sums.sum(axis=1) == np.arange(1, 51)).all()

    def test_tribonacci_first_four(self):
        stream = stream_for(tribonacci())  # prefix abac
        sums = prefix_counts(stream.prefix_indices(4), np.eye(3, dtype=np.int64))
        assert sums.tolist() == [[1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 1, 1]]

    def test_consecutive_steps_are_basis_vectors(self):
        stream = stream_for(tribonacci())
        sums = prefix_counts(stream.prefix_indices(100), np.eye(3, dtype=np.int64))
        steps = np.diff(sums, axis=0)
        assert ((steps >= 0).all() and (steps.sum(axis=1) == 1).all())


@functools.lru_cache(maxsize=None)
def flipped_pair_system():
    """The flipped-tribonacci pair substitution against its reverse, and the
    parents' projection operator."""
    sub = flipped_tribonacci()
    op = projection_operator(spectral_split(incidence_matrix(sub)))
    return run_bpa(sub, reverse_substitution(sub)), op


#: Point counts around the walk's blocks of B = _WALK_ROWS rows.  At B + 1 and
#: 2B + 1 a one-row last block, whose product takes another BLAS path, would
#: differ from the one-shot reference in the last bits.
WALK_COUNTS = (1, 2, _WALK_ROWS - 1, _WALK_ROWS, _WALK_ROWS + 1, _WALK_ROWS + 2, 2 * _WALK_ROWS + 1)


class TestColumnMajorLayout:
    """Prefix counts and cloud coordinates are column-major, so reductions
    along the short axis read contiguous memory; their values are those of
    the row-major reference, bit for bit, however the walk splits its rows
    into blocks."""

    def test_prefix_counts(self):
        idx = stream_for(tribonacci()).prefix_indices(1000)
        weights = np.random.default_rng(3).integers(-5, 6, size=(3, 4))
        for w in (np.eye(3, dtype=np.int64), weights):
            sums = prefix_counts(idx, w)
            assert sums.flags.f_contiguous and sums.dtype == np.int64
            assert np.array_equal(sums, np.cumsum(w[idx], axis=0))

    @pytest.mark.parametrize("n", WALK_COUNTS)
    def test_rauzy_cloud_and_its_reflection(self, n):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), n, op)
        idx = stream_for(tribonacci()).prefix_indices(n)
        reference = op.project_many(np.cumsum(np.eye(3, dtype=np.int64)[idx], axis=0))
        assert cloud.coords.flags.f_contiguous and np.array_equal(cloud.coords, reference)
        reflected = reflect_cloud(cloud)
        assert reflected.coords.flags.f_contiguous and np.array_equal(reflected.coords, -reference)

    @pytest.mark.parametrize("n", WALK_COUNTS)
    def test_intersection_cloud(self, n):
        pair_sub, op = flipped_pair_system()
        cloud = intersection_cloud(pair_sub, op, n)
        prefix = stream_for(pair_sub.substitution).prefix_indices(n)
        reference = op.project_many(np.cumsum(pair_sub.letter_images[prefix], axis=0))
        assert cloud.coords.flags.f_contiguous and np.array_equal(cloud.coords, reference)

    def test_cloud_from_a_row_major_array(self):
        coords = np.arange(12, dtype=float).reshape(6, 2)
        assert coords.flags.c_contiguous
        cloud = point_cloud(coords)
        assert cloud.coords.flags.f_contiguous and np.array_equal(cloud.coords, coords)


class TestRauzyCloud:
    def test_single_point(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 1, op)
        assert len(cloud) == 1
        assert labels_of(cloud) == ("a",)
        assert np.allclose(cloud.coords[0], op.project_many([[1, 0, 0]])[0])

    def test_a_million_points_hold_each_datum_once(self):
        # the letters are the stream's own bytes and the walk's sums the
        # floats it projects: 96.0 MB with an int64 copy of each, 65.4 MB
        # with the sums and their projection made in one piece, 19.5 MB a
        # block at a time
        op = tribonacci_operator()
        cloud, peak = traced_peak_mb(lambda: rauzy_cloud(tribonacci(), 10 ** 6, op))
        assert len(cloud) == 10 ** 6 and cloud.letters.dtype == np.uint8
        assert peak < 30

    def test_a_million_pair_points_are_walked_a_block_at_a_time(self):
        # 65.1 MB with the sums and their projection made in one piece, 19.2 MB
        # a block at a time
        pair_sub, op = flipped_pair_system()
        cloud, peak = traced_peak_mb(lambda: intersection_cloud(pair_sub, op, 10 ** 6))
        assert len(cloud) == 10 ** 6
        assert peak < 30

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
        assert labels_of(cloud) == tuple(letters[i] for i in stream_for(tribonacci()).prefix_indices(500))
        assert all(type(label) is str for label in labels_of(cloud))

    def test_label_partition(self):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 2000, op)
        parts = [label_cloud(cloud, label) for label in cloud.label_counts()]
        assert sum(len(part) for part in parts) == len(cloud)
        union = frozenset().union(*(GridIndex.from_cloud(part, 0.05).occupied_cells() for part in parts))
        assert union == GridIndex.from_cloud(cloud, 0.05).occupied_cells()
        per_label = sum(labels_of(cloud).count(label) for label in cloud.label_counts())
        assert per_label == len(cloud)

    def test_label_classes_disjoint_except_boundary_cells(self):
        # the three subtiles share only boundary cells, a lower-dimensional
        # set, so the shared fraction shrinks with the cell size
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 2 * 10 ** 5, op)
        assert tuple(cloud.label_counts()) == ("a", "b", "c")
        parts = [label_cloud(cloud, label) for label in cloud.label_counts()]

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


class TestLabeledPointCloud:
    def test_carries_the_alphabet_and_the_stream_indices(self):
        cloud = rauzy_cloud(tribonacci(), 300, tribonacci_operator())
        assert cloud.alphabet == tribonacci().alphabet
        assert np.array_equal(cloud.letters, stream_for(tribonacci()).prefix_indices(300))

    @pytest.mark.parametrize(
        "letters",
        [
            np.array([0, 1], dtype=np.int64),  # one entry short
            np.array([0, 1, 0, 1], dtype=np.int64),  # one entry too many
            np.array([[0, 1, 0]], dtype=np.int64),  # not one-dimensional
            np.array([0.0, 1.0, 0.0]),  # float dtype
            np.array([True, False, True]),  # bool dtype
            np.array([0, 2, 1], dtype=np.int64),  # past the last letter
            np.array([0, -1, 1], dtype=np.int64),  # negative
        ],
    )
    def test_refuses_letters_that_do_not_index_the_alphabet(self, letters):
        with pytest.raises(ValueError):
            LabeledPointCloud(np.zeros((3, 2)), ("a", "b"), letters)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (2, 0)])
    def test_refuses_coordinates_that_are_not_finite(self, value, at):
        # else the SVG's viewBox, the CSV fields and the diameter read nan or inf
        coords = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        coords[at] = value
        with pytest.raises(ValueError, match="finite"):
            LabeledPointCloud(coords, ("a",), np.zeros(3, dtype=np.int64))

    def test_label_counts_are_sorted_and_skip_absent_letters(self):
        cloud = point_cloud(np.zeros((5, 1)), labels=["z", "b", "z", "z", "b"])
        wide = LabeledPointCloud(cloud.coords, ("z", "q", "b"), np.array([0, 2, 0, 0, 2]))
        assert cloud.label_counts() == wide.label_counts() == {"b": 2, "z": 3}
        assert list(wide.label_counts()) == ["b", "z"]


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

    # Fine cells and many dimensions: at d = 9, eps = 1e-3 each coordinate
    # spans about 8000 cells, so the codes' product passes 2^63 and the code
    # folded so far is renumbered; at d = 2, eps = 1e-12 and d = 1, eps = 1e-15
    # a coordinate spans more cells than there are points and is folded by
    # rank.  At spread = 2^61 the keys span nearly 2^62 values in both of two
    # coordinates, so folding the second by its key difference would overflow.
    @pytest.mark.parametrize("d, eps, spread", [(9, 1e-3, 4.0), (2, 1e-12, 4.0), (1, 1e-15, 4.0), (2, 1.0, 2.0 ** 61)])
    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_renumbering_folds_match_floor_oracle(self, d, eps, spread, n):
        rng = np.random.default_rng(n + d)
        coords = rng.uniform(-spread, spread, size=(n, d))
        on_boundary = rng.integers(-1000, 1000, size=(n, d)) * eps
        coords = np.where(rng.random((n, 1)) < 0.3, on_boundary, coords)
        coords = np.vstack([coords, coords[: max(n // 4, 1)]])  # duplicate points
        cells = GridIndex.from_cloud(point_cloud(coords), eps).cells
        oracle = floor_cells(coords, eps)
        assert cells.dtype == np.int64 and cells.shape == (len(oracle), d)
        assert [tuple(row) for row in cells.tolist()] == sorted(oracle)

    def test_refuses_a_cell_size_too_fine_for_int64_keys(self):
        cloud = point_cloud([[1.0, 2.0], [-3.0, 0.5]])
        assert hausdorff_distance(cloud, reflect_cloud(cloud), 1e-3) == pytest.approx(3.2, abs=0.01)
        # the keys would wrap to one cell, (-2^63, -2^63), and the distance read 0
        with pytest.raises(ValueError):
            GridIndex.from_cloud(cloud, 1e-300)
        with pytest.raises(ValueError):
            hausdorff_distance(cloud, reflect_cloud(cloud), 1e-300)
        with pytest.raises(ValueError):
            grid_intersection_estimate(cloud, reflect_cloud(cloud), 1e-300)
        with pytest.raises(ValueError):
            GridIndex.from_cloud(point_cloud([[0.0, 0.0], [float("nan"), 0.0]]), 1.0)
        # the bound is |coordinate| / eps < 2^62, on either side of zero
        for x in (2.0 ** 62, -(2.0 ** 62)):
            with pytest.raises(ValueError):
                GridIndex.from_cloud(point_cloud([[0.0, 0.0], [0.0, x]]), 1.0)
            below = np.nextafter(x, 0.0)
            cells = GridIndex.from_cloud(point_cloud([[0.0, 0.0], [0.0, below]]), 1.0).cells
            assert cells.tolist() == sorted([[0, 0], [0, int(below)]])

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
        assert labels_of(twice) == labels_of(cloud)

    def test_origin_cloud_fixed(self):
        cloud = point_cloud([[0.0, 0.0]])
        assert np.array_equal(reflect_cloud(cloud).coords, cloud.coords)


def symmetry_pair(n):
    """The first n points of the tribonacci cloud and of its reverse's cloud,
    both projected by the tribonacci operator."""
    op = tribonacci_operator()
    return rauzy_cloud(tribonacci(), n, op), rauzy_cloud(reverse_substitution(tribonacci()), n, op)


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
        assert d == cell_hausdorff(a.coords, b.coords, eps)

    def test_two_distant_points(self):
        a = point_cloud([[0.0, 0.0]])
        b = point_cloud([[3.0, 4.0]])
        d = hausdorff_distance(a, b, 0.01)
        assert d == pytest.approx(5.0, abs=0.05)
        assert d == cell_hausdorff(a.coords, b.coords, 0.01)

    def test_symmetry_pair_matches_brute_force_oracle(self):
        # C6: the reverse tribonacci cloud against the reflected cloud
        cloud, cloud_rev = symmetry_pair(20000)
        eps = 0.02 * cloud.diameter()
        reflected = reflect_cloud(cloud)
        d = hausdorff_distance(cloud_rev, reflected, eps)
        assert 0 < d == cell_hausdorff(cloud_rev.coords, reflected.coords, eps)

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
        assert estimate.area == pytest.approx(len(estimate.cells) * eps ** 2)

    def test_symmetry_pair_matches_floor_oracle(self):
        cloud, cloud_rev = symmetry_pair(200000)
        eps = 0.02 * cloud.diameter()
        common = floor_cells(cloud.coords, eps) & floor_cells(cloud_rev.coords, eps)
        assert common and grid_intersection_estimate(cloud, cloud_rev, eps).cells == common

    def test_disjoint_clouds(self):
        a = point_cloud([[0.0, 0.0]])
        b = point_cloud([[5.0, 5.0]])
        assert len(grid_intersection_estimate(a, b, 0.1).cells) == 0


class TestExports:
    def test_csv_round_trip(self, tmp_path):
        op = tribonacci_operator()
        cloud = rauzy_cloud(tribonacci(), 300, op)
        path = tmp_path / "cloud.csv"
        export_csv(cloud, path)
        with open(path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["n", "letter", "x1", "x2"]
        assert tuple(row[1] for row in rows) == labels_of(cloud)
        assert np.array_equal([int(row[0]) for row in rows], np.arange(len(cloud)))
        coords = np.array([[float(v) for v in row[2:]] for row in rows])
        assert np.max(np.abs(coords - cloud.coords)) < 1e-8

    def test_csv_label_with_carriage_return_reads_back_as_one_row(self, tmp_path):
        cloud = labeled_cloud(2, 90, SPECIAL_LABELS)  # includes "c\rr" and "n\nl"
        path = tmp_path / "special.csv"
        export_csv(cloud, path)
        with open(path, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert len(rows) == len(cloud) == 90
        assert tuple(row[1] for row in rows) == labels_of(cloud)
        assert [int(row[0]) for row in rows] == list(range(len(cloud)))

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
        render_svg(empty, svg_path)
        text = svg_path.read_text()
        assert '<g id="cloud0">' in text and "<circle" not in text

    def test_one_dimensional_cloud_renders(self, tmp_path):
        fib_op = projection_operator(spectral_split(incidence_matrix(fibonacci())))
        cloud = rauzy_cloud(fibonacci(), 100, fib_op)
        assert cloud.dimension == 1
        path = tmp_path / "line.svg"
        render_svg(cloud, path)
        assert "<svg" in path.read_text()

    def test_svg_rejects_high_dimensions(self, tmp_path):
        cloud = point_cloud(np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            render_svg(cloud, tmp_path / "bad.svg")
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
    "dimension-0": lambda: labeled_cloud(0, 7, ("a", "b")),
    "dimension-1": lambda: labeled_cloud(1, 50, ("a", "b")),
    "dimension-2": lambda: labeled_cloud(2, 50, ("a", "b", "c")),
    "special-labels": lambda: labeled_cloud(2, 90, SPECIAL_LABELS),
    "palette-wrap": lambda: labeled_cloud(2, 90, MANY_LABELS),
    "empty-label": lambda: labeled_cloud(1, 5, ("", "e")),
    "special-values": lambda: point_cloud(
        [[-0.0, 1e-300], [1e20, -1e20], [1e150, -5e-324], [2.5e-310, 0.5], [0.0, -0.0]],
        labels=["a", "b", "a", "c", "b"],
    ),
    "empty": lambda: point_cloud(np.zeros((0, 2)), labels=()),
    # a label that would be format text if it ever reached the template
    "percent-labels": lambda: labeled_cloud(2, 30, ("%", "%s", "%%d")),
    # one block short of, at, and past the writers' block size
    "block-less-one": lambda: labeled_cloud(2, _ROWS_PER_WRITE - 1, ("a", "b", "c")),
    "block-exact": lambda: labeled_cloud(2, _ROWS_PER_WRITE, ("a", "b", "c")),
    "block-plus-one": lambda: labeled_cloud(2, _ROWS_PER_WRITE + 1, ("a", "b", "c")),
    "two-blocks-plus-one": lambda: labeled_cloud(1, 2 * _ROWS_PER_WRITE + 1, SPECIAL_LABELS),
    "tribonacci": lambda: rauzy_cloud(tribonacci(), 3000, tribonacci_operator()),
    "flipped-tribonacci-pairs": flipped_intersection_cloud,
}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
class TestExportsMatchLoopOracle:
    """The streamed writers against the row-at-a-time loop writers, byte for byte."""

    def test_csv_bytes(self, case, tmp_path):
        cloud = EXPORT_CASES[case]()
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        export_csv(cloud, new)
        reference_export_csv(cloud, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_svg_bytes(self, case, tmp_path):
        cloud = EXPORT_CASES[case]()
        new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
        render_svg(cloud, new)
        reference_render_svg([cloud], ref)
        assert new.read_bytes() == ref.read_bytes()
        root = ET.parse(new).getroot()
        groups = root.findall("{http://www.w3.org/2000/svg}g")
        assert [g.get("id") for g in groups] == ["cloud0"]
        assert len(groups[0].findall("{http://www.w3.org/2000/svg}circle")) == len(cloud)
