"""Broken lines, Rauzy fractal point clouds, grid estimates, and exports.

Point clouds carry per-point letter labels (the natural decomposition) and
source indices.  All grid estimates quantize at a caller-chosen cell size;
CSV and SVG output is deterministic byte for byte, streamed one %-format row
per point from columns taken as lists, never held as one file text.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MatrixMismatch, NotPisot
from .spectral import ProjectionOperator
from .words import InfiniteWordStream, Substitution, incidence_matrix, prefix_counts, stream_for

#: Fixed fill palette; letters are assigned colors in sorted label order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ffbb78",
)


@dataclass(frozen=True)
class CloudMeta:
    source_id: str
    chart_id: str
    n_points: int


@dataclass(frozen=True)
class LabeledPointCloud:
    """Projected broken-line points with letter labels and source indices."""

    coords: np.ndarray        # (n, d)
    labels: tuple[str, ...]   # length n
    indices: np.ndarray       # (n,), strictly increasing
    meta: CloudMeta

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        indices = np.asarray(self.indices, dtype=np.int64)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-d array")
        n = coords.shape[0]
        if len(self.labels) != n or indices.shape != (n,):
            raise ValueError("coords, labels, and indices must agree in length")
        if n > 1 and not (np.diff(indices) > 0).all():
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self):
        return self.coords.shape[0]

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            z = np.zeros(self.dimension)
            return z, z
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def diameter(self) -> float:
        """Length of the bounding-box diagonal; relative tolerances reference this."""
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def label_set(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))


def chart_id_of(operator: ProjectionOperator) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(operator.chart).tobytes()).hexdigest()
    return digest[:12]


def broken_line_prefix_sums(stream: InfiniteWordStream, n: int) -> np.ndarray:
    """Entry m is the exact integer vector sum of basis steps e_{u_0}..e_{u_m}."""
    if n < 1:
        raise ValueError("need at least one point")
    k = stream.substitution.alphabet.size
    return prefix_counts(stream.prefix_indices(n), np.eye(k, dtype=np.int64))


def letter_labels(names: Sequence[str], idx: np.ndarray) -> tuple[str, ...]:
    """The names at the letter indices idx, taken from an object array."""
    return tuple(np.asarray(names, dtype=object)[idx])


def rauzy_cloud(substitution: Substitution, n: int, op: ProjectionOperator) -> LabeledPointCloud:
    """First n projected broken-line points of the fixed point, labeled by the
    letter read at each step.

    op must be built for the substitution's incidence matrix (a reversed
    substitution shares it); its classification is not recomputed.
    Deterministic for fixed substitution, n, and chart.
    """
    if op.report.matrix != incidence_matrix(substitution):
        raise MatrixMismatch("the projection operator was built for another incidence matrix")
    if not op.report.is_unimodular:
        raise NotPisot("fractal generation needs a unimodular Pisot substitution")
    if n < 1:
        raise ValueError("need at least one point")
    letters = substitution.alphabet.letters
    idx = stream_for(substitution).prefix_indices(n)
    coords = op.project_many(prefix_counts(idx, np.eye(len(letters), dtype=np.int64)))
    labels = letter_labels(letters, idx)
    meta = CloudMeta(source_id=substitution.rule_text(), chart_id=chart_id_of(op), n_points=n)
    return LabeledPointCloud(coords, labels, np.arange(n, dtype=np.int64), meta)


def reflect_cloud(cloud: LabeledPointCloud) -> LabeledPointCloud:
    """Negate every coordinate; labels and indices are preserved."""
    return LabeledPointCloud(-cloud.coords, cloud.labels, cloud.indices, cloud.meta)


def _cell_size(eps: float) -> float:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"cell size must be finite and positive, got {eps!r}")
    return eps


class GridIndex:
    """Occupied grid cells of a cloud at cell size eps.

    The cell of a point is floor(coordinate / eps) componentwise; cells is the
    (m, d) int64 array of distinct cells in lexicographic order.
    """

    def __init__(self, eps: float, cells: np.ndarray):
        self.eps = _cell_size(eps)
        self.cells = cells

    @classmethod
    def from_cloud(cls, cloud: LabeledPointCloud, eps: float) -> "GridIndex":
        keys = np.floor(cloud.coords / _cell_size(eps)).astype(np.int64)
        # lexsort's last key is its primary one and it refuses zero keys: the
        # point index, least significant, is a key in every dimension
        keys = keys[np.lexsort((np.arange(len(keys)), *keys.T[::-1]))]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        return cls(eps, keys[fresh])

    def occupied_cells(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self.cells.tolist()))


def hausdorff_distance(a: LabeledPointCloud, b: LabeledPointCloud, eps: float) -> float:
    """Symmetric grid Hausdorff estimate between occupied cell sets, quantized at eps.

    Zero exactly when the occupied cell sets coincide; infinite when exactly
    one cloud is empty.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")
    cells_a = GridIndex.from_cloud(a, eps).cells
    cells_b = GridIndex.from_cloud(b, eps).cells
    if np.array_equal(cells_a, cells_b):
        return 0.0
    if not len(cells_a) or not len(cells_b):
        return math.inf
    from scipy.spatial import cKDTree  # deferred: scipy takes most of the import time

    d_ab, _ = cKDTree(cells_b).query(cells_a)
    d_ba, _ = cKDTree(cells_a).query(cells_b)
    return eps * float(max(d_ab.max(), d_ba.max()))


@dataclass(frozen=True)
class IntersectionEstimate:
    cells: frozenset[tuple[int, ...]]
    cell_count: int
    cell_size: float
    area: float


def grid_intersection_estimate(
    a: LabeledPointCloud, b: LabeledPointCloud, eps: float
) -> IntersectionEstimate:
    """Cells occupied by both clouds; area estimate is count * eps^d."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")
    common = GridIndex.from_cloud(a, eps).occupied_cells() & GridIndex.from_cloud(b, eps).occupied_cells()
    return IntersectionEstimate(
        cells=common,
        cell_count=len(common),
        cell_size=eps,
        area=len(common) * eps ** max(a.dimension, 1),
    )


def negate_cells(cells: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Image of a cell set under point reflection: cell c maps to -c - 1."""
    return frozenset(tuple(-v - 1 for v in cell) for cell in cells)


# ---------------------------------------------------------------------------
# exports


def export_csv(cloud: LabeledPointCloud, path) -> None:
    """Columns n ('%d'), letter (quoted as the csv module's QUOTE_MINIMAL
    quotes it) and x1..xd ('%.9g'); '\\n' line ends, UTF-8, byte deterministic."""
    d = cloud.dimension
    fields = {}
    for label in set(cloud.labels):
        # the leading field keeps an empty label from being quoted as a lone field
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((0, label))
        fields[label] = buffer.getvalue()[2:-1]
    row = "%d,%s" + ",%.9g" * d + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["n", "letter"] + [f"x{i + 1}" for i in range(d)]) + "\n")
        labels = map(fields.__getitem__, cloud.labels)
        handle.writelines(map(row.__mod__, zip(cloud.indices.tolist(), labels, *cloud.coords.T.tolist())))


def _fmt(v: float) -> str:
    return format(v, ".6g")


def render_svg(clouds: Sequence[LabeledPointCloud], path) -> None:
    """One circle per point, one group per cloud, deterministic palette per letter.

    Clouds of dimension 1 render on the horizontal axis; dimensions above 2
    are refused with DimensionMismatch before any file is opened.  The
    viewBox fits the data with a 5 percent margin.  Numbers are '%.6g';
    '\\n' line ends, UTF-8.
    """
    planar: list[np.ndarray] = []
    for cloud in clouds:
        if cloud.dimension > 2:
            raise DimensionMismatch("svg rendering supports 1-d and 2-d clouds only")
        pts = cloud.coords
        if cloud.dimension < 2:
            pad = np.zeros((pts.shape[0], 2 - cloud.dimension))
            pts = np.hstack([pts.reshape(pts.shape[0], cloud.dimension), pad])
        planar.append(np.column_stack([pts[:, 0], -pts[:, 1]]))  # svg y grows downward

    occupied = [p for p in planar if p.shape[0]]
    if occupied:
        alldata = np.vstack(occupied)
        lo, hi = alldata.min(axis=0), alldata.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        margin = 0.05 * span
        lo, hi = lo - margin, hi + margin
        diam = float(np.linalg.norm(hi - lo))
    else:
        lo, hi = np.zeros(2), np.ones(2)
        diam = math.sqrt(2.0)
    circle = f'<circle cx="%.6g" cy="%.6g" r="{_fmt(0.01 * diam)}" fill="%s"/>\n'
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo[0])} {_fmt(lo[1])} '
            f'{_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}">\n'
        )
        color_cursor = 0
        for ci, (cloud, pts) in enumerate(zip(clouds, planar)):
            labels = cloud.label_set()
            colors = {
                label: PALETTE[(color_cursor + rank) % len(PALETTE)]
                for rank, label in enumerate(labels)
            }
            color_cursor += len(labels)
            handle.write(f'<g id="cloud{ci}">\n')
            fills = map(colors.__getitem__, cloud.labels)
            handle.writelines(map(circle.__mod__, zip(*pts.T.tolist(), fills)))
            handle.write("</g>\n")
        handle.write("</svg>\n")
