"""Broken lines, Rauzy fractal point clouds, grid estimates, and exports.

A point cloud is its coordinates plus one letter index per point into an
alphabet, whose letters label the points (the natural decomposition).  All
grid estimates quantize at a caller-chosen cell size; CSV and SVG output is
deterministic byte for byte, written one %-format call per block of rows
from the block's columns taken as lists, never held as one file text.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MatrixMismatch, NotPisot
from .spectral import ProjectionOperator
from .words import Alphabet, Substitution, incidence_matrix, prefix_counts, stream_for

#: Fixed fill palette; letters are assigned colors in sorted label order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ffbb78",
)


@dataclass(frozen=True)
class LabeledPointCloud:
    """Projected broken-line points; point i carries the label alphabet[letters[i]].

    The alphabet is read only as a sequence of distinct names, so a tuple of
    names serves as well.  coords is stored column-major, so the bounding box,
    the grid keys and the export read each coordinate from contiguous memory.
    """

    coords: np.ndarray   # (n, d), column-major
    alphabet: Alphabet
    letters: np.ndarray  # (n,), integers in 0..len(alphabet)-1, kept as given

    def __post_init__(self):
        coords = np.asfortranarray(self.coords, dtype=float)
        letters = np.asarray(self.letters)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-d array")
        # nan and inf reach the min or the max, so no n-sized mask is made
        if coords.size and not np.isfinite([coords.min(), coords.max()]).all():
            raise ValueError("coords must be finite")
        if letters.shape != (coords.shape[0],):
            raise ValueError("letters must hold one entry per point")
        if not np.issubdtype(letters.dtype, np.integer):
            raise ValueError(f"letters must have an integer dtype, got {letters.dtype}")
        if letters.size and not (0 <= letters.min() and letters.max() < len(self.alphabet)):
            raise ValueError(f"letters must lie in 0..{len(self.alphabet) - 1}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "letters", letters)

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

    def label_counts(self) -> dict[str, int]:
        """Points per label, for the labels present, in sorted label order."""
        counts = np.bincount(self.letters, minlength=len(self.alphabet)).tolist()
        return dict(sorted((self.alphabet[j], c) for j, c in enumerate(counts) if c))


#: Rows per block of _walk_cloud.  rauzy_cloud(tribonacci, 10^6) on one
#: BLAS thread of a 2-core x86-64 VM (Python 3.11, numpy 2.4 with OpenBLAS),
#: median of 15 runs / tracemalloc peak: 2^12 rows 25 ms / 17.7 MB, 2^14
#: 22 ms / 18.4 MB, 2^15 25 ms / 19.5 MB, 2^16 23 ms / 21.6 MB, 2^18 35 ms /
#: 34.2 MB, and the whole cloud as one block 51 ms / 65.4 MB.  2^15 lies
#: inside the flat range 2^12-2^16.
_WALK_ROWS = 1 << 15


def _walk_cloud(
    substitution: Substitution, steps: np.ndarray, op: ProjectionOperator, n: int
) -> LabeledPointCloud:
    """First n projected points of the broken line that steps by steps[a]
    for each letter a of the fixed point, labeled by the letter.

    With M op's matrix, N the substitution's incidence matrix and
    S = steps.T, M S = S N must hold exactly, in integers (MatrixMismatch);
    then op must be unimodular (NotPisot), and n at least 1 (ValueError).

    The n letters are read once; their steps are then summed in float64, the
    form op projects uncopied, and projected a block of _WALK_ROWS rows at a
    time into one column-major (n, d) array, each block's sums starting from
    the previous block's last row.  The sums are integers below 2^53, so
    every row is the one-shot sum; a block of one row would go down another
    BLAS path than the one-shot product, so the last block takes a one-row
    remainder and a one-row block is made only at n = 1.
    """
    m = np.array(op.report.matrix.rows, dtype=object)
    s = np.array(steps, dtype=object).T
    inc = np.array(incidence_matrix(substitution).rows, dtype=object)
    if len(m) != len(s) or (m @ s != s @ inc).any():
        raise MatrixMismatch("the projection operator was built for another incidence matrix")
    if not op.report.is_unimodular:
        raise NotPisot("fractal generation needs a unimodular Pisot substitution")
    if n < 1:
        raise ValueError("need at least one point")
    idx = stream_for(substitution).prefix_indices(n)
    weights = np.asarray(steps, dtype=np.float64)
    coords = np.empty((n, op.chart.shape[0]), order="F")
    # a block starts only where two rows or more remain, or at row 0
    bounds = [*range(0, max(n - 1, 1), _WALK_ROWS), n]
    carry = None
    for a, b in zip(bounds, bounds[1:]):
        sums = prefix_counts(idx[a:b], weights, carry)
        coords[a:b] = op.project_many(sums)
        carry = sums[-1].copy()
    return LabeledPointCloud(coords, substitution.alphabet, idx)


def rauzy_cloud(substitution: Substitution, n: int, op: ProjectionOperator) -> LabeledPointCloud:
    """First n projected broken-line points of the fixed point, labeled by the
    letter read at each step.  op must be built for the substitution's
    incidence matrix (a reversed substitution shares it)."""
    return _walk_cloud(substitution, np.eye(substitution.alphabet.size, dtype=np.int64), op, n)


def reflect_cloud(cloud: LabeledPointCloud) -> LabeledPointCloud:
    """Negate every coordinate; the letters are preserved."""
    return LabeledPointCloud(-cloud.coords, cloud.alphabet, cloud.letters)


def _cell_size(eps: float) -> float:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"cell size must be finite and positive, got {eps!r}")
    return eps


#: Bound on |coordinate| / eps and on a cell code in GridIndex.from_cloud.
#: Keys and codes below 2^62 leave a fold step, code * span + key, inside
#: int64 before the key's minimum is taken off.
_KEY_LIMIT = 1 << 62


class GridIndex:
    """Occupied grid cells of a cloud at cell size eps.

    The cell of a point is floor(coordinate / eps) componentwise; cells is the
    (m, d) int64 array of distinct cells in lexicographic order.

    from_cloud folds each point's d keys into one int64 code in mixed radix,
    the first coordinate most significant, each digit the key minus the
    coordinate's least key, so the codes sort as the cells do; it sorts the n
    codes, keeps the first of each run and divides the distinct codes back
    into cells.  Codes stay below 2^62 by two order-preserving renumberings
    inside the fold: a coordinate whose keys span more than n values is folded
    by the dense rank of its key, and before a fold that would reach 2^62 the
    code folded so far is replaced by its dense rank; the decode maps each
    rank back through the table of distinct values it came from.  A cloud
    with some |coordinate| / eps of 2^62 or more (or not finite) is refused
    with ValueError.
    """

    def __init__(self, eps: float, cells: np.ndarray):
        self.eps = _cell_size(eps)
        self.cells = cells

    @classmethod
    def from_cloud(cls, cloud: LabeledPointCloud, eps: float) -> "GridIndex":
        eps = _cell_size(eps)
        n = len(cloud)
        scaled = np.empty(n)
        keys = np.empty(n, dtype=np.int64)
        code = np.zeros(n, dtype=np.int64)
        size = 1  # every code lies in 0..size-1
        steps = []  # per coordinate: (span, low, its distinct keys, the renumbering before it)
        for column in cloud.coords.T:  # contiguous, as coords is column-major
            np.floor(np.divide(column, eps, out=scaled), out=scaled)
            low, high = (scaled.min(), scaled.max()) if n else (0.0, 0.0)
            if not -_KEY_LIMIT < low <= high < _KEY_LIMIT:  # an overflow to inf fails too
                raise ValueError(
                    f"cell size {eps!r} is too fine for int64 cells: some |coordinate| / eps"
                    " is 2^62 or more, or not finite"
                )
            keys[...] = scaled
            row, values, ranks = keys, None, None
            low = int(low)
            span = int(high) - low + 1
            if span > n:
                values, row = np.unique(keys, return_inverse=True)
                span, low = len(values), 0
            if size * span >= _KEY_LIMIT:
                ranks, code = np.unique(code, return_inverse=True)
                size = len(ranks)
            code *= span
            code += row
            code -= low
            size *= span
            steps.append((span, low, values, ranks))
        code.sort()
        fresh = np.ones(n, dtype=bool)
        np.not_equal(code[1:], code[:-1], out=fresh[1:])
        code = code[fresh]
        cells = np.empty((len(steps), len(code)), dtype=np.int64)
        for j in reversed(range(len(steps))):
            span, low, values, ranks = steps[j]
            code, digit = np.divmod(code, span)
            cells[j] = digit + low if values is None else values[digit]
            if ranks is not None:
                code = ranks[code]
        return cls(eps, cells.T)

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
    area: float


def grid_intersection_estimate(
    a: LabeledPointCloud, b: LabeledPointCloud, eps: float
) -> IntersectionEstimate:
    """Cells occupied by both clouds; area estimate is count * eps^d."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")
    common = GridIndex.from_cloud(a, eps).occupied_cells() & GridIndex.from_cloud(b, eps).occupied_cells()
    return IntersectionEstimate(cells=common, area=len(common) * eps ** max(a.dimension, 1))


def negate_cells(cells: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Image of a cell set under point reflection: cell c maps to -c - 1."""
    return frozenset(tuple(-v - 1 for v in cell) for cell in cells)


# ---------------------------------------------------------------------------
# exports


#: Rows per % call in _write_rows.  Writing the CSV and the SVG of a
#: 2*10^5-point tribonacci cloud to /dev/null on one core of a 2-core x86-64
#: VM (Python 3.11), every size from 64 to 65536 rows took 0.14-0.20 s per
#: file (median of 5 runs), against 0.69-0.81 s at one row per call; 4096
#: lies inside that flat range and keeps each call's text under 1 MB.
_ROWS_PER_WRITE = 4096


def _write_rows(handle, template: str, columns: Sequence[np.ndarray]) -> None:
    """Write template % row for each row of the equal-length 1-d columns.

    Each block of _ROWS_PER_WRITE rows is one % call: the block's columns,
    taken as lists, are interleaved into one flat tuple that fills the
    template repeated once per row.  Values fill conversions and are never
    parsed as format text, so a label holding '%' is written as it is.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
        block = [column[start:start + _ROWS_PER_WRITE].tolist() for column in columns]
        rows = len(block[0])
        flat = [None] * (rows * width)
        for j, values in enumerate(block):
            flat[j::width] = values
        handle.write((template * rows) % tuple(flat))


def export_csv(cloud: LabeledPointCloud, path) -> None:
    """Columns n ('%d'), letter (quoted as the csv module's QUOTE_MINIMAL
    quotes it, so a label holding '\\r' or '\\n' is quoted) and x1..xd
    ('%.9g'); '\\n' line ends, UTF-8, byte deterministic."""
    d = cloud.dimension
    fields = []
    for label in cloud.alphabet:
        # the leading field keeps an empty label from being quoted as a lone
        # field; '\r\n' as the terminator makes the writer quote both '\r' and '\n'
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow((0, label))
        fields.append(buffer.getvalue()[2:-2])
    row = "%d,%s" + ",%.9g" * d + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["n", "letter"] + [f"x{i + 1}" for i in range(d)]) + "\n")
        labels = np.array(fields, dtype=object)[cloud.letters]
        _write_rows(handle, row, [np.arange(len(cloud)), labels, *cloud.coords.T])


def _fmt(v: float) -> str:
    return format(v, ".6g")


def require_planar(cloud: LabeledPointCloud) -> None:
    """Refuse, with DimensionMismatch, a cloud that render_svg cannot draw:
    one above two dimensions."""
    if cloud.dimension > 2:
        raise DimensionMismatch("svg rendering supports 1-d and 2-d clouds only")


def render_svg(cloud: LabeledPointCloud, path) -> None:
    """One circle per point in one group, <g id="cloud0">, filled from
    PALETTE by the rank of the point's label among the labels present.

    A 1-d cloud renders on the horizontal axis; dimensions above 2 are
    refused by require_planar before any file is opened.  The viewBox fits
    the data with a 5 percent margin.  Numbers are '%.6g'; '\\n' line ends,
    UTF-8.
    """
    require_planar(cloud)
    xy = np.zeros((2, len(cloud)))  # a 1-d cloud lies on the horizontal axis
    xy[: cloud.dimension] = cloud.coords.T
    xy[1] = -xy[1]  # svg y grows downward
    lo, hi = np.zeros(2), np.ones(2)  # an empty cloud's viewBox
    if len(cloud):
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        margin = 0.05 * np.maximum(hi - lo, 1e-9)
        lo, hi = lo - margin, hi + margin
    diam = float(np.linalg.norm(hi - lo))
    # a letter absent from the cloud gets no colour and is never looked up
    colors = dict(zip(cloud.label_counts(), itertools.cycle(PALETTE)))
    palette = np.array([colors.get(label) for label in cloud.alphabet], dtype=object)
    circle = f'<circle cx="%.6g" cy="%.6g" r="{_fmt(0.01 * diam)}" fill="%s"/>\n'
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo[0])} {_fmt(lo[1])} '
            f'{_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}">\n'
            '<g id="cloud0">\n'
        )
        _write_rows(handle, circle, [*xy, palette[cloud.letters]])
        handle.write("</g>\n</svg>\n")
