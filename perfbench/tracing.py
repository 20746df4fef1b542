"""Spans and counters around rauzykit's public functions, for traced runs.

Tracing wraps names from the benchmark's side only: each public function is
replaced in every rauzykit module that binds it (``classify_pisot`` lives in
``algebra`` and is also bound in ``cli``, ``spectral``, ``fractal`` and the
package itself), and each public method is replaced on its class.  A name
that no longer exists is skipped, and its metrics are reported absent.

Each call records a span (name, start, end, parent span) in memory.  A
layer's self time is the sum, over its spans, of the span's length minus the
length of its child spans.  Counters are read from the call's arguments and
results.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# metric -> (module, name) or (module, class, method) targets
SPANS = {
    "cli.main": [("rauzykit.cli", "main")],
    "words.stream": [
        ("rauzykit.words", "InfiniteWordStream", m)
        for m in ("prefix", "prefix_indices", "indices_range", "letter_at")
    ],
    "words.apply": [("rauzykit.words", "Substitution", "apply")],
    "algebra.classify": [("rauzykit.algebra", "classify_pisot")],
    "algebra.factor_search": [
        ("rauzykit.algebra", "is_irreducible_over_q"),
        ("rauzykit.algebra", "minimal_polynomial_of_dominant_root"),
    ],
    "algebra.roots": [("rauzykit.algebra", "all_roots"), ("rauzykit.algebra", "dominant_real_root")],
    "algebra.char_poly": [("rauzykit.algebra", "char_poly")],
    "spectral.split": [("rauzykit.spectral", "spectral_split"), ("rauzykit.spectral", "projection_operator")],
    "spectral.project": [("rauzykit.spectral", "ProjectionOperator", m) for m in ("project", "project_many")],
    "fractal.cloud": [("rauzykit.fractal", "rauzy_cloud")],
    "fractal.grid": [
        ("rauzykit.fractal", "GridIndex", "from_cloud"),
        ("rauzykit.fractal", "grid_intersection_estimate"),
    ],
    "fractal.hausdorff": [("rauzykit.fractal", "hausdorff_distance")],
    "fractal.csv": [("rauzykit.fractal", "export_csv")],
    "fractal.svg": [("rauzykit.fractal", "render_svg")],
    "bpa.run": [("rauzykit.bpa", "run_bpa")],
    "bpa.split": [("rauzykit.bpa", "minimal_split")],
    "bpa.seed_search": [("rauzykit.bpa", "first_minimal_balanced_pair")],
    "bpa.pair_incidence": [("rauzykit.bpa", "pair_incidence")],
    "bpa.verify": [("rauzykit.bpa", "verify_common_points")],
    "bpa.intersection_cloud": [("rauzykit.bpa", "intersection_cloud")],
}

# counter -> span metric it is read at
COUNTERS = {
    "words.stream_letters": "words.stream",
    "algebra.classify_calls": "algebra.classify",
    "algebra.factor_search_calls": "algebra.factor_search",
    "algebra.char_poly_calls": "algebra.char_poly",
    "bpa.letters_split": "bpa.split",
    "bpa.limit_run_s": "bpa.run",
    "fractal.csv_mb": "fractal.csv",
    "fractal.svg_mb": "fractal.svg",
}

_LIMIT_RESULTS = ("NotFound", "NonTermination")


class Tracer:
    """Installs wrappers, keeps spans in memory, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self.stack: list[int] = []
        self.counters = {name: 0.0 for name in COUNTERS}
        self.present: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, metric: str):
        """Context for a span that is not a wrapped call (a benchmark job)."""
        return _Span(self, metric)

    def _wrap(self, metric: str, fn):
        tracer = self
        count = getattr(self, "_count_" + metric.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [metric, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            before = len(args[0]) if metric == "words.stream" else 0
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(args, result, record, before)
            return result

        return wrapper

    # -- counters read from arguments and results -------------------------

    def _count_words_stream(self, args, result, record, before):
        self.counters["words.stream_letters"] += len(args[0]) - before

    def _count_algebra_classify(self, args, result, record, before):
        self.counters["algebra.classify_calls"] += 1

    def _count_algebra_factor_search(self, args, result, record, before):
        self.counters["algebra.factor_search_calls"] += 1

    def _count_algebra_char_poly(self, args, result, record, before):
        self.counters["algebra.char_poly_calls"] += 1

    def _count_bpa_split(self, args, result, record, before):
        self.counters["bpa.letters_split"] += args[0].length

    def _count_bpa_run(self, args, result, record, before):
        if type(result).__name__ in _LIMIT_RESULTS:
            self.counters["bpa.limit_run_s"] += record[2] - record[1]

    def _count_fractal_csv(self, args, result, record, before):
        self.counters["fractal.csv_mb"] += os.path.getsize(args[1]) / 1e6

    def _count_fractal_svg(self, args, result, record, before):
        self.counters["fractal.svg_mb"] += os.path.getsize(args[1]) / 1e6

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rauzykit" and m]
        for metric, targets in SPANS.items():
            for target in targets:
                if self._install_one(metric, target, modules):
                    self.present.add(metric)

    def _install_one(self, metric, target, modules) -> bool:
        owner = sys.modules.get(target[0])
        if owner is None:
            return False
        if len(target) == 3:
            cls = getattr(owner, target[1], None)
            raw = vars(cls).get(target[2]) if cls is not None else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(metric, raw.__func__))
            else:
                wrapped = self._wrap(metric, raw)
            self._restore.append((cls, target[2], raw))
            setattr(cls, target[2], wrapped)
            return True
        original = getattr(owner, target[1], None)
        if original is None:
            return False
        wrapped = self._wrap(metric, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per metric: total span length minus the length of child spans."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (metric, start, end, _), inner in zip(self.spans, child):
            totals[metric] = totals.get(metric, 0.0) + (end - start - inner)
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric whose wrapped names exist, with its unit."""
        totals = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for metric in SPANS:
            if metric in self.present:
                out[metric + "_s"] = (totals.get(metric, 0.0), "s")
        for counter, metric in COUNTERS.items():
            if metric in self.present:
                unit = "s" if counter.endswith("_s") else "MB" if counter.endswith("_mb") else "count"
                out[counter] = (self.counters[counter], unit)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: metric, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, metric: str):
        self.tracer = tracer
        self.record = [metric, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]

    def __enter__(self):
        self.tracer.stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False
