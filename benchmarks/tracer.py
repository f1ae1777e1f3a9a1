"""In-memory span tracer that instruments evprofiler from outside.

``Tracer.instrument()`` replaces public functions of the evprofiler modules
with timing wrappers for the duration of a ``with`` block. A function is
replaced under every name that refers to it in any loaded evprofiler module
(``learn.predict`` and ``experiments.predict``, ``tail.smooth_current``,
``cli.segment_session``, ...), so calls made through an imported name are
traced too. Nothing under ``src/`` changes; leaving the block restores the
original objects.

Each call records a span ``(id, parent_id, name, start, end)`` in memory.
Self time is a span's duration minus the time its direct children cover.
Observers read the values a layer returns (models, rejection reasons,
corpora) and add exact work counters.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

ROOT_SPAN = "other"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - covered[span_id]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, observe: Optional[Callable] = None):
        """Trace ``owner.attr`` under every alias in loaded evprofiler modules.

        ``name`` is a span name or a function of the call's arguments that
        returns one. ``observe(counts, args, kwargs, result)`` runs after the
        span closes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is owner or not mod_name.startswith("evprofiler"):
                    continue
                targets += [(mod, alias) for alias, value in vars(mod).items()
                            if value is original]
        for target, alias in targets:
            self._patched.append((target, alias, getattr(target, alias)))
            setattr(target, alias, traced)

    def restore(self) -> None:
        while self._patched:
            target, alias, original = self._patched.pop()
            setattr(target, alias, original)

    @contextmanager
    def instrument(self):
        """Trace every evprofiler layer the benchmark reports on."""
        try:
            _instrument_layers(self)
            with self.span(ROOT_SPAN):
                yield self
        finally:
            self.restore()


# ---------------------------------------------------------------------------
# layer instrumentation

def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return count


def _observe_parse(counts, args, kwargs, corpus):
    counts["ingest.sessions_parsed"] += len(corpus)


def _observe_segment(counts, args, kwargs, result):
    from evprofiler.tail import RejectionReason

    counts["tail.sessions"] += 1
    if isinstance(result, RejectionReason):
        counts[f"tail.reject.{result.code}"] += 1
    else:
        counts["tail.accepted"] += 1


def _observe_series(counts, args, kwargs, result):
    counts["features.series_calls"] += 1


def _observe_train(counts, args, kwargs, model):
    family = model.spec.family
    counts[f"learn.fits.{family}"] += 1
    trees = ([model.tree] if model.tree is not None
             else list(model.forest) if model.forest is not None else [])
    if trees:
        nodes = sum(_count_nodes(t) for t in trees)
        for key in ("learn.trees_grown", f"learn.trees_grown.{family}"):
            counts[key] += len(trees)
        for key in ("learn.tree_nodes", f"learn.tree_nodes.{family}"):
            counts[key] += nodes


def _observe_predict(counts, args, kwargs, predicted):
    model = _first(args, kwargs, "model")
    counts[f"learn.rows_predicted.{model.spec.family}"] += len(predicted)


def _cli_stage(argv=None):
    return f"cli.{argv[0]}" if argv else "cli.main"


def _instrument_layers(tracer: Tracer) -> None:
    from evprofiler import cli, experiments, features, filters, ingest, learn, tail

    tracer.wrap(ingest, "parse_sessions", "ingest.parse", _observe_parse)
    tracer.wrap(ingest, "write_sessions", "ingest.write")
    tracer.wrap(ingest, "apply_primary_filters", "ingest.admit")
    tracer.wrap(filters, "smooth_current", "filters.smooth")
    tracer.wrap(filters, "delta_series_values", "filters.delta")
    tracer.wrap(tail, "find_zero_anchor", "tail.anchor")
    tracer.wrap(tail, "extract_tail", "tail.walk")
    tracer.wrap(tail, "validate_segments", "tail.validate")
    tracer.wrap(tail, "segment_session", "tail.segment", _observe_segment)
    tracer.wrap(features, "series_features", "features.series", _observe_series)
    tracer.wrap(features, "write_feature_csv", "features.csv_write")
    tracer.wrap(features, "read_feature_csv", "features.csv_read")
    tracer.wrap(features, "fit_selection", "features.select")
    tracer.wrap(features.SelectionModel, "transform", "features.transform")
    tracer.wrap(learn, "stratified_split", "learn.split")
    tracer.wrap(learn, "stratified_kfold", "learn.split")
    tracer.wrap(learn, "grid_search",
                lambda *a, **k: f"learn.search.{_first(a, k, 'family')}")
    tracer.wrap(learn, "train",
                lambda *a, **k: f"learn.train.{_first(a, k, 'spec').family}",
                _observe_train)
    tracer.wrap(learn, "predict",
                lambda *a, **k: f"learn.predict.{_first(a, k, 'model').spec.family}",
                _observe_predict)
    tracer.wrap(experiments, "run_cell", "experiments.cell")
    for fn in ("build_binary_dataset", "subsample_multiclass"):
        tracer.wrap(experiments, fn, "experiments.dataset")
    tracer.wrap(experiments, "summarize_cells", "experiments.summarize")
    for fn in ("write_cells_csv", "write_summary_csv", "write_summary_md"):
        tracer.wrap(experiments, fn, "experiments.write")
    tracer.wrap(cli, "main", _cli_stage)


# ---------------------------------------------------------------------------
# per-layer metrics

# Fixed here rather than read from src: BENCHMARK.json names these metrics.
FAMILIES = ("knn", "decision-tree", "random-forest")
TREE_FAMILIES = ("decision-tree", "random-forest")
REJECTION_CODES = ("no-zero-anchor", "tail-too-short", "tail-too-long",
                   "delta-too-short", "delta-too-long", "zero-valued-segment",
                   "empty-cc")
CLI_STAGES = ("ingest", "extract", "featurize", "experiment", "report")

# metric name -> span name whose self time it reports
SELF_TIME_METRICS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.write_s": "ingest.write",
    "ingest.admit_s": "ingest.admit",
    "filters.smooth_s": "filters.smooth",
    "filters.delta_s": "filters.delta",
    "tail.anchor_s": "tail.anchor",
    "tail.walk_s": "tail.walk",
    "tail.validate_s": "tail.validate",
    "tail.segment_s": "tail.segment",
    "features.series_s": "features.series",
    "features.csv_write_s": "features.csv_write",
    "features.csv_read_s": "features.csv_read",
    "features.select_s": "features.select",
    "features.transform_s": "features.transform",
    **{f"learn.search_s.{f}": f"learn.search.{f}" for f in FAMILIES},
    **{f"learn.train_s.{f}": f"learn.train.{f}" for f in FAMILIES},
    **{f"learn.predict_s.{f}": f"learn.predict.{f}" for f in FAMILIES},
    "learn.split_s": "learn.split",
    "experiments.dataset_s": "experiments.dataset",
    "experiments.summarize_s": "experiments.summarize",
    "experiments.write_s": "experiments.write",
    **{f"cli.{s}_s": f"cli.{s}" for s in CLI_STAGES},
    "trace.other_s": ROOT_SPAN,
}

COUNT_METRICS = (
    ["ingest.sessions_parsed", "features.series_calls"]
    + [f"tail.reject.{c}" for c in REJECTION_CODES]
    + [f"learn.fits.{f}" for f in FAMILIES]
    + ["learn.trees_grown", "learn.tree_nodes"]
    + [f"learn.trees_grown.{f}" for f in TREE_FAMILIES]
    + [f"learn.tree_nodes.{f}" for f in TREE_FAMILIES]
    + [f"learn.rows_predicted.{f}" for f in FAMILIES]
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    A layer the workload does not reach reads 0.
    """
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for metric, span_name in SELF_TIME_METRICS.items():
        out[metric] = (selfs.get(span_name, 0.0), "s")
    for metric in COUNT_METRICS:
        out[metric] = (tracer.counts.get(metric, 0), "count")
    sessions = tracer.counts.get("tail.sessions", 0)
    out["tail.accept_ratio"] = (
        tracer.counts.get("tail.accepted", 0) / sessions if sessions else 0.0,
        "ratio")
    cells = tracer.durations("experiments.cell")
    out["experiments.cell_s"] = (statistics.median(cells) if cells else 0.0, "s")
    return out
