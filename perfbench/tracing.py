"""Spans and counts around calls into flagcrash's layers, installed from outside.

`install` replaces each function in `TARGETS` with a wrapper, in its own
module and in every flagcrash module that imported it by name, so the
program under test is unchanged.  A span is (name, start, end, parent);
spans stay in memory and are reduced to per-layer metrics by `metrics`.
With `track_alloc`, each call also records the tracemalloc peak it
reached above the traced memory at its entry.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MB = 1e6


def _windows(result, args):
    return {"corrnet.windows": len(result)}


def _edges(result, args):
    return {"corrnet.edges": sum(len(g.edges) for g in result)}


def _archive_read(result, args):
    return {"archive.reads": 1, "archive.bytes_read": os.path.getsize(args[0])}


def _graphs(result, args):
    return {"ph.graphs": len(result)}


def _filtration(result, args):
    tri = sum(1 for s in result.simplices if s[1] == 2)
    return {"ph.triangles": tri, "ph.simplices": len(result.simplices)}


def _diagram(result, args):
    h1 = sum(1 for p in result.finite if p[2] == 1)
    return {"ph.finite_h0": len(result.finite) - h1, "ph.finite_h1": h1}


def _lof(result, args):
    return {"detectors.lof_calls": 1}


def _gather_scatter(result, args):
    # bytes of the dense one-hot gather and scatter matrices that one
    # training run holds per graph: 2 matrices of (2E) x n float64
    return {"gnn.gather_scatter_bytes": sum(2 * 2 * len(g.edges) * g.n * 8 for g in result)}


def _training(result, args):
    epochs = len(result.loss_curve)
    return {"gnn.epochs_run": epochs, "gnn.graph_epochs": epochs * len(args[0])}


# (module, attribute, counter): every layer function pipeline.py calls, plus
# the nested ones a per-layer metric needs (filtration, reduction, backward,
# Adam).  The layer of a span is its module.
TARGETS = [
    ("ingest", "parse_price_csv", None),
    ("ingest", "align_and_filter", None),
    ("ingest", "log_returns", None),
    ("ingest", "write_returns_csv", None),
    ("ingest", "read_returns_csv", None),
    ("corrnet", "correlation_series", _windows),
    ("corrnet", "graph_series", _edges),
    ("corrnet", "matrix_from_digraph", None),
    ("archive", "write_graphs", None),
    ("archive", "read_graphs", _archive_read),
    ("ph", "tda_features", _graphs),
    ("ph", "build_filtration", _filtration),
    ("ph", "persistent_homology", _diagram),
    ("features", "fit_pca", None),
    ("features", "project_matrix", None),
    ("detectors", "mahalanobis_scores", None),
    ("detectors", "lof_scores", _lof),
    ("gnn", "attribute_graphs", _gather_scatter),
    ("gnn", "ocgin_train", _training),
    ("gnn", "glocalkd_train", _training),
    ("gnn", "ocgin_scores", None),
    ("gnn", "glocalkd_scores", None),
    ("autodiff", "Tensor.backward", None),
    ("autodiff", "adam_step", None),
    ("tables", "write_feature_csv", None),
    ("tables", "read_feature_csv", None),
    ("tables", "write_scores_csv", None),
    ("tables", "read_scores_csv", None),
    ("evaluation", "load_events", None),
    ("evaluation", "threshold_anomalies", None),
    ("evaluation", "metrics", None),
    ("charts", "monthly_counts_svg", None),
]

LAYERS = sorted({module for module, _, _ in TARGETS})


class Tracer:
    def __init__(self, track_alloc: bool):
        self.track_alloc = track_alloc
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.peak_alloc: dict[str, int] = defaultdict(int)  # layer -> bytes
        self._stack: list[list] = []  # [span index, entry bytes, peak bytes seen]
        self._run_peak = 0  # bytes, whole pipeline run

    def install(self) -> None:
        for module, attr, counter in TARGETS:
            mod = sys.modules[f"flagcrash.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(f"{module}.{attr}", getattr(cls, meth), counter))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(f"{module}.{attr}", original, counter)
            for name, other in list(sys.modules.items()):
                if name == "flagcrash" or name.startswith("flagcrash."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)
        if self.track_alloc:
            tracemalloc.start()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if counter is not None:
                self.counts.update(counter(result, args))
            return result

        return traced

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        entry = peak = 0
        if self.track_alloc:
            peak_so_far = tracemalloc.get_traced_memory()[1]
            self._run_peak = max(self._run_peak, peak_so_far)
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak_so_far)
            tracemalloc.reset_peak()
            entry = peak = tracemalloc.get_traced_memory()[0]
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append([len(self.spans) - 1, entry, peak])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        index, entry, peak = self._stack.pop()
        _, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        if self.track_alloc:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            layer = name.split(".")[0]
            self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - entry)
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer times (s), counts and ratios for one pipeline run.

        A function's time is the sum of its spans; a layer's time counts only
        spans with no enclosing span of the same layer, so nested calls are
        not counted twice.  `pipeline.self_s` is the run minus every
        outermost span: orchestration plus output hashing.
        """
        fn_s: Counter = Counter()
        layer_s: Counter = Counter()
        top_s = 0.0
        for name, start, end, parent in self.spans:
            fn_s[name] += end - start
            layer = name.split(".")[0]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0].split(".")[0] != layer:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                layer_s[layer] += end - start
            if parent < 0:
                top_s += end - start
        c = self.counts

        def per(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        graph_epochs = c["gnn.graph_epochs"]
        out = {
            "ph.filtration_s": fn_s["ph.build_filtration"],
            "ph.reduce_s": fn_s["ph.persistent_homology"],
            "ph.ms_per_graph": per(fn_s["ph.tda_features"], c["ph.graphs"], 1e3),
            "ph.triangles": c["ph.triangles"],
            "ph.finite_h0": c["ph.finite_h0"],
            "ph.finite_h1": c["ph.finite_h1"],
            "ph.pairs_per_simplex": per(
                c["ph.finite_h0"] + c["ph.finite_h1"], c["ph.simplices"]
            ),
            "gnn.prep_s": fn_s["gnn.attribute_graphs"],
            "gnn.train_s": fn_s["gnn.ocgin_train"] + fn_s["gnn.glocalkd_train"],
            "gnn.score_s": fn_s["gnn.ocgin_scores"] + fn_s["gnn.glocalkd_scores"],
            "autodiff.backward_s": fn_s["autodiff.Tensor.backward"],
            "autodiff.adam_s": fn_s["autodiff.adam_step"],
            "gnn.graph_epochs": graph_epochs,
            "gnn.epochs_run": c["gnn.epochs_run"],
            "gnn.ms_per_graph_epoch": per(
                fn_s["gnn.ocgin_train"] + fn_s["gnn.glocalkd_train"], graph_epochs, 1e3
            ),
            "gnn.gather_scatter_mb": c["gnn.gather_scatter_bytes"] / MB,
            "detectors.lof_s": fn_s["detectors.lof_scores"],
            "detectors.mahalanobis_s": fn_s["detectors.mahalanobis_scores"],
            "detectors.lof_calls": c["detectors.lof_calls"],
            "corrnet.corr_s": fn_s["corrnet.correlation_series"],
            "corrnet.ms_per_window": per(
                fn_s["corrnet.correlation_series"], c["corrnet.windows"], 1e3
            ),
            "corrnet.digraph_s": fn_s["corrnet.graph_series"],
            "corrnet.unpack_s": fn_s["corrnet.matrix_from_digraph"],
            "corrnet.windows": c["corrnet.windows"],
            "corrnet.edges": c["corrnet.edges"],
            "archive.write_s": fn_s["archive.write_graphs"],
            "archive.read_s": fn_s["archive.read_graphs"],
            "archive.reads": c["archive.reads"],
            "archive.mb_read": c["archive.bytes_read"] / MB,
            "features.pca_s": layer_s["features"],
            "tables.s": layer_s["tables"],
            "evaluation.s": layer_s["evaluation"],
            "charts.s": layer_s["charts"],
            "ingest.s": layer_s["ingest"],
            "pipeline.self_s": run_s - top_s,
        }
        return out

    def report(self, run_s: float) -> tuple[dict[str, float], dict[str, int]]:
        """End tracing; return the layer metrics and the counts that must
        repeat exactly between runs of one input."""
        out = self.metrics(run_s)
        if self.track_alloc:
            # largest tracemalloc peak of any one call per layer, and of the run
            run_peak = max(self._run_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            out.update({f"{layer}.peak_alloc_mb": self.peak_alloc[layer] / MB for layer in LAYERS})
            out["pipeline.peak_alloc_mb"] = run_peak / MB
        return out, dict(sorted(self.counts.items()))
