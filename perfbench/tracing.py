"""Span tracing by wrapping public spdalign functions where they are called.

Each target is a (module, attribute) pair naming the binding the caller
looks up at call time: `spdalign.optimizer.alignment_objective` is the
name `rcg_maximize` resolves, `spdalign.graphs.pairwise_dist2` the one
`build_graphs` resolves. A Tracer swaps each binding for a wrapper that
records a span (name, parent, start, end, work count, errors) and puts
every original back when its `installed()` block exits, even on error.
Nothing inside `src/` is edited.
"""

import contextlib
import importlib
import time
from dataclasses import dataclass, field

from spdalign.errors import NumericalError


def _pairs_within(args, kwargs, result):
    """Unordered pairs pairwise_dist2 computes: N(N-1)/2 for N samples."""
    n = len(args[1])
    return n * (n - 1) // 2


def _pairs_across(args, kwargs, result):
    """Row x column pairs cross_dist2 computes."""
    return len(args[1]) * len(args[2])


def _graph_pairs(args, kwargs, result):
    return len(result.pairs)


# (module, attribute, span name, work counter or None)
TARGETS = (
    ("spdalign.cli", "load_dataset", "fileio.load_dataset", None),
    ("spdalign.cli", "load_transform", "fileio.load_transform", None),
    ("spdalign.cli", "save_transform", "fileio.save", None),
    ("spdalign.cli", "save_trace", "fileio.save", None),
    ("spdalign.cli", "default_beta", "metrics.default_beta", None),
    ("spdalign.cli", "build_graphs", "graphs.build_graphs", _graph_pairs),
    ("spdalign.cli", "rcg_maximize", "optimizer.rcg_maximize", None),
    ("spdalign.cli", "repeated_split_eval", "evaluate.repeated_split_eval", None),
    ("spdalign.graphs", "pairwise_dist2", "metrics.pairwise_dist2", _pairs_within),
    ("spdalign.metrics", "pairwise_dist2", "metrics.pairwise_dist2", _pairs_within),
    ("spdalign.optimizer", "alignment_objective", "objective.alignment_objective", None),
    ("spdalign.optimizer", "alignment_gradient", "objective.alignment_gradient", None),
    ("spdalign.optimizer", "horizontal_project", "optimizer.horizontal_project", None),
    ("spdalign.optimizer", "retract", "optimizer.retract", None),
    ("spdalign.objective", "label_similarity", "graphs.label_similarity", None),
    ("spdalign.objective", "build_grad_context", "objective.build_grad_context", None),
    ("spdalign.matfun", "dlog", "matfun.dlog", None),
    ("spdalign.evaluate", "knn_classify", "evaluate.knn_classify", None),
    ("spdalign.evaluate", "cross_dist2", "metrics.cross_dist2", _pairs_across),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    work: int = 0
    errors: int = 0

    @property
    def seconds(self):
        return self.end - self.start


@dataclass
class LayerStats:
    """Totals over every span of one name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: int = 0
    errors: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; spans opened inside it become its children."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        except NumericalError:
            self.spans[index].errors += 1
            raise
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, original, name, work):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if work is not None:
                    span.work = work(args, kwargs, result)
                return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, work in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self):
        """Per-name totals over every recorded span.

        Self time is a span's duration minus its children's durations, so the
        self times of one tree of spans add up to the duration of its root.
        """
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        stats = {}
        for span, children in zip(self.spans, child_seconds):
            entry = stats.setdefault(span.name, LayerStats())
            entry.calls += 1
            entry.seconds += span.seconds
            entry.self_seconds += span.seconds - children
            entry.work += span.work
            entry.errors += span.errors
        return stats
