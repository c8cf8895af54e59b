"""Span tracing around the program's public layer boundaries.

The tracer wraps module attributes from outside the program, so
``src/`` carries no instrumentation: each voter dispatch function and
``relsim.extract_pair_features`` becomes a span, and a provider wrapper
aggregates count and snippet calls per (enclosing span, operation,
query shape) instead of recording one span per call, because the
bracketing paraphrase voter alone makes tens of thousands of calls per
item.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from npstruct import bracketer, coordination, ppattach, relsim
from npstruct.corpus import CountProvider, CountQuery

# Voter dispatchers wrapped in a traced run: (module, attribute, span
# name prefix).  Their first argument names the voter.
VOTER_BOUNDARIES = (
    (bracketer, "run_voter", "bracketer.voter"),
    (coordination, "run_coord_voter", "coordination.voter"),
    (ppattach, "run_pp_voter", "ppattach.voter"),
)
PAIR_FEATURES = "relsim.extract_pair_features"


class Span:
    __slots__ = ("id", "parent", "item", "name", "start", "end")

    def __init__(self, sid: int, parent: int | None, item: int, name: str, start: int):
        self.id, self.parent, self.item, self.name = sid, parent, item, name
        self.start, self.end = start, start

    @property
    def ns(self) -> int:
        return self.end - self.start


def query_shape(query: CountQuery) -> str:
    if query.gap is not None:
        return "gapped"
    return "unigram" if len(query.phrase) == 1 else "phrase"


class Tracer:
    """In-memory spans plus per-span aggregated provider calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []
        # (span id, operation, shape) -> [calls, ns, empty results]
        self.calls: dict[tuple[int, str, str], list[int]] = {}
        self.distinct: set[int] = set()

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.item, name, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()

    def record(self, op: str, shape: str, ns: int, empty: bool) -> None:
        key = (self._stack[-1] if self._stack else -1, op, shape)
        cell = self.calls.get(key)
        if cell is None:
            cell = self.calls[key] = [0, 0, 0]
        cell[0] += 1
        cell[1] += ns
        cell[2] += empty

    def self_ns(self) -> list[int]:
        """Each span's duration minus what its child spans and provider calls cover."""
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ns
        for (sid, _op, _shape), (_calls, ns, _empty) in self.calls.items():
            if sid >= 0:
                out[sid] -= ns
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, provider aggregates attached to their span."""
        by_span: dict[int, dict[str, list[int]]] = {}
        for (sid, op, shape), cell in self.calls.items():
            by_span.setdefault(sid, {})[f"{op}.{shape}"] = cell
        selfs = self.self_ns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id, "parent": s.parent, "item": s.item, "name": s.name,
                    "start_ns": s.start, "end_ns": s.end, "self_ns": selfs[s.id],
                    "calls": by_span.get(s.id, {}),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class TracingProvider:
    """CountProvider wrapper feeding a Tracer."""

    def __init__(self, inner: CountProvider, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def count(self, query: CountQuery) -> int:
        t0 = perf_counter_ns()
        value = self.inner.count(query)
        self.tracer.record("count", query_shape(query), perf_counter_ns() - t0, value == 0)
        self.tracer.distinct.add(hash(query))
        return value

    def total(self) -> int:
        return self.inner.total()

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        t0 = perf_counter_ns()
        out = self.inner.snippets(query, limit)
        self.tracer.record("snippets", query_shape(query), perf_counter_ns() - t0, not out)
        return out


def _voter_wrapper(tracer: Tracer, fn, prefix: str):
    @functools.wraps(fn)
    def traced(name, *args, **kwargs):
        with tracer.span(f"{prefix}.{name}"):
            return fn(name, *args, **kwargs)

    return traced


def _span_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Wrap the voter dispatchers and the relsim feature scan for the duration."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in VOTER_BOUNDARIES]
    saved.append((relsim, "extract_pair_features", relsim.extract_pair_features))
    try:
        for mod, attr, prefix in VOTER_BOUNDARIES:
            setattr(mod, attr, _voter_wrapper(tracer, getattr(mod, attr), prefix))
        relsim.extract_pair_features = _span_wrapper(tracer, relsim.extract_pair_features, PAIR_FEATURES)
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
