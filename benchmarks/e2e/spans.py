"""The span recorder of the traced run, and the wrappers that feed it.

Spans are recorded from the benchmark's own files: timing wrappers are
set on the public methods of each layer for the length of a traced
run and taken off again; nothing under ``src/`` changes.  A span has a
name, start, end, the span that caused it and the request it served;
spans live in memory and are written out when the run ends.

A layer's **self time** is its calls' duration minus what the wrapped
calls they make cover, so the layers of one request sum to its root
spans.  Hot wrappers — methods called up to thousands of times per
request — take part in the same accounting but accumulate
``(calls, ns)`` per request in place of one span per call.  Per-tuple
functions (``UncertainAttribute.score``, ``Page.read_u16``, ...) are
never wrapped: their time stays in their caller's self time.
"""

from __future__ import annotations

import threading
import time

_now = time.perf_counter_ns

#: Accumulator slots of one wrapper.
CALLS, TOTAL_NS, SELF_NS, ROOT_NS = range(4)


class SpanRecorder:
    """In-memory spans and per-request accumulators of every wrapper."""

    def __init__(self) -> None:
        #: ``[name, layer, start_ns, end_ns, parent_index, request]``.
        self.spans: list[list] = []
        #: One ``[calls, total ns, self ns, root ns]`` per wrapper, with
        #: its ``(name, layer, hot)``.
        self.accumulators: list[tuple[tuple, list]] = []
        #: request -> {(name, layer, hot): [calls, total, self, root]}.
        self.per_request: dict[int, dict] = {}
        self._request = -1
        self._marks: list[list] = []
        self.local = threading.local()

    def accumulator(self, name: str, layer: str, hot: bool) -> list:
        cell = [0, 0, 0, 0]
        self.accumulators.append(((name, layer, hot), cell))
        self._marks.append([0, 0, 0, 0])
        return cell

    @property
    def request(self) -> int:
        return self._request

    def begin_request(self, request: int) -> None:
        """Close the previous request's accounts; called between requests."""
        self.flush()
        self._request = request

    def flush(self) -> None:
        """Book what every wrapper gathered since the last call."""
        booked = self.per_request.setdefault(self._request, {})
        for (key, cell), mark in zip(self.accumulators, self._marks):
            if cell[CALLS] != mark[CALLS]:
                delta = [now - then for now, then in zip(cell, mark)]
                previous = booked.get(key)
                if previous is not None:
                    delta = [a + b for a, b in zip(previous, delta)]
                booked[key] = delta
                mark[:] = cell

    # -- reading (after flush) ----------------------------------------------

    def total(self, slot: int, *, layer: str | None = None, name: str | None = None) -> int:
        """Sum of one slot over every served request, filtered."""
        total = 0
        for request, booked in self.per_request.items():
            if request < 0:
                continue
            for (span_name, span_layer, _), cell in booked.items():
                if layer is not None and span_layer != layer:
                    continue
                if name is not None and span_name != name:
                    continue
                total += cell[slot]
        return total

    def layers(self) -> list[str]:
        return sorted({key[1] for key, _ in self.accumulators})

    def to_json(self) -> dict:
        return {
            "span_fields": ["name", "layer", "start_ns", "end_ns", "parent", "request"],
            "spans": self.spans,
            "hot_fields": ["request", "name", "calls", "total_ns", "self_ns"],
            "hot": [
                [request, key[0], cell[CALLS], cell[TOTAL_NS], cell[SELF_NS]]
                for request, booked in sorted(self.per_request.items())
                for key, cell in booked.items()
                if key[2]
            ],
        }


def _wrap_call(recorder: SpanRecorder, fn, name: str, layer: str, hot: bool):
    cell = recorder.accumulator(name, layer, hot)
    local = recorder.local
    spans = recorder.spans

    def wrapper(*args, **kwargs):
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        # [ns covered by wrapped callees, this span's index or None]
        frame = [0, None]
        if not hot:
            parent = None
            for outer in reversed(stack):
                if outer[1] is not None:
                    parent = outer[1]
                    break
            frame[1] = len(spans)
            record = [name, layer, 0, 0, parent, recorder.request]
            spans.append(record)
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            duration = end - start
            stack.pop()
            cell[CALLS] += 1
            cell[TOTAL_NS] += duration
            cell[SELF_NS] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            else:
                cell[ROOT_NS] += duration
            if not hot:
                record[2] = start
                record[3] = end

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(recorder: SpanRecorder, fn, name: str, layer: str):
    """Time each resumption of a generator method (always hot)."""
    cell = recorder.accumulator(name, layer, True)
    local = recorder.local

    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [0, None]
            stack.append(frame)
            start = _now()
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                duration = _now() - start
                stack.pop()
                cell[CALLS] += 1
                cell[TOTAL_NS] += duration
                cell[SELF_NS] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    cell[ROOT_NS] += duration
            yield value

    wrapper.__wrapped__ = fn
    return wrapper


def wrap_targets():
    """``(owner, attribute, span name, layer, hot, generator)`` per wrapper."""
    from repro.btree.tree import BPlusTree
    from repro.core import kernels
    from repro.core.queries import SimilarityThresholdQuery, SimilarityTopKQuery
    from repro.exec.serving import GenerationalTupleCache, ServingExecutor
    from repro.invindex import index as invindex_module
    from repro.invindex.index import ProbabilisticInvertedIndex
    from repro.invindex.postings import PostingCursor
    from repro.pdrtree.tree import PDRTree
    from repro.sketch.index import SketchIndex
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager
    from repro.storage.heapfile import HeapFile
    from repro.wal.log import WriteAheadLog

    call, hot, gen = (False, False), (True, False), (True, True)
    table = [
        (ServingExecutor, "execute", "exec.execute", "exec", call),
        (ServingExecutor, "execute_batch", "exec.execute_batch", "exec", call),
        (ServingExecutor, "apply_mutation", "exec.apply_mutation", "exec", call),
        (GenerationalTupleCache, "get", "exec.tuple_cache.get", "exec", hot),
        (GenerationalTupleCache, "clear", "exec.tuple_cache.clear", "exec", call),
        (ProbabilisticInvertedIndex, "execute", "invindex.execute", "invindex", call),
        (ProbabilisticInvertedIndex, "insert", "invindex.insert", "invindex", call),
        (ProbabilisticInvertedIndex, "delete", "invindex.delete", "invindex", call),
        (ProbabilisticInvertedIndex, "compact", "invindex.compact", "invindex", call),
        (PDRTree, "execute", "pdrtree.execute", "pdrtree", call),
        (SketchIndex, "bounds", "sketch.bounds", "sketch", call),
        (kernels, "exact_scores", "core.kernels", "core", hot),
        (kernels, "top_k_matches", "core.kernels", "core", hot),
        (kernels.SeenFilter, "admit", "core.kernels", "core", hot),
        (SimilarityThresholdQuery, "distance", "core.divergence", "core", hot),
        (SimilarityThresholdQuery, "distance_arrays", "core.divergence", "core", hot),
        (SimilarityTopKQuery, "distance", "core.divergence", "core", hot),
        (SimilarityTopKQuery, "distance_arrays", "core.divergence", "core", hot),
        (BPlusTree, "search", "btree.scan", "btree", hot),
        (BPlusTree, "items_from", "btree.scan", "btree", gen),
        (BPlusTree, "iter_leaf_pages", "btree.scan", "btree", gen),
        (PostingCursor, "pop_run", "btree.scan", "btree", hot),
        (BPlusTree, "insert", "btree.insert", "btree", hot),
        (BufferPool, "fetch_page", "storage.fetch", "storage", hot),
        (BufferPool, "fetch_many", "storage.fetch", "storage", hot),
        (DiskManager, "read_page", "storage.read_page", "storage", hot),
        (DiskManager, "write_page", "storage.write_page", "storage", hot),
        (HeapFile, "get_view", "storage.heap", "storage", hot),
        (HeapFile, "scan", "storage.heap", "storage", gen),
        (HeapFile, "append", "storage.heap", "storage", hot),
        # Heap-record decode is storage's work; the index module holds
        # the name it calls it by.
        (invindex_module, "decode_heap_record", "storage.decode", "storage", hot),
        (WriteAheadLog, "append_insert", "wal.append", "wal", call),
        (WriteAheadLog, "append_delete", "wal.append", "wal", call),
    ]
    return [
        (owner, attribute, name, layer, flags[0], flags[1])
        for owner, attribute, name, layer, flags in table
    ]


class Wrapped:
    """Context manager: wrappers on for the block, originals back after."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._originals: list[tuple] = []

    def __enter__(self) -> SpanRecorder:
        for owner, attribute, name, layer, hot, generator in wrap_targets():
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            if generator:
                replacement = _wrap_generator(self.recorder, original, name, layer)
            else:
                replacement = _wrap_call(self.recorder, original, name, layer, hot)
            setattr(owner, attribute, replacement)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        self.recorder.flush()
