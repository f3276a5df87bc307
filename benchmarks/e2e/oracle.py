"""The answer oracle: naive scans, and the rule a reply is compared by.

Read-only answers come from :meth:`UncertainRelation.execute`, the
exhaustive scan the differential suites use as ground truth.  With
writes in flight the relation a query saw is the base relation plus the
inserted tuples live at some write prefix; base tuples are never
deleted by the write stream, so an answer at a prefix is the base
answer merged with the naive scores of the live inserted tuples.
"""

from __future__ import annotations

import math

from repro.core.queries import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
)

#: Scores cross the wire as float64 reprs of values computed from
#: float32-quantized probabilities; the index and the naive scan may sum
#: in different orders, so scores are compared to float32 resolution.
SCORE_TOLERANCE = 1e-6


def naive_answer(relation, query) -> list[tuple[int, float]]:
    """``[(tid, score), ...]`` in presentation order, by exhaustive scan."""
    return [(match.tid, match.score) for match in relation.execute(query)]


def _naive_score(query, uda) -> float | None:
    """The score ``uda`` gets under ``query``, or None if it cannot match."""
    if isinstance(query, (SimilarityThresholdQuery, SimilarityTopKQuery)):
        distance = query.distance(uda)
        if (
            isinstance(query, SimilarityThresholdQuery)
            and distance > query.threshold
        ):
            return None
        return -distance
    probability = query.q.equality_probability(uda)
    if isinstance(query, EqualityThresholdQuery):
        return probability if probability >= query.threshold else None
    return probability if probability > 0.0 else None


def answer_with_live(query, base_answer, live: dict) -> list[tuple[int, float]]:
    """The naive answer over base relation + ``live`` inserted tuples."""
    if not live:
        return base_answer
    merged = list(base_answer)
    for tid, uda in live.items():
        score = _naive_score(query, uda)
        if score is not None:
            merged.append((tid, score))
    merged.sort(key=lambda pair: (-pair[1], pair[0]))
    if isinstance(query, (EqualityTopKQuery, SimilarityTopKQuery)):
        del merged[query.k :]
    return merged


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_TOLERANCE, abs_tol=SCORE_TOLERANCE)


def same_answer(got, expected, *, top_k: bool) -> bool:
    """The differential suites' comparison, made robust to the wire.

    Same length, scores pairwise equal to float32 resolution, and the
    same tids in the same order — except inside a run of tied scores,
    where only the set of tids must agree (presentation order within a
    tie is by tid, which a last-bit difference may reorder), and in a
    top-k answer's last tied run, where the cut may pick either tid.
    """
    if len(got) != len(expected):
        return False
    for (_, got_score), (_, want_score) in zip(got, expected):
        if not _close(got_score, want_score):
            return False
    if [tid for tid, _ in got] == [tid for tid, _ in expected]:
        return True
    start = 0
    count = len(expected)
    while start < count:
        end = start + 1
        while end < count and _close(expected[end][1], expected[start][1]):
            end += 1
        got_tids = {tid for tid, _ in got[start:end]}
        want_tids = {tid for tid, _ in expected[start:end]}
        if got_tids != want_tids and not (top_k and end == count):
            return False
        start = end
    return True


def reply_answer(payload: dict) -> list[tuple[int, float]]:
    return [(int(tid), float(score)) for tid, score in payload["matches"]]


def is_top_k(query) -> bool:
    return isinstance(query, (EqualityTopKQuery, SimilarityTopKQuery))


class PrefixOracle:
    """Accept a concurrent query iff it matches some write prefix.

    ``writes`` are the acknowledged-or-sent mutations in send order,
    each ``(wire_fields, send_time, ack_time_or_None)``.  A query sent
    at ``s`` and answered at ``r`` ran after every write acknowledged
    before ``s`` and before any write sent after ``r``; it must match
    the oracle at one of the prefixes in between.
    """

    def __init__(self, writes: list, inserted: dict) -> None:
        self._writes = writes
        self._inserted = inserted
        self._applied = 0
        self._live: dict = {}

    def _apply(self, live: dict, index: int) -> None:
        fields = self._writes[index][0]
        if fields["mutate"] == "insert":
            live[fields["tid"]] = self._inserted[fields["tid"]]
        elif fields["mutate"] == "delete":
            live.pop(fields["tid"], None)

    def live_at(self, prefix: int) -> dict:
        """Inserted tuples live after the first ``prefix`` writes.

        Prefixes must be asked for in non-decreasing order.
        """
        while self._applied < prefix:
            self._apply(self._live, self._applied)
            self._applied += 1
        return self._live

    def window(self, sent: float, received: float) -> tuple[int, int]:
        """The prefixes ``[low, high]`` a query in flight may have seen."""
        low = 0
        for _, _, acked in self._writes:
            if acked is None or acked >= sent:
                break
            low += 1
        high = low
        while high < len(self._writes) and self._writes[high][1] <= received:
            high += 1
        return low, high

    def matches(self, request, got, sent: float, received: float) -> bool:
        low, high = self.window(sent, received)
        live = self.live_at(low)
        top_k = is_top_k(request.query)
        if same_answer(
            got, answer_with_live(request.query, request.expected, live), top_k=top_k
        ):
            return True
        if high == low:
            return False
        trial = dict(live)
        for index in range(low, high):
            self._apply(trial, index)
            if same_answer(
                got,
                answer_with_live(request.query, request.expected, trial),
                top_k=top_k,
            ):
                return True
        return False
