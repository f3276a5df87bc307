"""The seed's per-posting search strategies: the reference implementation.

:mod:`repro.invindex.strategies` runs every strategy block-wise, a whole
decoded posting run at a time.  This module keeps the original
per-posting form of the same five strategies — a ``set`` of seen tids,
a sorted :class:`Match` frontier, one random access and one
:func:`~repro.core.uda.sparse_dot_fsum` per candidate, a ``dict``
gather, and ``dict`` NRA bookkeeping with tombstones — so the
differential suites can hold the block kernels to it: answers, score
bits, tie order, :class:`QueryStats`, stop reasons, counted page reads
and trace records must all agree.

:func:`reference_strategies` swaps these classes into the production
registry (by their production names), so ``index.execute``,
:class:`~repro.exec.ServingExecutor` and anything else that resolves a
strategy name runs the reference unchanged.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro.core.results import Match, QueryResult, QueryStats
from repro.core.uda import sparse_dot_fsum
from repro.invindex import strategies
from repro.invindex.strategies import (
    EPSILON,
    _MASS_BOUND,
    SearchStrategy,
    _begin,
    _CursorSet,
    _stop,
)
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS


def first_seen(seen: set[int], tids: np.ndarray) -> list[int]:
    """The run's never-seen tids in run order; marks them seen."""
    novel = []
    for tid in tids.tolist():
        if tid in seen:
            continue
        seen.add(tid)
        novel.append(tid)
    return novel


def verify(index, q, stats: QueryStats, tid: int) -> float:
    """Exact ``Pr(q = tid)`` via one random access."""
    stats.random_accesses += 1
    stats.candidates_examined += 1
    METRICS.inc("verify.random_access")
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event("verify.random_access", tid=tid)
    items, probs = index.fetch_uda_arrays(tid)
    return sparse_dot_fsum(q.items, q.probs, items, probs)


class _Frontier:
    """Top-k frontier as a :class:`Match` list re-sorted after every run."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.found: list[Match] = []

    def add(self, tid: int, score: float) -> None:
        if score > 0.0:
            self.found.append(Match(tid=tid, score=score))

    def round_done(self) -> None:
        self.found.sort()

    def tau_k(self) -> float:
        if len(self.found) < self.k:
            return 0.0
        return self.found[self.k - 1].score

    def results(self) -> list[Match]:
        return self.found[: self.k]


class InvIndexSearch(SearchStrategy):
    name = "inv_index_search"

    def _gather(self, index, q, stats) -> dict[int, float]:
        contributions: dict[int, list[float]] = {}
        for item, q_prob in q.pairs():
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, probs = posting_list.read_all()
            stats.entries_scanned += len(tids)
            for tid, prob in zip(tids.tolist(), probs.tolist()):
                contributions.setdefault(tid, []).append(q_prob * prob)
        stats.candidates_examined += len(contributions)
        return {
            tid: math.fsum(products)
            for tid, products in sorted(contributions.items())
        }

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        scores = self._gather(index, q, stats)
        _stop(stats, self.name, "scan_complete")
        matches = [
            Match(tid=tid, score=score)
            for tid, score in scores.items()
            if score >= tau
        ]
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        scores = self._gather(index, q, stats)
        _stop(stats, self.name, "scan_complete")
        found = sorted(
            Match(tid=tid, score=score)
            for tid, score in scores.items()
            if score > 0.0
        )
        return QueryResult(found[:k], stats)


class HighestProbFirst(SearchStrategy):
    name = "highest_prob_first"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        matches: list[Match] = []
        seen: set[int] = set()
        while True:
            bound = cursors.bound()
            if bound < tau - EPSILON:
                _stop(stats, self.name, "lemma1", bound=bound, tau=tau)
                break
            j = cursors.most_promising()
            if j is None:
                _stop(stats, self.name, "exhausted")
                break
            tids, _ = cursors.pop_run(j)
            stats.entries_scanned += len(tids)
            for tid in first_seen(seen, tids):
                score = verify(index, q, stats, tid)
                if score >= tau:
                    matches.append(Match(tid=tid, score=score))
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        found = _Frontier(k)
        seen: set[int] = set()
        while True:
            if len(found.found) >= k or tau_floor > 0.0:
                tau_k = found.tau_k()
                tau_eff = tau_k if tau_k > tau_floor else tau_floor
                bound = cursors.bound()
                if bound < tau_eff - EPSILON:
                    _stop(stats, self.name, "lemma1", bound=bound, tau=tau_eff)
                    break
            j = cursors.most_promising()
            if j is None:
                _stop(stats, self.name, "exhausted")
                break
            tids, _ = cursors.pop_run(j)
            stats.entries_scanned += len(tids)
            for tid in first_seen(seen, tids):
                found.add(tid, verify(index, q, stats, tid))
            found.round_done()
        return QueryResult(found.results(), stats)


class RowPruning(SearchStrategy):
    name = "row_pruning"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        cutoff = tau / _MASS_BOUND - EPSILON
        matches: list[Match] = []
        seen: set[int] = set()
        for item, q_prob in q.pairs_by_probability():
            if q_prob < cutoff:
                _stop(
                    stats,
                    self.name,
                    "row_cutoff",
                    bound=q_prob * _MASS_BOUND,
                    tau=tau,
                )
                break
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, _ = posting_list.read_all()
            stats.entries_scanned += len(tids)
            for tid in first_seen(seen, tids):
                score = verify(index, q, stats, tid)
                if score >= tau:
                    matches.append(Match(tid=tid, score=score))
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        found = _Frontier(k)
        seen: set[int] = set()
        for item, q_prob in q.pairs_by_probability():
            tau_k = found.tau_k()
            tau_eff = tau_k if tau_k > tau_floor else tau_floor
            if (
                len(found.found) >= k or tau_floor > 0.0
            ) and q_prob * _MASS_BOUND < tau_eff - EPSILON:
                _stop(
                    stats,
                    self.name,
                    "row_cutoff",
                    bound=q_prob * _MASS_BOUND,
                    tau=tau_eff,
                )
                break
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, _ = posting_list.read_all()
            stats.entries_scanned += len(tids)
            for tid in first_seen(seen, tids):
                found.add(tid, verify(index, q, stats, tid))
            found.round_done()
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(found.results(), stats)


class ColumnPruning(SearchStrategy):
    name = "column_pruning"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        cutoff = tau / max(q.total_mass, EPSILON) - EPSILON
        matches: list[Match] = []
        seen: set[int] = set()
        for item, _ in q.pairs_by_probability():
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, _ = posting_list.read_prefix(cutoff)
            stats.entries_scanned += len(tids)
            for tid in first_seen(seen, tids):
                score = verify(index, q, stats, tid)
                if score >= tau:
                    matches.append(Match(tid=tid, score=score))
        _stop(stats, self.name, "scan_complete")
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        q_mass = max(q.total_mass, EPSILON)
        found = _Frontier(k)
        seen: set[int] = set()
        live = [not cursor.exhausted for cursor in cursors.cursors]
        while any(live):
            tau_k = found.tau_k()
            tau_eff = tau_k if tau_k > tau_floor else tau_floor
            cutoff = (
                tau_eff / q_mass - EPSILON
                if len(found.found) >= k or tau_floor > 0.0
                else -1.0
            )
            advanced = False
            for j, cursor in enumerate(cursors.cursors):
                if not live[j]:
                    continue
                if cursor.exhausted or cursor.head_prob() < cutoff:
                    live[j] = False
                    continue
                run_tids, run_probs = cursors.pop_run(j)
                keep = run_probs >= cutoff
                stats.entries_scanned += int(keep.sum())
                advanced = True
                for tid in first_seen(seen, run_tids[keep]):
                    found.add(tid, verify(index, q, stats, tid))
                found.round_done()
            if not advanced:
                break
        if any(not cursor.exhausted for cursor in cursors.cursors):
            _stop(stats, self.name, "column_cutoff")
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(found.results(), stats)


class NoRandomAccess(SearchStrategy):
    name = "no_random_access"

    def __init__(self, fallback: int = 64, resolve_every: int = 64) -> None:
        self.fallback = fallback
        self.resolve_every = resolve_every

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        num_lists = len(cursors)
        partial: dict[int, float] = {}
        seen_in: dict[int, int] = {}  # tid -> bitmask of consumed lists
        confirmed: set[int] = set()
        # Tombstones: tids proven unable to qualify are never re-admitted.
        discarded: set[int] = set()
        discovering = True
        since_resolve = self.resolve_every  # force an initial pass
        while True:
            if since_resolve >= self.resolve_every:
                since_resolve = 0
                heads = [cursor.head_prob() for cursor in cursors.cursors]
                unseen_bound = math.fsum(
                    q_prob * head
                    for q_prob, head in zip(cursors.q_probs, heads)
                )
                if discovering and unseen_bound < tau - EPSILON:
                    discovering = False
                resolved = []
                for tid, mask in seen_in.items():
                    if tid in confirmed:
                        continue
                    lack = math.fsum(
                        cursors.q_probs[j] * heads[j]
                        for j in range(num_lists)
                        if not mask >> j & 1
                    )
                    if partial[tid] + lack < tau - EPSILON:
                        resolved.append(tid)
                    elif partial[tid] >= tau + EPSILON:
                        confirmed.add(tid)
                for tid in resolved:
                    del seen_in[tid]
                    del partial[tid]
                    discarded.add(tid)
                unresolved = len(seen_in) - len(confirmed)
                METRICS.inc("nra.resolve")
                tracer = _trace.ACTIVE
                if tracer is not None:
                    tracer.event(
                        "nra.resolve",
                        discarded=len(resolved),
                        confirmed=len(confirmed),
                        unresolved=unresolved,
                    )
                if not discovering and unresolved <= self.fallback:
                    _stop(
                        stats, self.name, "nra_fallback", unresolved=unresolved
                    )
                    break
            j = cursors.most_promising()
            if j is None:
                _stop(stats, self.name, "exhausted")
                break
            run_tids, run_probs = cursors.pop_run(j)
            stats.entries_scanned += len(run_tids)
            since_resolve += len(run_tids)
            bit = 1 << j
            q_prob = cursors.q_probs[j]
            for tid, prob in zip(run_tids.tolist(), run_probs.tolist()):
                mask = seen_in.get(tid)
                if mask is None:
                    if not discovering or tid in discarded:
                        continue
                    seen_in[tid] = bit
                    partial[tid] = q_prob * prob
                elif not mask & bit:
                    seen_in[tid] = mask | bit
                    partial[tid] += q_prob * prob
        matches = []
        for tid in seen_in:
            score = verify(index, q, stats, tid)
            if score >= tau:
                matches.append(Match(tid=tid, score=score))
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        num_lists = len(cursors)
        partial: dict[int, float] = {}
        seen_in: dict[int, int] = {}
        since_check = self.resolve_every  # force an initial stop check
        while True:
            if since_check >= self.resolve_every:
                since_check = 0
                heads = [cursor.head_prob() for cursor in cursors.cursors]
                unseen_bound = math.fsum(
                    q_prob * head
                    for q_prob, head in zip(cursors.q_probs, heads)
                )
                if len(partial) >= k or tau_floor > 0.0:
                    tau_k = (
                        sorted(partial.values(), reverse=True)[k - 1]
                        if len(partial) >= k
                        else 0.0
                    )
                    tau_eff = tau_k if tau_k > tau_floor else tau_floor
                    if unseen_bound < tau_eff - EPSILON:
                        _stop(
                            stats,
                            self.name,
                            "lemma1",
                            bound=unseen_bound,
                            tau=tau_eff,
                        )
                        break
            j = cursors.most_promising()
            if j is None:
                _stop(stats, self.name, "exhausted")
                break
            run_tids, run_probs = cursors.pop_run(j)
            stats.entries_scanned += len(run_tids)
            since_check += len(run_tids)
            bit = 1 << j
            q_prob = cursors.q_probs[j]
            for tid, prob in zip(run_tids.tolist(), run_probs.tolist()):
                mask = seen_in.get(tid)
                if mask is None:
                    seen_in[tid] = bit
                    partial[tid] = q_prob * prob
                elif not mask & bit:
                    seen_in[tid] = mask | bit
                    partial[tid] += q_prob * prob
        if not partial:
            return QueryResult([], stats)
        tau_k = (
            sorted(partial.values(), reverse=True)[k - 1]
            if len(partial) >= k
            else 0.0
        )
        tau_eff = tau_k if tau_k > tau_floor else tau_floor
        heads = [cursor.head_prob() for cursor in cursors.cursors]
        found = []
        for tid, mask in seen_in.items():
            lack = math.fsum(
                cursors.q_probs[j] * heads[j]
                for j in range(num_lists)
                if not mask >> j & 1
            )
            if partial[tid] + lack < tau_eff - EPSILON:
                continue  # upper bound cannot reach the k-th best
            score = verify(index, q, stats, tid)
            if score > 0.0:
                found.append(Match(tid=tid, score=score))
        found.sort()
        return QueryResult(found[:k], stats)


REFERENCE = (
    InvIndexSearch(),
    HighestProbFirst(),
    RowPruning(),
    ColumnPruning(),
    NoRandomAccess(),
)


@contextmanager
def reference_strategies():
    """Run every strategy name through its per-posting reference."""
    registry = strategies.STRATEGIES
    saved = dict(registry)
    registry.update({strategy.name: strategy for strategy in REFERENCE})
    try:
        yield
    finally:
        registry.clear()
        registry.update(saved)
