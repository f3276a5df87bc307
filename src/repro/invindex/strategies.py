"""Search strategies for the probabilistic inverted index.

Section 3.1 of the paper describes one brute-force lookup and "three
heuristics by which the search can be concluded early", which "search the
tuples in decreasing probability order, stopping when no more tuples are
likely to satisfy the threshold":

* :class:`InvIndexSearch` — read every query item's list fully and score
  candidates from the accumulated contributions;
* :class:`HighestProbFirst` — synchronized descending-probability cursors
  over the query lists, always advancing the most promising one, stopping
  by Lemma 1;
* :class:`RowPruning` — only read lists of items whose *query*
  probability can reach the threshold;
* :class:`ColumnPruning` — read every query list, but only the prefix
  whose *stored* probabilities can reach the threshold;
* :class:`NoRandomAccess` — the rank-join variant (after Fagin's NRA):
  per-tuple lower/upper "lack" bookkeeping, candidates discarded as their
  upper bound falls below the threshold, random accesses deferred until
  the candidate set is small.

Every strategy answers both PETQ (``threshold``) and PEQ-top-k
(``top_k``, via a dynamically raised threshold, as in Section 2).

Strategies consume posting lists at *leaf granularity* (a page is read
whole, so its postings are processed as one batch); the stopping rules
hold at any batch size, with an overshoot of at most one leaf per list.
Strategies accept both :class:`UncertainAttribute` queries and the
mass-unconstrained :class:`~repro.core.uda.QueryVector` weights that
windowed ordered-domain queries expand into.

Exactness
---------
All strategies return *exactly* the naive executor's answer set and
scores.  Scores are always computed with the canonical
:meth:`~repro.core.uda.UncertainAttribute.equality_probability`
(an order-independent, correctly rounded sum).  Pruning bounds are
floating-point estimates, so every cut-off carries the safety margin
:data:`EPSILON` (and a query/tuple mass allowance where the paper's
argument relies on masses being at most one): the bounds may admit a few
extra candidates, never drop a qualifying one.

Kernels
-------
The per-posting bookkeeping (score accumulation, seen-set dedup, NRA
lack bounds) and candidate verification run block-wise over whole
decoded leaf runs through :mod:`repro.core.kernels`.  The seed's
per-posting loops live on as the reference in
``tests/invindex/reference.py``; the differential suite
(``tests/invindex/test_kernel_differential.py``) holds both to
bit-identical answers, stats, stop reasons and counted page reads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core import kernels
from repro.core.exceptions import QueryError
from repro.core.results import Match, QueryResult, QueryStats
from repro.core.uda import MASS_TOLERANCE, UncertainAttribute
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.invindex.postings import PostingCursor
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS

#: Safety margin absorbing float error in pruning bounds (never in scores).
EPSILON = 1e-10

#: Allowance for total tuple mass, which may exceed 1 by MASS_TOLERANCE.
_MASS_BOUND = 1.0 + MASS_TOLERANCE


def _begin(
    strategy: str,
    mode: str,
    *,
    tau: float | None = None,
    k: int | None = None,
    tau_floor: float = 0.0,
) -> None:
    """Trace the start of one strategy execution (trace-only, no counter)."""
    tracer = _trace.ACTIVE
    if tracer is not None:
        fields: dict[str, float | int] = {}
        if tau is not None:
            fields["tau"] = tau
        if k is not None:
            fields["k"] = k
        if tau_floor > 0.0:
            fields["tau_floor"] = tau_floor
        tracer.event("strategy.begin", strategy=strategy, mode=mode, **fields)


def _stop(stats: QueryStats, strategy: str, reason: str, **fields) -> None:
    """Record why a strategy stopped consuming postings.

    The reason lands in three places: ``stats.stop_reason`` (threaded to
    :class:`~repro.bench.harness.Measurement`), the always-on
    ``strategy.stop.<reason>`` counter, and — when tracing — a
    ``strategy.stop`` record carrying the decision's bound/threshold, so
    the invariant tests can check Lemma 1 *at the point of use*.
    """
    stats.stop_reason = reason
    METRICS.inc("strategy.stop." + reason)
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event("strategy.stop", strategy=strategy, reason=reason, **fields)


def _matches(tids: np.ndarray, scores: np.ndarray, keep: np.ndarray) -> list[Match]:
    """:class:`Match` objects for the rows of a verified block under ``keep``."""
    return [
        Match(tid=tid, score=score)
        for tid, score in zip(tids[keep].tolist(), scores[keep].tolist())
    ]


class _TopKFrontier:
    """The dynamic top-k frontier: found matches plus the k-th best score.

    Verified blocks are kept as plain ``tids`` / ``scores`` arrays.  The
    k-th largest is read with ``np.partition`` — the same float a sorted
    :class:`Match` list holds at ``[k - 1]`` (selection, no arithmetic)
    — and only the k result matches are materialized, via
    :func:`kernels.top_k_matches`, which applies the canonical
    ``(score desc, tid asc)`` ordering.
    """

    __slots__ = ("_k", "_tids", "_scores")

    def __init__(self, k: int) -> None:
        self._k = k
        self._tids = np.empty(0, dtype=np.int64)
        self._scores = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._tids)

    def add(self, tids: np.ndarray, scores: np.ndarray) -> None:
        """Admit a verified block's strictly positive candidates."""
        keep = scores > 0.0
        self._tids = np.concatenate([self._tids, tids[keep]])
        self._scores = np.concatenate([self._scores, scores[keep]])

    def tau_k(self) -> float:
        """The k-th best exact score so far (0.0 until k are found)."""
        if len(self) < self._k:
            return 0.0
        return kernels.kth_largest(self._scores, self._k)

    def results(self) -> list[Match]:
        pick = kernels.top_k_matches(self._tids, self._scores, self._k)
        return _matches(self._tids, self._scores, pick)


class _Verifier:
    """Random-access verification: exact scores for first-seen candidates.

    Every caller passes tids it has not verified before (first-seen
    filters, NRA survivors), so nothing is memoized per query; decoded
    tuples are memoized by the index's active
    :meth:`~ProbabilisticInvertedIndex.shared_scan` scope, if any.
    """

    def __init__(
        self,
        index: ProbabilisticInvertedIndex,
        q: UncertainAttribute,
        stats: QueryStats,
    ) -> None:
        self._index = index
        self._q = q
        self._stats = stats

    def score_many(self, tids: np.ndarray) -> np.ndarray:
        """Exact ``Pr(q = tid)`` for a run of distinct candidates.

        Each tid counts one random access.  The run is fetched and
        scored as one block, accessing the tuple list in run order:
        untraced, nothing runs per tid; traced, the only per-tid work is
        the ``verify.random_access`` record, emitted before that tid's
        page access.
        """
        count = len(tids)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        self._stats.random_accesses += count
        self._stats.candidates_examined += count
        METRICS.inc("verify.random_access", count)
        tracer = _trace.ACTIVE
        announce = None
        if tracer is not None:
            def announce(tid):
                tracer.event("verify.random_access", tid=tid)
        block = self._index.fetch_uda_block(tids, announce)
        return self._q.equality_with_block(*block)


class _CursorSet:
    """Descending cursors over the query's posting lists.

    Wraps one :class:`PostingCursor` per query item that has a posting
    list, tracking the "most promising" list — the one maximizing
    ``q.p_j * p'_j`` — and the Lemma 1 bound ``sum_j q.p_j * p'_j``.
    """

    def __init__(
        self, index: ProbabilisticInvertedIndex, q: UncertainAttribute
    ) -> None:
        self.items: list[int] = []
        self.q_probs: list[float] = []
        self.cursors: list[PostingCursor] = []
        for item, q_prob in q.pairs_by_probability():
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            self.items.append(item)
            self.q_probs.append(q_prob)
            self.cursors.append(posting_list.cursor())

    def __len__(self) -> int:
        return len(self.cursors)

    def bound(self) -> float:
        """Lemma 1 upper bound on any tuple below every cursor."""
        return math.fsum(
            q_prob * cursor.head_prob()
            for q_prob, cursor in zip(self.q_probs, self.cursors)
        )

    def pop_run(self, j: int):
        """Consume cursor ``j``'s next run, tracing the advance.

        The traced ``head_prob`` is the head *before* the pop — the
        probability level the stopping rules reasoned about when they
        chose to keep scanning this list.
        """
        cursor = self.cursors[j]
        tracer = _trace.ACTIVE
        head = cursor.head_prob() if tracer is not None else 0.0
        tids, probs = cursor.pop_run()
        METRICS.inc("cursor.advance")
        if tracer is not None:
            tracer.event(
                "cursor.advance",
                item=self.items[j],
                count=len(tids),
                head_prob=head,
            )
        return tids, probs

    def most_promising(self) -> int | None:
        """Index of the live cursor maximizing ``q.p_j * p'_j``."""
        best = None
        best_value = 0.0
        for j, (q_prob, cursor) in enumerate(zip(self.q_probs, self.cursors)):
            if cursor.exhausted:
                continue
            value = q_prob * cursor.head_prob()
            if best is None or value > best_value:
                best = j
                best_value = value
        return best


class SearchStrategy(ABC):
    """Interface every inverted-index search strategy implements."""

    #: Registry name; set by subclasses.
    name: str

    @abstractmethod
    def threshold(
        self,
        index: ProbabilisticInvertedIndex,
        q: UncertainAttribute,
        tau: float,
    ) -> QueryResult:
        """Answer PETQ(q, tau)."""

    @abstractmethod
    def top_k(
        self,
        index: ProbabilisticInvertedIndex,
        q: UncertainAttribute,
        k: int,
        tau_floor: float = 0.0,
    ) -> QueryResult:
        """Answer PEQ-top-k(q, k).

        ``tau_floor`` is a rank-join extension (see
        :mod:`repro.exec.join`): an externally known lower bound on the
        caller's *global* k-th best score.  It licenses two extra
        optimizations, both exact with respect to the caller's merge:
        the dynamic stopping threshold becomes
        ``max(local tau_k, tau_floor)`` (so Lemma 1 can fire before —
        and earlier than — k local results exist), and the strategy may
        omit result matches whose score falls below ``tau_floor``
        (they cannot enter the caller's global top-k).  At the default
        ``0.0`` every code path is bit-identical to the classic top-k.
        """


# ---------------------------------------------------------------------------
# Brute force: inv-index-search
# ---------------------------------------------------------------------------

class InvIndexSearch(SearchStrategy):
    """Brute-force lookup: read every query list fully.

    Because *all* lists of the query's support are read, the gathered
    contributions of a candidate cover every common item of ``q`` and the
    tuple — the accumulated score *is* the exact equality probability, so
    no random access is needed.  "In many cases when these lists are not
    too big and the query involves fewer [items], this could be as good
    as any other method.  However, ... it reads the entire list for every
    query."
    """

    name = "inv_index_search"

    def _gather(
        self, index: ProbabilisticInvertedIndex, q: UncertainAttribute, stats: QueryStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact scores for every tuple sharing an item with ``q``.

        Returns ``(tids, scores)`` with tids ascending.  Whole decoded
        runs are accumulated at once (grouped ``fsum``, see
        :func:`repro.core.kernels.exact_scores`): each tid's score sums
        its own product multiset, hence is bit-identical to the naive
        executor's.
        """
        tid_runs: list[np.ndarray] = []
        weighted_runs: list[np.ndarray] = []
        for item, q_prob in q.pairs():
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, probs = posting_list.read_all()
            stats.entries_scanned += len(tids)
            tid_runs.append(tids)
            weighted_runs.append(q_prob * probs)
        tids, scores = kernels.exact_scores(tid_runs, weighted_runs)
        stats.candidates_examined += len(tids)
        return tids, scores

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        tids, scores = self._gather(index, q, stats)
        _stop(stats, self.name, "scan_complete")
        return QueryResult(_matches(tids, scores, scores >= tau), stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        # tau_floor cannot save work here: the scan is exhaustive by
        # definition, and its local top-k already satisfies the caller.
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        tids, scores = self._gather(index, q, stats)
        _stop(stats, self.name, "scan_complete")
        positive = np.nonzero(scores > 0.0)[0]
        pick = positive[
            kernels.top_k_matches(tids[positive], scores[positive], k)
        ]
        return QueryResult(_matches(tids, scores, pick), stats)


# ---------------------------------------------------------------------------
# Highest-prob-first
# ---------------------------------------------------------------------------

class HighestProbFirst(SearchStrategy):
    """Synchronized descending scan, most promising list first.

    At each step the cursor whose next pair maximizes ``q.p_j * p'_j`` is
    advanced; each first-seen tuple is verified by random access.  The
    search stops when the Lemma 1 bound ``sum_j q.p_j * p'_j`` drops
    below the (possibly dynamic) threshold: no unseen tuple can qualify.
    """

    name = "highest_prob_first"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        verifier = _Verifier(index, q, stats)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        matches: list[Match] = []
        novel = kernels.SeenFilter()
        while True:
            bound = cursors.bound()
            if bound < tau - EPSILON:
                _stop(stats, self.name, "lemma1", bound=bound, tau=tau)
                break
            j = cursors.most_promising()
            if j is None:
                _stop(stats, self.name, "exhausted")
                break
            # Consume the most promising list at leaf granularity (the
            # page is read whole anyway); the Lemma 1 stopping argument
            # is insensitive to batch size.
            tids, _ = cursors.pop_run(j)
            stats.entries_scanned += len(tids)
            novel_tids = novel.admit(tids)
            scores = verifier.score_many(novel_tids)
            matches += _matches(novel_tids, scores, scores >= tau)
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        verifier = _Verifier(index, q, stats)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        found = _TopKFrontier(k)
        novel = kernels.SeenFilter()
        while True:
            # Dynamic threshold: the k-th best exact score so far,
            # elevated to tau_floor when the rank-join caller supplied
            # one (then the stop may fire before k local results exist —
            # unseen tuples below the floor cannot enter the caller's
            # global top-k).
            if len(found) >= k or tau_floor > 0.0:
                tau_k = found.tau_k() if len(found) >= k else 0.0
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
            novel_tids = novel.admit(tids)
            found.add(novel_tids, verifier.score_many(novel_tids))
        return QueryResult(found.results(), stats)


# ---------------------------------------------------------------------------
# Row pruning
# ---------------------------------------------------------------------------

class RowPruning(SearchStrategy):
    """Only read lists whose *query* probability can reach the threshold.

    A tuple whose every common item has query probability below
    ``tau / mass`` satisfies ``Pr(q = u) <= max_i q.p_i * sum_i u.p_i
    < tau``, so lists with smaller query probability cannot introduce new
    qualifying tuples and are skipped entirely.
    """

    name = "row_pruning"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        verifier = _Verifier(index, q, stats)
        cutoff = tau / _MASS_BOUND - EPSILON
        matches: list[Match] = []
        novel = kernels.SeenFilter()
        for item, q_prob in q.pairs_by_probability():
            if q_prob < cutoff:
                # Pairs are in descending q_prob order; no later list can
                # introduce a tuple scoring q_prob * mass >= tau.
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
            novel_tids = novel.admit(tids)
            scores = verifier.score_many(novel_tids)
            matches += _matches(novel_tids, scores, scores >= tau)
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        """Examine candidate lists eagerly, raising the threshold as we go."""
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        verifier = _Verifier(index, q, stats)
        found = _TopKFrontier(k)
        novel = kernels.SeenFilter()
        for item, q_prob in q.pairs_by_probability():
            tau_k = found.tau_k()
            tau_eff = tau_k if tau_k > tau_floor else tau_floor
            if (
                len(found) >= k or tau_floor > 0.0
            ) and q_prob * _MASS_BOUND < tau_eff - EPSILON:
                # No unseen tuple in this or later lists can qualify.
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
            novel_tids = novel.admit(tids)
            found.add(novel_tids, verifier.score_many(novel_tids))
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(found.results(), stats)


# ---------------------------------------------------------------------------
# Column pruning
# ---------------------------------------------------------------------------

class ColumnPruning(SearchStrategy):
    """Read every query list, but only down to the threshold probability.

    A tuple whose every common item has *stored* probability below
    ``tau / q_mass`` satisfies ``Pr(q = u) <= (max common u.p_i) *
    sum_j q.p_j < tau``; such tuples appear only in the pruned tails.
    """

    name = "column_pruning"

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        verifier = _Verifier(index, q, stats)
        cutoff = tau / max(q.total_mass, EPSILON) - EPSILON
        matches: list[Match] = []
        novel = kernels.SeenFilter()
        for item, _ in q.pairs_by_probability():
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, _ = posting_list.read_prefix(cutoff)
            stats.entries_scanned += len(tids)
            novel_tids = novel.admit(tids)
            scores = verifier.score_many(novel_tids)
            matches += _matches(novel_tids, scores, scores >= tau)
        # Every list was visited (to its prefix cutoff); there is no
        # early-stop decision to attribute.
        _stop(stats, self.name, "scan_complete")
        return QueryResult(matches, stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        """Like highest-prob-first, but each list is dropped independently
        once its head probability falls below the dynamic per-list cutoff
        ("more conducive to top-k queries")."""
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        verifier = _Verifier(index, q, stats)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        q_mass = max(q.total_mass, EPSILON)
        found = _TopKFrontier(k)
        novel = kernels.SeenFilter()
        live = [not cursor.exhausted for cursor in cursors.cursors]
        while any(live):
            tau_k = found.tau_k()
            tau_eff = tau_k if tau_k > tau_floor else tau_floor
            cutoff = (
                tau_eff / q_mass - EPSILON
                if len(found) >= k or tau_floor > 0.0
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
                # Entries below the cutoff cannot introduce new top-k
                # tuples via this list (their maximal common probability
                # lies above the cutoff in some other list, where they
                # are seen); skip verifying them, as the per-entry
                # algorithm would have.
                keep = run_probs >= cutoff
                stats.entries_scanned += int(keep.sum())
                advanced = True
                novel_tids = novel.admit(run_tids[keep])
                found.add(novel_tids, verifier.score_many(novel_tids))
            if not advanced:
                break
        if any(not cursor.exhausted for cursor in cursors.cursors):
            _stop(stats, self.name, "column_cutoff")
        else:
            _stop(stats, self.name, "exhausted")
        return QueryResult(found.results(), stats)


# ---------------------------------------------------------------------------
# No-random-access (rank-join) variant
# ---------------------------------------------------------------------------

class NoRandomAccess(SearchStrategy):
    """Rank-join search with "lack" bookkeeping and deferred verification.

    "For each tuple so far encountered ... we maintain its lack parameter
    — the amount of probability value required for the tuple, and which
    lists it could come from.  As soon as the probability values of
    required lists drop below a certain boundary such that a tuple can
    never qualify, we discard the tuple. ...  Finally, once the size of
    this candidate set falls below some number ... we perform random
    accesses for these tuples."

    ``fallback`` is that "some number": when at most this many candidates
    remain unresolved, the strategy switches to random accesses.  Result
    scores are always verified by random access so they match the naive
    executor exactly.  Bound bookkeeping over the whole candidate set is
    amortized: it runs every ``resolve_every`` consumed postings rather
    than after each one.
    """

    name = "no_random_access"

    def __init__(self, fallback: int = 64, resolve_every: int = 64) -> None:
        if fallback < 1:
            raise QueryError(f"fallback must be >= 1, got {fallback}")
        if resolve_every < 1:
            raise QueryError(
                f"resolve_every must be >= 1, got {resolve_every}"
            )
        self.fallback = fallback
        self.resolve_every = resolve_every

    def threshold(self, index, q, tau):
        stats = QueryStats()
        _begin(self.name, "threshold", tau=tau)
        verifier = _Verifier(index, q, stats)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        pool = kernels.CandidatePool(len(cursors))
        discovering = True
        since_resolve = self.resolve_every  # force an initial pass
        while True:
            if since_resolve >= self.resolve_every:
                since_resolve = 0
                heads = [cursor.head_prob() for cursor in cursors.cursors]
                terms = [
                    q_prob * head
                    for q_prob, head in zip(cursors.q_probs, heads)
                ]
                unseen_bound = math.fsum(terms)
                if discovering and unseen_bound < tau - EPSILON:
                    discovering = False
                active = np.nonzero(pool.alive & ~pool.confirmed)[0]
                lacks = kernels.masked_lacks(pool.masks[active], terms)
                partial = pool.partial[active]
                drop = partial + lacks < tau - EPSILON
                pool.alive[active[drop]] = False  # tombstones, never revive
                pool.confirmed[active[~drop & (partial >= tau + EPSILON)]] = True
                confirmed_total = int(pool.confirmed.sum())
                unresolved = pool.size - confirmed_total
                METRICS.inc("nra.resolve")
                tracer = _trace.ACTIVE
                if tracer is not None:
                    tracer.event(
                        "nra.resolve",
                        discarded=int(drop.sum()),
                        confirmed=confirmed_total,
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
            pool.update_run(
                run_tids, run_probs, j, cursors.q_probs[j], admit=discovering
            )
        live = pool.tids[pool.alive]  # admission order: the verification order
        scores = verifier.score_many(live)
        return QueryResult(_matches(live, scores, scores >= tau), stats)

    def top_k(self, index, q, k, tau_floor=0.0):
        """Collect candidates without random access, then verify.

        Scans until no unseen tuple can beat the k-th best partial (lower
        bound) score, then random-accesses every surviving candidate
        whose upper bound reaches it.
        """
        stats = QueryStats()
        _begin(self.name, "top_k", k=k, tau_floor=tau_floor)
        verifier = _Verifier(index, q, stats)
        cursors = _CursorSet(index, q)
        stats.nodes_visited += len(cursors)
        pool = kernels.CandidatePool(len(cursors))
        since_check = self.resolve_every  # force an initial stop check
        while True:
            if since_check >= self.resolve_every:
                since_check = 0
                heads = [cursor.head_prob() for cursor in cursors.cursors]
                unseen_bound = math.fsum(
                    q_prob * head
                    for q_prob, head in zip(cursors.q_probs, heads)
                )
                if len(pool.tids) >= k or tau_floor > 0.0:
                    tau_k = (
                        kernels.kth_largest(pool.partial, k)
                        if len(pool.tids) >= k
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
            pool.update_run(
                run_tids, run_probs, j, cursors.q_probs[j], admit=True
            )
        if len(pool.tids) == 0:
            return QueryResult([], stats)
        tau_k = (
            kernels.kth_largest(pool.partial, k)
            if len(pool.tids) >= k
            else 0.0
        )
        tau_eff = tau_k if tau_k > tau_floor else tau_floor
        heads = [cursor.head_prob() for cursor in cursors.cursors]
        terms = [
            q_prob * head for q_prob, head in zip(cursors.q_probs, heads)
        ]
        lacks = kernels.masked_lacks(pool.masks, terms)
        keep = ~(pool.partial + lacks < tau_eff - EPSILON)
        survivors = pool.tids[keep]
        scores = verifier.score_many(survivors)
        found = _matches(survivors, scores, scores > 0.0)
        found.sort()
        return QueryResult(found[:k], stats)


#: Strategy registry by name.
STRATEGIES: dict[str, SearchStrategy] = {
    strategy.name: strategy
    for strategy in (
        InvIndexSearch(),
        HighestProbFirst(),
        RowPruning(),
        ColumnPruning(),
        NoRandomAccess(),
    )
}


def get_strategy(name: str) -> SearchStrategy:
    """Look up a search strategy by name (case-insensitive)."""
    try:
        return STRATEGIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise QueryError(
            f"unknown search strategy {name!r}; expected one of: {known}"
        ) from None
