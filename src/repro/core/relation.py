"""In-memory uncertain relations and the naive reference executor.

:class:`UncertainRelation` models a relation with (for simplicity, as in
the paper) a single uncertain attribute.  It owns the authoritative
tid -> UDA mapping and answers every query of :mod:`repro.core.queries`
by exhaustive scan with the canonical scoring functions.  The naive
executor is the correctness oracle for both index structures — every
index-vs-naive property test compares against it — and doubles as the
"no index" baseline.

A vectorized scipy-CSR fast path (:meth:`equality_probabilities`) serves
workload calibration, where thousands of full probability vectors are
needed and bit-exact agreement with the canonical path is not required.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.core.domain import CategoricalDomain
from repro.core.exceptions import DomainError, QueryError
from repro.core.queries import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    Query,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    WindowedEqualityQuery,
)
from repro.core.results import Match, QueryResult, QueryStats
from repro.core.uda import UncertainAttribute


class UncertainRelation:
    """A relation with one uncertain discrete attribute.

    Parameters
    ----------
    domain:
        The categorical domain of the uncertain attribute.
    name:
        Optional relation name used in reprs and examples.

    Examples
    --------
    >>> domain = CategoricalDomain(["Shoes", "Sales", "Clothes"])
    >>> employees = UncertainRelation(domain, name="personnel")
    >>> tid = employees.append(
    ...     UncertainAttribute.from_labels(domain, {"Shoes": 0.5, "Sales": 0.5}),
    ...     payload="Jim",
    ... )
    >>> employees.payload_of(tid)
    'Jim'
    """

    def __init__(self, domain: CategoricalDomain, name: str = "R") -> None:
        self.domain = domain
        self.name = name
        self._udas: list[UncertainAttribute] = []
        self._payloads: list[object] = []
        self._matrix: sparse.csr_matrix | None = None

    # -- construction ------------------------------------------------------

    def append(self, uda: UncertainAttribute, payload: object = None) -> int:
        """Add a tuple; returns its tid (tids are dense, starting at 0)."""
        if uda.nnz and uda.items[-1] >= len(self.domain):
            raise DomainError(
                f"item {int(uda.items[-1])} outside domain of size "
                f"{len(self.domain)}"
            )
        self._udas.append(uda)
        self._payloads.append(payload)
        self._matrix = None
        return len(self._udas) - 1

    def extend(self, udas: Iterable[UncertainAttribute]) -> None:
        """Append many tuples with no payloads."""
        for uda in udas:
            self.append(uda)

    @classmethod
    def from_udas(
        cls,
        domain: CategoricalDomain,
        udas: Iterable[UncertainAttribute],
        name: str = "R",
    ) -> "UncertainRelation":
        """Build a relation directly from an iterable of UDAs."""
        relation = cls(domain, name=name)
        relation.extend(udas)
        return relation

    # -- access ------------------------------------------------------------

    def uda_of(self, tid: int) -> UncertainAttribute:
        """The uncertain attribute of tuple ``tid``."""
        return self._udas[tid]

    def payload_of(self, tid: int) -> object:
        """The opaque payload stored with tuple ``tid`` (may be None)."""
        return self._payloads[tid]

    def __len__(self) -> int:
        return len(self._udas)

    def __iter__(self) -> Iterator[UncertainAttribute]:
        return iter(self._udas)

    def tids(self) -> range:
        """All tuple ids."""
        return range(len(self._udas))

    # -- vectorized fast path ------------------------------------------------

    def to_sparse_matrix(self) -> sparse.csr_matrix:
        """The relation as an ``n x N`` CSR matrix of probabilities."""
        if self._matrix is None:
            n = len(self._udas)
            indptr = np.zeros(n + 1, dtype=np.int64)
            for tid, uda in enumerate(self._udas):
                indptr[tid + 1] = indptr[tid] + uda.nnz
            indices = np.empty(indptr[-1], dtype=np.int64)
            data = np.empty(indptr[-1])
            for tid, uda in enumerate(self._udas):
                indices[indptr[tid] : indptr[tid + 1]] = uda.items
                data[indptr[tid] : indptr[tid + 1]] = uda.probs
            self._matrix = sparse.csr_matrix(
                (data, indices, indptr), shape=(n, len(self.domain))
            )
        return self._matrix

    def equality_probabilities(self, q: UncertainAttribute) -> np.ndarray:
        """``Pr(q = t.a)`` for every tuple, as one dense vector.

        Vectorized; used by workload calibration.  May differ from the
        canonical per-tuple computation in the last float bits.
        """
        return self.to_sparse_matrix() @ q.to_dense(len(self.domain))

    # -- naive executors (the correctness oracle) ----------------------------

    def execute(self, query: Query) -> QueryResult:
        """Answer any query descriptor by exhaustive scan."""
        if isinstance(query, EqualityQuery):
            return self._peq(query)
        if isinstance(query, EqualityThresholdQuery):
            return self._equality_threshold(query)
        if isinstance(query, EqualityTopKQuery):
            return self._equality_top_k(query)
        if isinstance(query, SimilarityThresholdQuery):
            return self._similarity_threshold(query)
        if isinstance(query, SimilarityTopKQuery):
            return self._similarity_top_k(query)
        if isinstance(query, WindowedEqualityQuery):
            return self._windowed(query)
        raise QueryError(f"unsupported query type: {type(query).__name__}")

    def _windowed(self, query: WindowedEqualityQuery) -> QueryResult:
        weights = query.expanded(len(self.domain))
        stats = QueryStats(candidates_examined=len(self._udas))
        matches = []
        for tid, uda in enumerate(self._udas):
            probability = weights.equality_with_arrays(uda.items, uda.probs)
            if probability >= query.threshold:
                matches.append(Match(tid=tid, score=probability))
        return QueryResult(matches, stats)

    def _peq(self, query: EqualityQuery) -> QueryResult:
        stats = QueryStats(candidates_examined=len(self._udas))
        matches = []
        for tid, uda in enumerate(self._udas):
            probability = query.q.equality_probability(uda)
            if probability > 0.0:
                matches.append(Match(tid=tid, score=probability))
        return QueryResult(matches, stats)

    def _equality_threshold(self, query: EqualityThresholdQuery) -> QueryResult:
        stats = QueryStats(candidates_examined=len(self._udas))
        matches = []
        for tid, uda in enumerate(self._udas):
            probability = query.q.equality_probability(uda)
            if probability >= query.threshold:
                matches.append(Match(tid=tid, score=probability))
        return QueryResult(matches, stats)

    def _equality_top_k(self, query: EqualityTopKQuery) -> QueryResult:
        stats = QueryStats(candidates_examined=len(self._udas))
        scored = []
        for tid, uda in enumerate(self._udas):
            probability = query.q.equality_probability(uda)
            if probability > 0.0:
                scored.append(Match(tid=tid, score=probability))
        scored.sort()
        return QueryResult(scored[: query.k], stats)

    def _similarity_threshold(self, query: SimilarityThresholdQuery) -> QueryResult:
        stats = QueryStats(candidates_examined=len(self._udas))
        matches = []
        for tid, uda in enumerate(self._udas):
            distance = query.distance(uda)
            if distance <= query.threshold:
                matches.append(Match(tid=tid, score=-distance))
        return QueryResult(matches, stats)

    def _similarity_top_k(self, query: SimilarityTopKQuery) -> QueryResult:
        stats = QueryStats(candidates_examined=len(self._udas))
        scored = [
            Match(tid=tid, score=-query.distance(uda))
            for tid, uda in enumerate(self._udas)
        ]
        scored.sort()
        return QueryResult(scored[: query.k], stats)

    def __repr__(self) -> str:
        return (
            f"UncertainRelation(name={self.name!r}, tuples={len(self)}, "
            f"domain_size={len(self.domain)})"
        )
