"""Query descriptors for uncertain categorical data.

These are the select-query forms of Section 2 of the paper:

* :class:`EqualityQuery` — PEQ (Definition 3): every tuple with non-zero
  equality probability, reported with its probability.
* :class:`EqualityThresholdQuery` — PETQ (Definition 4): tuples with
  ``Pr(q = t.a) >= threshold``.
* :class:`EqualityTopKQuery` — PEQ-top-k: the ``k`` tuples with the
  highest equality probability.
* :class:`SimilarityThresholdQuery` — DSTQ (Definition 5): tuples whose
  divergence from the query distribution is at most the threshold.
* :class:`SimilarityTopKQuery` — DSQ-top-k.

A descriptor is pure data (plus validation); executors live in the
relation (naive reference), inverted index, and PDR-tree packages.

Threshold semantics: this library uses the *inclusive* comparison
``Pr >= threshold`` (respectively ``divergence <= threshold``) uniformly
across the naive executor and both indexes, so that all three provably
return identical answer sets.  The paper writes a strict inequality; for
calibrated workloads the distinction only moves boundary-probability
tuples and does not change any reported trend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.divergence import (
    DivergenceFn,
    get_divergence,
    get_sparse_divergence,
)
from repro.core.exceptions import QueryError
from repro.core.uda import QueryVector, UncertainAttribute


@dataclass(frozen=True)
class EqualityQuery:
    """PEQ: all tuples with ``Pr(q = t.a) > 0``, with their probabilities."""

    q: UncertainAttribute

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("PEQ query distribution must be non-empty")


@dataclass(frozen=True)
class EqualityThresholdQuery:
    """PETQ: all tuples with ``Pr(q = t.a) >= threshold``."""

    q: UncertainAttribute
    threshold: float

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("PETQ query distribution must be non-empty")
        if not 0.0 < self.threshold <= 1.0:
            raise QueryError(
                f"PETQ threshold must lie in (0, 1], got {self.threshold}"
            )


@dataclass(frozen=True)
class EqualityTopKQuery:
    """PEQ-top-k: the ``k`` tuples with the highest equality probability.

    Ties at the k-th probability are broken by ascending tuple id, so the
    answer is deterministic and identical across executors.
    """

    q: UncertainAttribute
    k: int

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("top-k query distribution must be non-empty")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class SimilarityThresholdQuery:
    """DSTQ: all tuples with ``F(q, t.a) <= threshold``.

    ``divergence`` names a measure from
    :data:`repro.core.divergence.DIVERGENCES` ("l1", "l2", "kl", ...).
    """

    q: UncertainAttribute
    threshold: float
    divergence: str = "l1"
    _fn: DivergenceFn = field(init=False, repr=False, compare=False)
    _sparse_fn: DivergenceFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("DSTQ query distribution must be non-empty")
        if self.threshold < 0.0:
            raise QueryError(
                f"DSTQ threshold must be >= 0, got {self.threshold}"
            )
        object.__setattr__(self, "_fn", get_divergence(self.divergence))
        object.__setattr__(
            self, "_sparse_fn", get_sparse_divergence(self.divergence)
        )

    def distance(self, other: UncertainAttribute) -> float:
        """Divergence from the query distribution to ``other``."""
        return self._fn(self.q, other)

    def distance_arrays(self, items: np.ndarray, probs: np.ndarray) -> float:
        """:meth:`distance` on a raw sparse vector, skipping UDA wrapping.

        Bit-identical to ``distance(UncertainAttribute(items, probs))``
        because every UDA-level divergence delegates to its sparse form
        on exactly these arrays.
        """
        return self._sparse_fn(self.q.items, self.q.probs, items, probs)


@dataclass(frozen=True)
class SimilarityTopKQuery:
    """DSQ-top-k: the ``k`` tuples with the smallest divergence."""

    q: UncertainAttribute
    k: int
    divergence: str = "l1"
    _fn: DivergenceFn = field(init=False, repr=False, compare=False)
    _sparse_fn: DivergenceFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("top-k query distribution must be non-empty")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "_fn", get_divergence(self.divergence))
        object.__setattr__(
            self, "_sparse_fn", get_sparse_divergence(self.divergence)
        )

    def distance(self, other: UncertainAttribute) -> float:
        """Divergence from the query distribution to ``other``."""
        return self._fn(self.q, other)

    def distance_arrays(self, items: np.ndarray, probs: np.ndarray) -> float:
        """:meth:`distance` on a raw sparse vector, skipping UDA wrapping.

        Bit-identical to ``distance(UncertainAttribute(items, probs))``
        because every UDA-level divergence delegates to its sparse form
        on exactly these arrays.
        """
        return self._sparse_fn(self.q.items, self.q.probs, items, probs)


@dataclass(frozen=True)
class WindowedEqualityQuery:
    """Relaxed PETQ on a totally ordered domain (paper Section 2).

    Returns tuples with ``Pr(|q - t.a| <= window) >= threshold``, where
    items are ordered by index.  ``window = 0`` is ordinary PETQ.

    Internally the query expands into a :class:`QueryVector` of weights
    ``w_i = sum_{j : |i-j| <= window} q.p_j`` so that the windowed
    probability is the plain weighted dot product ``sum_i w_i * u_i`` —
    which lets every equality executor (naive, inverted index, PDR-tree)
    answer it with its ordinary machinery.
    """

    q: UncertainAttribute
    threshold: float
    window: int

    def __post_init__(self) -> None:
        if self.q.nnz == 0:
            raise QueryError("windowed query distribution must be non-empty")
        if not 0.0 < self.threshold <= 1.0:
            raise QueryError(
                f"threshold must lie in (0, 1], got {self.threshold}"
            )
        if self.window < 0:
            raise QueryError(f"window must be >= 0, got {self.window}")

    def expanded(self, domain_size: int | None = None) -> QueryVector:
        """The window-expanded weight vector.

        ``domain_size`` clamps the span on the high side, mirroring the
        clamp at 0 on the low side: a window reaching past the last
        domain item must not emit weights for items outside the domain
        (executors would crash or, worse, silently score phantom items).
        """
        low = int(self.q.items.min()) - self.window
        high = int(self.q.items.max()) + self.window
        if domain_size is not None:
            if int(self.q.items.max()) >= domain_size:
                raise QueryError(
                    f"query item {int(self.q.items.max())} outside domain "
                    f"of size {domain_size}"
                )
            high = min(high, domain_size - 1)
        span = np.arange(max(low, 0), high + 1, dtype=np.int64)
        weights = np.zeros(len(span))
        for item, prob in self.q.pairs():
            start = max(item - self.window, 0) - span[0]
            end = min(item + self.window, span[-1]) + 1 - span[0]
            weights[max(start, 0) : end] += prob
        keep = weights > 0.0
        return QueryVector(span[keep], weights[keep])


#: Union of every query descriptor type.
Query = (
    EqualityQuery
    | EqualityThresholdQuery
    | EqualityTopKQuery
    | SimilarityThresholdQuery
    | SimilarityTopKQuery
    | WindowedEqualityQuery
)


#: PEQ's threshold (Definition 3 asks for ``Pr > 0``): the smallest
#: positive normal float32, as a Python float so a trace can encode it.
PEQ_THRESHOLD = float(np.finfo(np.float32).tiny)


def threshold_form(query: Query, domain_size: int):
    """``(query vector, tau)`` for a descriptor answered as a PETQ, else ``None``.

    PEQ is a threshold at :data:`PEQ_THRESHOLD`; a windowed query is its
    :meth:`~WindowedEqualityQuery.expanded` weight vector at its own
    threshold (Lemmas 1 and 2 hold for any non-negative weights).  Both
    index families reduce equality descriptors through this one place.
    """
    if isinstance(query, EqualityThresholdQuery):
        return query.q, query.threshold
    if isinstance(query, EqualityQuery):
        return query.q, PEQ_THRESHOLD
    if isinstance(query, WindowedEqualityQuery):
        return query.expanded(domain_size), query.threshold
    return None


def check_pushed_bounds(
    query: Query,
    tau_floor: float,
    sketch: str | None,
    div_ceiling: float | None,
) -> bool:
    """Validate the bounds a caller pushes down beside ``query``.

    ``tau_floor`` (a rank-join / shard-coordinator lower bound on the
    global k-th score) only applies to :class:`EqualityTopKQuery`;
    ``sketch`` (a per-request ``REPRO_SKETCH`` override) only to
    similarity descriptors; ``div_ceiling`` (the dual of ``tau_floor``:
    the global k-th divergence) only to :class:`SimilarityTopKQuery`.
    Both index families call this first, so a non-applicable bound is
    refused the same way everywhere instead of being silently ignored.
    Returns whether ``query`` is a similarity descriptor.
    """
    similarity = isinstance(
        query, (SimilarityThresholdQuery, SimilarityTopKQuery)
    )
    if sketch is not None and not similarity:
        raise QueryError(
            "sketch mode only applies to similarity queries; got "
            f"{type(query).__name__}"
        )
    if div_ceiling is not None:
        if not isinstance(query, SimilarityTopKQuery):
            raise QueryError(
                "div_ceiling only applies to similarity top-k "
                f"queries; got {type(query).__name__}"
            )
        if div_ceiling < 0.0:
            raise QueryError(f"div_ceiling must be >= 0, got {div_ceiling}")
    if tau_floor < 0.0:
        raise QueryError(f"tau_floor must be >= 0, got {tau_floor}")
    if tau_floor > 0.0 and not isinstance(query, EqualityTopKQuery):
        raise QueryError(
            "tau_floor only applies to top-k queries; got "
            f"{type(query).__name__}"
        )
    return similarity
