"""Uncertain discrete attributes (UDAs).

A UDA is a probability distribution over a categorical domain
(Definition 1).  Because distributions are typically sparse, we store only
the pairs ``{(d, p) : Pr(u = d) = p, p != 0}`` — the "set of pairs"
representation the paper adopts — as two parallel, item-sorted NumPy
arrays.

Probabilities are quantized to ``float32`` precision at construction time
so that a UDA round-trips bit-exactly through the on-page layout
(:mod:`repro.storage.serialization`); all arithmetic is then carried out in
``float64``.  The model permits total mass below one ("the sum can be < 1
in the case of missing values", Section 2, footnote 2).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.core import kernels
from repro.core.domain import CategoricalDomain
from repro.core.exceptions import DomainError, InvalidDistributionError

#: Tolerance on the "total mass <= 1" constraint, sized for float32 rounding.
MASS_TOLERANCE = 1e-4


def sparse_dot_fsum(
    left_items: np.ndarray,
    left_values: np.ndarray,
    right_items: np.ndarray,
    right_values: np.ndarray,
) -> float:
    """Canonical sparse dot product: correctly rounded, order-independent.

    Both item arrays must be strictly ascending.  This function defines
    every probabilistic score in the library: the dense scorer every
    executor scores through is bit-identical to it, which is what makes
    naive and indexed executors agree bit-for-bit.
    """
    if len(left_items) == 0 or len(right_items) == 0:
        return 0.0
    common, left_pos, right_pos = np.intersect1d(
        left_items, right_items, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return 0.0
    return math.fsum((left_values[left_pos] * right_values[right_pos]).tolist())


class _DenseScorer:
    """Dense gather replacement for repeated sparse dots against one side.

    Scoring a query against thousands of candidates recomputes the same
    sorted-array intersection each time.  This table trades the
    intersection for one gather: items outside the query's support (or
    beyond it — ``take`` clips onto a trailing guard zero) contribute a
    product of exactly ``+0.0``, and ``math.fsum`` is the *correctly
    rounded* sum of its inputs, so appending exact zeros cannot change
    the result — the score stays bit-identical to
    :func:`sparse_dot_fsum`.
    """

    __slots__ = ("_table",)

    def __init__(self, items: np.ndarray, values: np.ndarray) -> None:
        table = np.zeros(int(items[-1]) + 2)
        table[items] = values
        self._table = table

    def score(self, items: np.ndarray, values: np.ndarray) -> float:
        products = self._table.take(items, mode="clip") * values
        return math.fsum(products.tolist())

    def score_block(
        self,
        items: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
    ) -> np.ndarray:
        """:meth:`score` for every ragged row of a block, in one gather.

        Row ``i`` is ``items[starts[i] : starts[i] + lens[i]]`` (same
        extent of ``values``); rows may be empty and need not be
        adjacent.  Each score is the correctly rounded sum of that row's
        own non-zero products (dropping exact zeros cannot change it),
        so it is bit-identical to :meth:`score`: a row with at most two
        of them is summed by ``bincount`` — a single IEEE addition *is*
        correctly rounded — and every other row goes through
        ``math.fsum``, the rows of equal count as one 2-D batch fed from
        C.  Temporaries are O(total pairs): nothing is padded to the
        widest row.
        """
        rows = len(lens)
        index, _ = kernels.gather_rows(starts, lens)
        products = self._table.take(items.take(index), mode="clip")
        products *= values.take(index)
        row_of = np.repeat(np.arange(rows), lens)
        live = np.flatnonzero(products)
        if len(live) == 0:
            return np.zeros(rows)
        if len(live) != len(products):
            products, row_of = products[live], row_of[live]
        counts = np.bincount(row_of, minlength=rows)
        scores = np.bincount(row_of, weights=products, minlength=rows)
        if counts.max() > 2:
            firsts = np.cumsum(counts) - counts
            for count in np.unique(counts[counts > 2]).tolist():
                bucket = np.flatnonzero(counts == count)
                cells = firsts[bucket][:, None] + np.arange(count)
                cell = iter(products[cells.ravel()].tolist())
                scores[bucket] = np.fromiter(
                    map(math.fsum, zip(*[cell] * count)), np.float64, len(bucket)
                )
        return scores


class _SparseScoring:
    """Canonical scoring of one sparse vector against stored tuples.

    The implementation :class:`QueryVector` and
    :class:`UncertainAttribute` share (both expose ``items`` / ``probs``
    / ``nnz`` and a ``_scorer`` slot).  Scores go through a cached
    :class:`_DenseScorer`, built on first use so only the query side of
    repeated scoring pays for it; an empty query has no table and scores
    zero against everything.
    """

    __slots__ = ()

    def _dense_scorer(self) -> _DenseScorer | None:
        scorer = self._scorer
        if scorer is None and self.nnz:
            scorer = self._scorer = _DenseScorer(self.items, self.probs)
        return scorer

    def equality_with_arrays(self, items: np.ndarray, probs: np.ndarray) -> float:
        """Canonical score against one tuple's raw sparse arrays.

        ``items`` must be strictly ascending with no duplicates (the
        stored UDA layout guarantees this).  Index executors score
        decoded page entries through this method so their probabilities
        are bit-identical to the naive executor's.
        """
        scorer = self._scorer  # per-tuple hot path: skip the call once built
        if scorer is None:
            scorer = self._dense_scorer()
            if scorer is None:
                return 0.0
        return scorer.score(items, probs)

    def equality_with_block(
        self,
        items: np.ndarray,
        probs: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
    ) -> np.ndarray:
        """:meth:`equality_with_arrays` for a block of ragged rows.

        Tuple ``i`` is the extent ``starts[i]``, ``lens[i]`` of the flat
        arrays (what :meth:`ProbabilisticInvertedIndex.fetch_uda_block
        <repro.invindex.index.ProbabilisticInvertedIndex.fetch_uda_block>`
        returns); the scores come back as one array, each bit-identical
        to the per-tuple call.
        """
        scorer = self._dense_scorer()
        if scorer is None:
            return np.zeros(len(lens))
        return scorer.score_block(items, probs, starts, lens)


class QueryVector(_SparseScoring):
    """A sparse non-negative weight vector used as a query.

    Structurally a read-only sibling of :class:`UncertainAttribute`
    (same ``items``/``probs`` surface, same canonical scoring) but
    without the "mass at most one" constraint — window-expanded equality
    queries weight an item once per nearby query item, so their mass can
    exceed one.  Search strategies accept either type.
    """

    __slots__ = ("items", "probs", "_scorer")

    def __init__(self, items: np.ndarray, probs: np.ndarray) -> None:
        items = np.asarray(items, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if items.shape != probs.shape or items.ndim != 1:
            raise InvalidDistributionError(
                "query vector items/probs must be 1-D and equally long"
            )
        if len(items) and np.any(items[:-1] >= items[1:]):
            raise InvalidDistributionError(
                "query vector items must be strictly ascending"
            )
        if np.any(probs <= 0.0):
            raise InvalidDistributionError(
                "query vector weights must be positive"
            )
        items.setflags(write=False)
        probs.setflags(write=False)
        self.items = items
        self.probs = probs
        self._scorer: _DenseScorer | None = None

    @property
    def nnz(self) -> int:
        """Number of non-zero weights."""
        return len(self.items)

    @property
    def total_mass(self) -> float:
        """Sum of the weights (may exceed one)."""
        return float(self.probs.sum())

    def pairs(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(item, weight)`` in ascending item order."""
        for item, prob in zip(self.items.tolist(), self.probs.tolist()):
            yield item, prob

    def pairs_by_probability(self) -> list[tuple[int, float]]:
        """``(item, weight)`` pairs sorted by descending weight."""
        order = np.lexsort((self.items, -self.probs))
        return [(int(self.items[i]), float(self.probs[i])) for i in order]

    def equality_probability(self, other: "UncertainAttribute") -> float:
        """Canonical weighted score against a UDA."""
        return self.equality_with_arrays(other.items, other.probs)

    def __repr__(self) -> str:
        return f"QueryVector(nnz={self.nnz}, mass={self.total_mass:.3f})"


class UncertainAttribute(_SparseScoring):
    """A sparse probability distribution over a categorical domain.

    Instances are immutable.  Prefer the ``from_*`` constructors; the raw
    constructor expects *item-sorted, strictly positive, deduplicated*
    arrays and validates them.

    Parameters
    ----------
    items:
        Domain indices with non-zero probability, strictly ascending.
    probs:
        The matching probabilities, each in ``(0, 1]``, summing to at
        most one (within tolerance).

    Examples
    --------
    >>> u = UncertainAttribute.from_pairs([(0, 0.5), (1, 0.5)])
    >>> v = UncertainAttribute.from_pairs([(1, 0.4), (2, 0.6)])
    >>> round(u.equality_probability(v), 2)
    0.2
    """

    __slots__ = ("items", "probs", "_scorer")

    def __init__(self, items: np.ndarray, probs: np.ndarray) -> None:
        items = np.asarray(items, dtype=np.int64)
        # Quantize to float32 precision so on-page storage is lossless.
        probs = np.asarray(probs, dtype=np.float32).astype(np.float64)
        if items.shape != probs.shape or items.ndim != 1:
            raise InvalidDistributionError(
                f"items {items.shape} and probs {probs.shape} must be "
                "1-D arrays of equal length"
            )
        if len(items) > 0:
            if np.any(items[:-1] >= items[1:]):
                raise InvalidDistributionError(
                    "items must be strictly ascending (sorted, no duplicates)"
                )
            if items[0] < 0:
                raise InvalidDistributionError("item indices must be >= 0")
            if np.any(probs <= 0.0) or np.any(probs > 1.0):
                raise InvalidDistributionError(
                    "probabilities must lie in (0, 1]"
                )
            total = float(probs.sum())
            if total > 1.0 + MASS_TOLERANCE:
                raise InvalidDistributionError(
                    f"total probability mass {total:.6f} exceeds 1"
                )
        items.setflags(write=False)
        probs.setflags(write=False)
        self.items = items
        self.probs = probs
        self._scorer: _DenseScorer | None = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, float]] | Mapping[int, float]
    ) -> "UncertainAttribute":
        """Build from ``(item_index, probability)`` pairs in any order.

        Zero-probability pairs are dropped; duplicate items are an error.
        """
        if isinstance(pairs, Mapping):
            pairs = list(pairs.items())
        else:
            pairs = list(pairs)
        pairs = [(item, p) for item, p in pairs if p != 0.0]
        if not pairs:
            return cls(np.empty(0, dtype=np.int64), np.empty(0))
        pairs.sort(key=lambda pair: pair[0])
        items = np.array([item for item, _ in pairs], dtype=np.int64)
        if len(np.unique(items)) != len(items):
            raise InvalidDistributionError("duplicate item in pairs")
        probs = np.array([p for _, p in pairs], dtype=np.float64)
        return cls(items, probs)

    @classmethod
    def from_labels(
        cls, domain: CategoricalDomain, assignment: Mapping[str, float]
    ) -> "UncertainAttribute":
        """Build from ``{label: probability}`` against ``domain``.

        Example: ``from_labels(problems, {"Brake": 0.5, "Tires": 0.5})``
        mirrors Table 1(a) of the paper.
        """
        return cls.from_pairs(
            {domain.index_of(label): p for label, p in assignment.items()}
        )

    @classmethod
    def from_dense(cls, vector: np.ndarray) -> "UncertainAttribute":
        """Build from a dense probability vector (zeros are dropped)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise InvalidDistributionError("dense vector must be 1-D")
        items = np.nonzero(vector)[0].astype(np.int64)
        return cls(items, vector[items])

    @classmethod
    def point(cls, item: int) -> "UncertainAttribute":
        """A certain value: all mass on one item (e.g. ``{(Trans, 1.0)}``)."""
        return cls(np.array([item], dtype=np.int64), np.array([1.0]))

    # -- basic accessors -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of items with non-zero probability."""
        return len(self.items)

    @property
    def total_mass(self) -> float:
        """Sum of stored probabilities (at most 1 within tolerance)."""
        return float(self.probs.sum())

    def probability_of(self, item: int) -> float:
        """``Pr(u = d_item)``; zero when the item is not in the support."""
        position = np.searchsorted(self.items, item)
        if position < len(self.items) and self.items[position] == item:
            return float(self.probs[position])
        return 0.0

    def support(self) -> np.ndarray:
        """Domain indices with non-zero probability (ascending copy)."""
        return self.items.copy()

    def pairs(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(item, probability)`` in ascending item order."""
        for item, prob in zip(self.items.tolist(), self.probs.tolist()):
            yield item, prob

    def pairs_by_probability(self) -> list[tuple[int, float]]:
        """``(item, probability)`` pairs sorted by descending probability.

        Ties broken by ascending item, matching posting-key order.
        """
        order = np.lexsort((self.items, -self.probs))
        return [
            (int(self.items[i]), float(self.probs[i])) for i in order
        ]

    def mode(self) -> tuple[int, float]:
        """The most likely item and its probability."""
        if self.nnz == 0:
            raise InvalidDistributionError("empty distribution has no mode")
        best = int(np.argmax(self.probs))
        return int(self.items[best]), float(self.probs[best])

    def to_dense(self, domain_size: int) -> np.ndarray:
        """Expand to a dense vector of length ``domain_size``."""
        if self.nnz and self.items[-1] >= domain_size:
            raise DomainError(
                f"item {int(self.items[-1])} outside domain of size "
                f"{domain_size}"
            )
        dense = np.zeros(domain_size)
        dense[self.items] = self.probs
        return dense

    def to_dict(self) -> dict[int, float]:
        """Return ``{item: probability}``."""
        return dict(self.pairs())

    # -- probabilistic operators ---------------------------------------------------

    def equality_probability(self, other: "UncertainAttribute") -> float:
        """``Pr(u = v) = sum_i u.p_i * v.p_i`` (Definition 2).

        This is the canonical equality computation used by the naive
        executor and by every index structure.  The products are combined
        with :func:`math.fsum`, whose result is the *correctly rounded*
        real sum and therefore independent of summation order — so any
        executor that gathers the same products (in any order) computes a
        bit-identical probability.
        """
        return self.equality_with_arrays(other.items, other.probs)

    def entropy(self) -> float:
        """Shannon entropy in nats over the stored support."""
        if self.nnz == 0:
            return 0.0
        return float(-np.sum(self.probs * np.log(self.probs)))

    def normalized(self) -> "UncertainAttribute":
        """Rescale so the total mass is exactly one."""
        total = self.total_mass
        if total <= 0.0:
            raise InvalidDistributionError("cannot normalize zero mass")
        return UncertainAttribute(self.items.copy(), self.probs / total)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw the attribute's actual value (missing mass raises)."""
        total = self.total_mass
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise InvalidDistributionError(
                f"cannot sample from mass {total:.6f} != 1; normalize first"
            )
        return int(rng.choice(self.items, p=self.probs / total))

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainAttribute):
            return NotImplemented
        return (
            self.items.shape == other.items.shape
            and bool(np.all(self.items == other.items))
            and bool(np.all(self.probs == other.probs))
        )

    def __hash__(self) -> int:
        return hash((self.items.tobytes(), self.probs.tobytes()))

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"({item}, {prob:.3f})" for item, prob in list(self.pairs())[:4]
        )
        suffix = ", ..." if self.nnz > 4 else ""
        return f"UncertainAttribute([{shown}{suffix}])"
