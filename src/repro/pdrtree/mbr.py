"""Minimum bounding rectangles (MBRs) for distributions.

"The MBR boundary for a page is a vector v = (v1, ..., vN) such that v_i
is the maximum probability of item d_i in any of the UDA indexed in the
subtree of the current page" (Section 3.2).  A :class:`BoundaryVector` is
that vector in sparse form, living in the *scheme space* of the tree's
:class:`~repro.pdrtree.compression.BoundaryCodec` (the raw domain, or the
folded signature space).

The "area" of an MBR is its L1 measure ``sum_i v_i``, the simplest of the
measures the paper suggests; :meth:`area_increase` drives the
minimum-area-increase insert policy and :meth:`dot` is the Lemma 2
pruning bound ``<<c.v, q>>``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import distance

from repro.core.divergence import sparse_kl, sparse_l1, sparse_l2
from repro.core.exceptions import QueryError


class BoundaryVector:
    """A sparse, non-negative pointwise-max bound over distributions."""

    __slots__ = ("items", "values")

    def __init__(self, items: np.ndarray, values: np.ndarray) -> None:
        self.items = np.asarray(items, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)

    @classmethod
    def empty(cls) -> "BoundaryVector":
        """The boundary of an empty page (area zero, prunes everything)."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0))

    @classmethod
    def over(cls, members: list[tuple[np.ndarray, np.ndarray]]) -> "BoundaryVector":
        """Pointwise max over sparse ``(items, values)`` vectors."""
        if not members:
            return cls.empty()
        all_items = np.concatenate([items for items, _ in members])
        all_values = np.concatenate([values for _, values in members])
        union, inverse = np.unique(all_items, return_inverse=True)
        maxima = np.zeros(len(union))
        np.maximum.at(maxima, inverse, all_values)
        return cls(union, maxima)

    # -- measures ------------------------------------------------------------

    @property
    def area(self) -> float:
        """The paper's L1 area measure ``sum_i v_i``."""
        return float(self.values.sum())

    def deficit(self, items: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-component excess ``max(0, u_i - v_i)`` of a vector over this
        boundary (``items`` in scheme space, repeats allowed)."""
        if len(self.items) == 0:
            current = np.zeros(len(items))
        else:
            positions = np.minimum(
                np.searchsorted(self.items, items), len(self.items) - 1
            )
            matched = self.items[positions] == items
            current = np.where(matched, self.values[positions], 0.0)
        return np.maximum(values - current, 0.0)

    def area_increase(self, items: np.ndarray, values: np.ndarray) -> float:
        """Growth in L1 area if this boundary absorbed the given vector:
        the summed :meth:`deficit`, zero when the vector already fits."""
        return float(self.deficit(items, values).sum())

    def expanded(self, items: np.ndarray, values: np.ndarray) -> "BoundaryVector":
        """A new boundary that also dominates the given vector."""
        return BoundaryVector.over(
            [(self.items, self.values), (items, values)]
        )

    def dominates(self, items: np.ndarray, values: np.ndarray) -> bool:
        """Whether every component of the vector is <= the boundary's."""
        return self.area_increase(items, values) == 0.0

    def dot(self, q_items: np.ndarray, q_values: np.ndarray) -> float:
        """Lemma 2 bound: ``<<v, q>>`` for a (scheme-space) query vector."""
        if len(self.items) == 0 or len(q_items) == 0:
            return 0.0
        common, left, right = np.intersect1d(
            self.items, q_items, assume_unique=True, return_indices=True
        )
        if len(common) == 0:
            return 0.0
        return math.fsum((self.values[left] * q_values[right]).tolist())

    def distance_to(
        self, items: np.ndarray, values: np.ndarray, divergence: str
    ) -> float:
        """Divergence from a vector to this boundary (for clustering).

        For the asymmetric KL the vector is the left argument —
        ``KL(u || boundary)`` — matching "distributional similarity
        measure of u with MBR boundary".  The boundary is normalized to
        unit mass first: "even though an MBR boundary is not a
        probability distribution in the strict sense, we can still apply
        most divergence measures".  Without normalization KL rewards
        whichever boundary is *largest* (its terms go negative), herding
        every insert into one cluster.
        """
        if divergence == "l1":
            return sparse_l1(items, values, self.items, self.values)
        if divergence == "l2":
            return sparse_l2(items, values, self.items, self.values)
        if divergence == "kl":
            total = self.values.sum()
            normalized = self.values / total if total > 0 else self.values
            return sparse_kl(items, values, self.items, normalized)
        raise QueryError(f"unknown divergence {divergence!r} for MBR distance")

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"BoundaryVector(nnz={len(self.items)}, area={self.area:.3f})"


def densify(
    members: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack sparse vectors into a dense matrix over their union support.

    Returns ``(matrix, union_items)`` where ``matrix[i]`` is member ``i``
    restricted to the union support.  Distances that only depend on the
    union support (L1, L2, KL with an epsilon floor) can then be computed
    with vectorized operations — the split algorithms rely on this.
    """
    if not members:
        return np.zeros((0, 0)), np.empty(0, dtype=np.int64)
    union = np.unique(np.concatenate([items for items, _ in members]))
    matrix = np.zeros((len(members), len(union)))
    for row, (items, values) in enumerate(members):
        matrix[row, np.searchsorted(union, items)] = values
    return matrix, union


def pairwise_distances(matrix: np.ndarray, divergence: str) -> np.ndarray:
    """All-pairs distance matrix over dense rows (symmetrized for KL)."""
    if divergence == "l1":
        return distance.cdist(matrix, matrix, "cityblock")
    if divergence == "l2":
        return distance.cdist(matrix, matrix, "euclidean")
    if divergence == "kl":
        kl = _kl_rows(matrix, matrix)
        return 0.5 * (kl + kl.T)
    raise QueryError(f"unknown divergence {divergence!r} for pairwise distances")


def rows_to_rows_distance(
    left: np.ndarray, right: np.ndarray, divergence: str
) -> np.ndarray:
    """Distance from each ``left`` row to each ``right`` row.

    For KL, the left rows are the distributions and the right rows the
    cluster boundaries: ``KL(left_i || right_j)``.
    """
    if divergence == "l1":
        return distance.cdist(left, right, "cityblock")
    if divergence == "l2":
        return distance.cdist(left, right, "euclidean")
    if divergence == "kl":
        return _kl_rows(left, right)
    raise QueryError(f"unknown divergence {divergence!r} for row distances")


_KL_EPSILON = 1e-9


def _kl_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``KL(left_i || right_j)`` over dense rows with an epsilon floor.

    Rows are normalized to unit mass first (clustering inputs may be
    boundary vectors rather than strict distributions; see
    :meth:`BoundaryVector.distance_to`).
    """
    left_mass = np.maximum(left.sum(axis=1, keepdims=True), _KL_EPSILON)
    left = left / left_mass
    right_mass = np.maximum(right.sum(axis=1, keepdims=True), _KL_EPSILON)
    right = right / right_mass
    safe_left = np.maximum(left, _KL_EPSILON)
    log_left = np.where(left > 0.0, np.log(safe_left), 0.0)
    entropy = (left * log_left).sum(axis=1)
    log_right = np.log(np.maximum(right, _KL_EPSILON))
    cross = left @ log_right.T
    return entropy[:, None] - cross
