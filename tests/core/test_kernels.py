"""Unit tests for :mod:`repro.core.kernels` (vectorized posting kernels).

The kernels promise *bit-identity* with the scalar bookkeeping they
replace; each test here checks one kernel against a straightforward
scalar reference implementation.  The whole-strategy equivalence lives
in ``tests/invindex/test_kernel_differential.py``.
"""

import math

import numpy as np
import pytest

from repro.core import UncertainAttribute
from repro.core import kernels
from repro.core.uda import QueryVector, sparse_dot_fsum


class TestKernelMode:
    """One kernel ships; ``kernel_mode`` only names it, reading no env."""

    def test_default_is_vectorized(self):
        assert kernels.kernel_mode() == "vectorized"

    @pytest.mark.parametrize("raw", ["", "default", "on", "vectorized"])
    def test_vectorized_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_KERNEL", raw)
        assert kernels.kernel_mode() == "vectorized"

    def test_scalar_env(self, monkeypatch):
        """The retired ``REPRO_KERNEL=scalar`` switch selects nothing."""
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert kernels.kernel_mode() == "vectorized"


def _scalar_exact_scores(tid_runs, weighted_runs):
    """Reference: per-tid fsum over the concatenated contribution runs."""
    products = {}
    for tids, weighted in zip(tid_runs, weighted_runs):
        for tid, value in zip(tids.tolist(), weighted.tolist()):
            products.setdefault(tid, []).append(value)
    tids = sorted(products)
    return (
        np.array(tids, dtype=np.int64),
        np.array([math.fsum(products[tid]) for tid in tids]),
    )


class TestExactScores:
    def test_matches_per_tid_fsum(self):
        rng = np.random.default_rng(11)
        tid_runs, weighted_runs = [], []
        for _ in range(7):
            n = int(rng.integers(1, 40))
            tid_runs.append(rng.integers(0, 25, size=n).astype(np.int64))
            weighted_runs.append(rng.random(n))
        got_tids, got_scores = kernels.exact_scores(tid_runs, weighted_runs)
        ref_tids, ref_scores = _scalar_exact_scores(tid_runs, weighted_runs)
        assert np.array_equal(got_tids, ref_tids)
        # fsum is correctly rounded, so equality must be exact.
        assert got_scores.tolist() == ref_scores.tolist()

    def test_single_occurrence_fast_path(self):
        tids = [np.array([3, 1], dtype=np.int64)]
        weighted = [np.array([0.25, 0.5])]
        got_tids, got_scores = kernels.exact_scores(tids, weighted)
        assert got_tids.tolist() == [1, 3]
        assert got_scores.tolist() == [0.5, 0.25]


class TestSeenFilter:
    def test_first_encounter_order_preserved(self):
        admit = kernels.SeenFilter()
        first = admit.admit(np.array([5, 3, 5, 9], dtype=np.int64))
        assert first.tolist() == [5, 3, 9]  # in-run dup dropped, order kept
        second = admit.admit(np.array([9, 2, 3, 7], dtype=np.int64))
        assert second.tolist() == [2, 7]

    def test_matches_scalar_set_loop(self):
        rng = np.random.default_rng(3)
        admit = kernels.SeenFilter()
        seen = set()
        for _ in range(25):
            run = rng.integers(0, 50, size=int(rng.integers(1, 30)))
            expected = []
            for tid in run.tolist():
                if tid not in seen:
                    seen.add(tid)
                    expected.append(tid)
            assert admit.admit(run.astype(np.int64)).tolist() == expected


def mask_rows(masks: list[int], num_lists: int) -> np.ndarray:
    """Python-int list masks as :class:`kernels.CandidatePool` mask rows."""
    words = -(-num_lists // 64)
    return np.array(
        [[mask >> 64 * w & (2**64 - 1) for w in range(words)] for mask in masks],
        dtype=kernels.MASK_WORD,
    ).reshape(len(masks), words)


class TestMaskedLacks:
    def test_matches_per_candidate_fsum(self):
        rng = np.random.default_rng(7)
        # One-word masks, a full word, and masks spanning two and three.
        for num_lists in (5, 64, 65, 130):
            terms = rng.random(num_lists).tolist()
            masks = [
                int.from_bytes(rng.bytes(17), "little") % 2**num_lists
                for _ in range(40)
            ]
            masks[1] = masks[0]  # a shared row is scored once, reused
            got = kernels.masked_lacks(mask_rows(masks, num_lists), terms)
            for mask, lack in zip(masks, got.tolist()):
                expected = math.fsum(
                    term for j, term in enumerate(terms) if not mask >> j & 1
                )
                assert lack == expected


class TestSelection:
    def test_kth_largest_matches_sorted(self):
        rng = np.random.default_rng(13)
        values = rng.random(50)
        for k in (1, 3, 50):
            assert kernels.kth_largest(values, k) == sorted(
                values.tolist(), reverse=True
            )[k - 1]

    def test_top_k_matches_ordering_and_ties(self):
        tids = np.array([9, 2, 7, 4], dtype=np.int64)
        scores = np.array([0.5, 0.5, 0.9, 0.1])
        pick = kernels.top_k_matches(tids, scores, 3)
        # score desc, tid asc on the 0.5 tie.
        assert tids[pick].tolist() == [7, 2, 9]

    def test_top_k_matches_k_past_length(self):
        tids = np.array([1, 0], dtype=np.int64)
        scores = np.array([0.2, 0.8])
        pick = kernels.top_k_matches(tids, scores, 10)
        assert tids[pick].tolist() == [0, 1]


class TestCandidatePool:
    def test_update_run_accumulates_and_dedups(self):
        pool = kernels.CandidatePool(2)
        pool.update_run(
            np.array([4, 1, 4], dtype=np.int64),
            np.array([0.5, 0.25, 0.125]),
            0,
            1.0,
            admit=True,
        )
        assert pool.size == 2
        assert pool.live_tids() == [4, 1]  # insertion order
        # Second list: only already-known tids update when admit=False.
        pool.update_run(
            np.array([1, 9], dtype=np.int64),
            np.array([0.5, 0.5]),
            1,
            1.0,
            admit=False,
        )
        assert pool.live_tids() == [4, 1]

    def test_dead_candidates_never_readmitted(self):
        pool = kernels.CandidatePool(2)
        pool.update_run(
            np.array([4], dtype=np.int64), np.array([0.5]), 0, 1.0, admit=True
        )
        pool.alive[0] = False
        pool.update_run(
            np.array([4], dtype=np.int64), np.array([0.5]), 1, 1.0, admit=True
        )
        assert pool.live_tids() == []
        assert pool.size == 0

    def test_lists_past_one_word_keep_their_own_bits(self):
        pool = kernels.CandidatePool(130)
        assert pool.masks.shape == (0, 3)
        for j in (0, 64, 129, 64):  # the repeat of list 64 is not re-added
            pool.update_run(
                np.array([4], dtype=np.int64), np.array([0.5]), j, 1.0, admit=True
            )
        assert pool.partial.tolist() == [1.5]
        assert pool.masks.tolist() == [[1, 1, 2]]


class TestDenseScorer:
    """The cached dense scorer must be bit-identical to sparse_dot_fsum."""

    def _random_sparse(self, rng, domain):
        nnz = int(rng.integers(1, domain + 1))
        items = np.sort(rng.choice(domain, size=nnz, replace=False))
        return items.astype(np.int64), rng.random(nnz)

    def test_uda_scoring_bit_identical(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            q_items, q_probs = self._random_sparse(rng, 12)
            q = UncertainAttribute(q_items, q_probs / (q_probs.sum() + 1.0))
            # Tuple support may extend past the query's largest item.
            t_items, t_probs = self._random_sparse(rng, 20)
            expected = sparse_dot_fsum(q.items, q.probs, t_items, t_probs)
            assert q.equality_with_arrays(t_items, t_probs) == expected

    def test_query_vector_scoring_bit_identical(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            q_items, q_weights = self._random_sparse(rng, 10)
            weights = QueryVector(q_items, q_weights * 2.0)  # mass > 1 ok
            t_items, t_probs = self._random_sparse(rng, 16)
            expected = sparse_dot_fsum(
                weights.items, weights.probs, t_items, t_probs
            )
            assert weights.equality_with_arrays(t_items, t_probs) == expected

    def test_empty_query_scores_zero(self):
        q = UncertainAttribute.from_pairs([])
        assert q.equality_with_arrays(
            np.array([1], dtype=np.int64), np.array([1.0])
        ) == 0.0
