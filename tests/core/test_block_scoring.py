"""Property tests for block verification's two kernels.

* The block scorer (``equality_with_block``) is bit-equal, row by row,
  to :func:`repro.core.uda.sparse_dot_fsum` — the canonical per-tuple
  score — over ragged blocks: empty rows, scattered and overlapping
  extents, stored items beyond the query's largest item (the scorer's
  ``clip`` guard slot), query mass above one, and one row a hundred
  times wider than the rest.
* :meth:`repro.core.kernels.SeenFilter.admit` returns exactly what the
  reference ``if tid in seen`` loop returns, over runs with within-run
  duplicates, repeats across runs and empty runs.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UncertainAttribute, kernels
from repro.core.uda import QueryVector, sparse_dot_fsum

from tests.invindex.reference import first_seen

#: Stored items range past every query's support on purpose.
DOMAIN = 40


@st.composite
def sparse_rows(draw, max_width):
    """One stored tuple: ascending items, float32-exact probabilities."""
    width = draw(st.integers(0, max_width))
    items = sorted(
        draw(st.lists(st.integers(0, DOMAIN - 1), min_size=width, max_size=width, unique=True))
    )
    probs = draw(
        st.lists(st.floats(2.0**-20, 1.0, width=32), min_size=width, max_size=width)
    )
    return np.array(items, dtype=np.int64), np.array(probs, dtype=np.float64)


@st.composite
def queries(draw):
    """A UDA query or a mass-unconstrained ``QueryVector``, or an empty one."""
    # Support kept low in the domain, so stored items exceed its top.
    width = draw(st.integers(0, 8))
    items = sorted(
        draw(st.lists(st.integers(0, DOMAIN // 2), min_size=width, max_size=width, unique=True))
    )
    if not items:
        return UncertainAttribute.from_pairs([])
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.floats(0.05, 3.0), min_size=width, max_size=width)
        )
        return QueryVector(np.array(items), np.array(weights))  # mass may be > 1
    weights = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=width, max_size=width))
    )
    return UncertainAttribute(np.array(items), weights / weights.sum() * 0.999)


def pack(rows, rng):
    """Lay rows out in a shuffled flat buffer with gaps between them."""
    order = rng.permutation(len(rows))
    starts = np.zeros(len(rows), dtype=np.int64)
    lens = np.array([len(items) for items, _ in rows], dtype=np.int64)
    flat_items, flat_probs, cursor = [], [], 0
    for position in order.tolist():
        items, probs = rows[position]
        gap = int(rng.integers(0, 3))
        flat_items.append(np.full(gap, DOMAIN + 5, dtype=np.int64))  # junk
        flat_probs.append(np.full(gap, 0.77))
        starts[position] = cursor + gap
        flat_items.append(items)
        flat_probs.append(probs)
        cursor += gap + len(items)
    return (
        np.concatenate(flat_items) if flat_items else np.empty(0, dtype=np.int64),
        np.concatenate(flat_probs) if flat_probs else np.empty(0),
        starts,
        lens,
    )


@settings(max_examples=200, deadline=None)
@given(
    query=queries(),
    rows=st.lists(sparse_rows(max_width=12), min_size=0, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_block_scores_bit_equal_to_sparse_dot_fsum(query, rows, seed):
    items, probs, starts, lens = pack(rows, np.random.default_rng(seed))
    scores = query.equality_with_block(items, probs, starts, lens)
    assert scores.dtype == np.float64 and scores.shape == (len(rows),)
    expected = [
        sparse_dot_fsum(query.items, query.probs, row_items, row_probs)
        for row_items, row_probs in rows
    ]
    assert scores.tolist() == expected
    # And the per-tuple form agrees with both.
    assert [
        query.equality_with_arrays(row_items, row_probs)
        for row_items, row_probs in rows
    ] == expected


def test_repeated_and_overlapping_extents_score_independently():
    """A block may name the same stored extent twice (or nested ones)."""
    query = UncertainAttribute.from_pairs([(0, 0.25), (1, 0.25), (2, 0.5)])
    items = np.array([0, 1, 2, 7], dtype=np.int64)
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    starts = np.array([0, 0, 1, 3, 2], dtype=np.int64)
    lens = np.array([4, 4, 2, 1, 0], dtype=np.int64)
    scores = query.equality_with_block(items, probs, starts, lens)
    expected = [
        sparse_dot_fsum(query.items, query.probs, items[a : a + n], probs[a : a + n])
        for a, n in zip(starts.tolist(), lens.tolist())
    ]
    assert scores.tolist() == expected
    assert scores[3] == 0.0 and scores[4] == 0.0  # guard slot, empty row


def test_one_very_wide_row_keeps_temporaries_linear():
    """Nothing is padded to the widest row: peak memory is O(total pairs).

    2,000 five-pair rows plus one row a hundred times wider hold
    ~10,500 pairs; a (rows x widest row) temporary would be a million
    cells (8 MB as float64).
    """
    rng = np.random.default_rng(5)
    narrow, wide = 5, 500
    domain = 600
    rows = [
        (
            np.sort(rng.choice(domain, size=narrow, replace=False)).astype(np.int64),
            rng.random(narrow).astype(np.float32).astype(np.float64) + 1e-3,
        )
        for _ in range(2000)
    ]
    rows.insert(
        777,
        (
            np.sort(rng.choice(domain, size=wide, replace=False)).astype(np.int64),
            rng.random(wide).astype(np.float32).astype(np.float64) + 1e-3,
        ),
    )
    lens = np.array([len(items) for items, _ in rows], dtype=np.int64)
    items = np.concatenate([items for items, _ in rows])
    probs = np.concatenate([probs for _, probs in rows])
    starts = np.cumsum(lens) - lens
    weights = rng.random(domain) + 0.01  # every stored item scores
    query = QueryVector(np.arange(domain), weights)
    query.equality_with_block(items[:10], probs[:10], starts[:2], lens[:2])  # build table
    tracemalloc.start()
    scores = query.equality_with_block(items, probs, starts, lens)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    total_pairs = int(lens.sum())
    assert peak < 200 * total_pairs  # ~2 MB; a padded temporary alone is 8 MB
    assert peak < 8 * len(rows) * wide // 2
    for position in (0, 776, 777, 778, 2000):
        row_items, row_probs = rows[position]
        assert scores[position] == sparse_dot_fsum(
            query.items, query.probs, row_items, row_probs
        )


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.integers(0, 25), min_size=0, max_size=40), min_size=1, max_size=12
    )
)
def test_seen_filter_matches_the_scalar_loop(runs):
    """Small tid range: duplicates inside a run and across runs are the norm."""
    vector = kernels.SeenFilter()
    seen: set[int] = set()
    for run in runs:
        tids = np.array(run, dtype=np.int64)
        admitted = vector.admit(tids)
        assert admitted.dtype == np.int64
        assert admitted.tolist() == first_seen(seen, tids)
    assert vector._sorted.tolist() == sorted(seen)
