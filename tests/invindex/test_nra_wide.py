"""NRA over queries whose list masks span more than one 64-bit word.

:class:`~repro.core.kernels.CandidatePool` records which posting lists
each candidate was seen in as a row of 64-bit words.  These queries sit
on the word boundary (62–65 lists) and span three words (130 lists).
Each must give the naive executor's answer — same tids, score bits and
tie order — and the per-posting reference's stats and counted reads.
"""

import numpy as np
import pytest

from repro.core import EqualityThresholdQuery, EqualityTopKQuery, UncertainAttribute
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.storage import BufferPool

from tests.invindex.conftest import random_relation
from tests.invindex.test_kernel_differential import (
    POOL_SIZE,
    assert_agrees_with_reference,
)

NRA = "no_random_access"


@pytest.fixture(scope="module")
def dataset():
    # Wide supports put many tuples in lists on both sides of a word
    # boundary; exact duplicates score identically, so the top-k order
    # must break ties by ascending tid.
    relation = random_relation(300, 200, seed=3, max_nnz=12)
    for tid in range(0, 300, 20):
        relation.append(relation.uda_of(tid))
    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    listed = [
        item
        for item in range(len(relation.domain))
        if index.posting_list(item) is not None
    ]
    return relation, index, listed


def wide_query(listed, num_lists, seed):
    """A query over exactly ``num_lists`` items that have posting lists.

    Near-uniform weights, so the scan reaches the lowest-weighted lists
    (the highest mask bits) rather than stopping on the heavy ones.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(num_lists, 50.0)) * 0.999
    return UncertainAttribute.from_pairs(
        list(zip(listed[:num_lists], weights.tolist()))
    )


def matches_of(result):
    return [(m.tid, m.score) for m in result]


@pytest.mark.parametrize("num_lists", [62, 63, 64, 65, 130])
@pytest.mark.parametrize("kind", ["threshold", "top_k", "top_k_all"])
def test_wide_nra_matches_naive_and_reference(dataset, num_lists, kind):
    relation, index, listed = dataset
    q = wide_query(listed, num_lists, seed=num_lists)
    scores = sorted(
        (q.equality_probability(uda) for uda in relation), reverse=True
    )
    if kind == "threshold":
        query = EqualityThresholdQuery(q, scores[19])  # boundary is a score
    elif kind == "top_k":
        query = EqualityTopKQuery(q, 20)
    else:
        query = EqualityTopKQuery(q, len(relation))  # every tie in order

    expected = matches_of(relation.execute(query))
    assert expected
    index.pool = BufferPool(index.disk, POOL_SIZE)
    sink = MemorySink()
    with tracing(Tracer(sink)):
        got = index.execute(query, strategy=NRA)
    assert matches_of(got) == expected
    if num_lists > 64:
        # The scan really consumed lists past the first mask word.
        consumed = {r["item"] for r in sink.of_kind("cursor.advance")}
        queried = [item for item, _ in q.pairs_by_probability()]
        assert max(queried.index(item) for item in consumed) >= 64

    assert_agrees_with_reference(index, lambda: query, NRA)
