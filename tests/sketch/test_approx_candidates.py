"""Approx mode is a candidate set on both index families.

``REPRO_SKETCH=approx`` verifies only the MinHash/LSH band candidates.
The PDR-tree once encoded non-candidates as a ``+inf`` lower bound and
compared it against the top-k cut — which is itself ``+inf`` until k
answers are held — so a top-k walk verified non-candidates (and read
leaves holding none).  Here every verified tid must be a candidate, and
the tree's answers must equal the inverted index's approx scan.
"""

import pytest

from repro.core import SimilarityThresholdQuery, SimilarityTopKQuery
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.pdrtree import PDRTree, PDRTreeConfig
from repro.storage import BufferPool

from tests.invindex.conftest import random_query, random_relation
from tests.sketch.conftest import POOL_SIZE

DIVERGENCES = ("l1", "l2", "kl", "symmetric_kl")
DOMAIN_SIZE = 30
QUERY_SEEDS = (900, 901, 902)
TREES = {
    "lossless": PDRTreeConfig(),
    "fold4": PDRTreeConfig(fold_size=4),
    "bits2": PDRTreeConfig(bits=2),
}


@pytest.fixture(scope="module")
def relation():
    return random_relation(600, DOMAIN_SIZE, seed=29)


@pytest.fixture(scope="module")
def inverted(relation):
    index = ProbabilisticInvertedIndex(DOMAIN_SIZE)
    index.build(relation)
    index.build_sketch()
    return index


@pytest.fixture(scope="module", params=sorted(TREES))
def tree(request, relation):
    built = PDRTree(DOMAIN_SIZE, config=TREES[request.param])
    built.build(relation)
    built.build_sketch()
    return built


def run_approx(index, query):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    sink = MemorySink()
    with tracing(Tracer(sink)):
        result = index.execute(query, sketch="approx")
    verified = [record["tid"] for record in sink.of_kind("sketch.verify")]
    return [(m.tid, m.score) for m in result.matches], verified


@pytest.mark.parametrize("divergence", DIVERGENCES)
def test_tree_verifies_only_candidates(relation, inverted, tree, divergence):
    for seed in QUERY_SEEDS:
        q = random_query(DOMAIN_SIZE, seed=seed)
        candidates = set(tree.sketch.lsh_candidates(q.items))
        nearest = relation.execute(SimilarityTopKQuery(q, 10, divergence))
        threshold = -nearest.matches[-1].score
        for query in (
            SimilarityTopKQuery(q, 1, divergence),
            SimilarityTopKQuery(q, 5, divergence),
            SimilarityThresholdQuery(q, threshold, divergence),
        ):
            answers, verified = run_approx(tree, query)
            assert set(verified) <= candidates, query
            assert answers == run_approx(inverted, query)[0], query
