"""Near-member similarity probes: PDR-tree == naive executor.

Thresholds drawn uniformly around random queries rarely land near a
member, yet that is where a node bound that over-estimates the
divergence drops true matches.  These probes start from a member: its
distribution with every probability moved by about 10 %, the threshold
at twice the member's true distance or exactly at another member's
distance, and top-k with the k-th answer tied (the relation repeats
some of its tuples).  Every divergence, both MBR compression schemes,
sketch off and exact.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DIVERGENCES,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    UncertainAttribute,
    UncertainRelation,
)
from repro.pdrtree import PDRTree, PDRTreeConfig

from tests.invindex.conftest import random_relation

#: Distinct tuples (enough that every tree has internal nodes, where
#: the node bound prunes); the first ``TWINNED`` are stored a second
#: time at ``tid + DISTINCT``, so rankings have ties to cut through.
DISTINCT = 560
TWINNED = 40

CONFIGS = {
    "lossless": PDRTreeConfig(),
    "fold": PDRTreeConfig(fold_size=4),
    "bits": PDRTreeConfig(bits=2),
}

#: Probe draws shared by both properties; the explicit example is a
#: near-member probe that a symmetric-KL node bound once pruned away.
probes = dict(
    tid=st.integers(0, DISTINCT + TWINNED - 1),
    seed=st.integers(0, 2**32 - 1),
    sketch=st.sampled_from(("off", "exact")),
    pick=st.integers(0, 2**16),
)
pruned_once = example(tid=2, seed=2, sketch="off", pick=0)
every_tree = pytest.mark.parametrize("config", sorted(CONFIGS))
every_divergence = pytest.mark.parametrize("divergence", sorted(DIVERGENCES))


@pytest.fixture(scope="module")
def relation():
    distinct = random_relation(DISTINCT, 30, seed=29)
    relation = UncertainRelation(distinct.domain)
    for uda in list(distinct) + list(distinct)[:TWINNED]:
        relation.append(uda)
    return relation


@pytest.fixture(scope="module")
def trees(relation):
    built = {}
    for name, config in CONFIGS.items():
        tree = PDRTree(len(relation.domain), config=config)
        tree.build(relation)
        tree.build_sketch()
        built[name] = tree
    return built


def near_member(relation, tid, seed):
    """Member ``tid`` with each probability scaled by 0.9-1.1, same mass."""
    uda = relation.uda_of(tid)
    rng = np.random.default_rng(seed)
    probs = uda.probs * rng.uniform(0.9, 1.1, size=len(uda.probs))
    probs *= uda.probs.sum() / probs.sum()
    return UncertainAttribute(uda.items, probs)


def pairs(result):
    return [(m.tid, m.score) for m in result]


@every_divergence
@every_tree
@settings(max_examples=12, deadline=None)
@given(**probes)
@pruned_once
def test_threshold_keeps_near_members(
    relation, trees, divergence, config, tid, seed, sketch, pick
):
    q = near_member(relation, tid, seed)
    probe = SimilarityThresholdQuery(q, 0.0, divergence)
    distances = sorted(probe.distance(uda) for uda in relation)
    own = probe.distance(relation.uda_of(tid))
    for threshold in (2.0 * own, distances[pick % 20]):
        query = SimilarityThresholdQuery(q, threshold, divergence)
        expected = pairs(relation.execute(query))
        if threshold >= own:
            assert tid in {match_tid for match_tid, _ in expected}
        assert pairs(trees[config].execute(query, sketch=sketch)) == expected


@every_divergence
@every_tree
@settings(max_examples=12, deadline=None)
@given(**probes)
@pruned_once
def test_top_k_cuts_through_a_tie(
    relation, trees, divergence, config, tid, seed, sketch, pick
):
    q = near_member(relation, tid, seed)
    ranking = relation.execute(SimilarityTopKQuery(q, len(relation), divergence))
    scores = [match.score for match in ranking]
    ties = [k for k in range(1, 40) if scores[k - 1] == scores[k]]
    k = ties[pick % len(ties)] if ties else 1 + pick % 20
    query = SimilarityTopKQuery(q, k, divergence)
    expected = pairs(relation.execute(query))
    assert pairs(trees[config].execute(query, sketch=sketch)) == expected
