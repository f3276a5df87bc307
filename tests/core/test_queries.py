"""Tests for :mod:`repro.core.queries`."""

import pytest

from repro.core import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    QueryError,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    UncertainAttribute,
    l1_divergence,
)


@pytest.fixture()
def q():
    return UncertainAttribute.from_pairs([(0, 0.5), (1, 0.5)])


class TestEqualityQueries:
    def test_peq_construction(self, q):
        assert EqualityQuery(q).q is q

    def test_peq_rejects_empty_distribution(self):
        with pytest.raises(QueryError):
            EqualityQuery(UncertainAttribute.from_pairs([]))

    def test_petq_construction(self, q):
        query = EqualityThresholdQuery(q, 0.25)
        assert query.threshold == 0.25

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_petq_invalid_thresholds(self, q, threshold):
        with pytest.raises(QueryError):
            EqualityThresholdQuery(q, threshold)

    def test_petq_threshold_of_one_allowed(self, q):
        assert EqualityThresholdQuery(q, 1.0).threshold == 1.0

    def test_topk_construction(self, q):
        assert EqualityTopKQuery(q, 10).k == 10

    @pytest.mark.parametrize("k", [0, -3])
    def test_topk_invalid_k(self, q, k):
        with pytest.raises(QueryError):
            EqualityTopKQuery(q, k)


class TestSimilarityQueries:
    def test_dstq_distance_uses_named_divergence(self, q):
        other = UncertainAttribute.from_pairs([(0, 1.0)])
        query = SimilarityThresholdQuery(q, 0.5, "l1")
        assert query.distance(other) == l1_divergence(q, other)

    def test_dstq_default_divergence_is_l1(self, q):
        assert SimilarityThresholdQuery(q, 0.5).divergence == "l1"

    def test_dstq_zero_threshold_allowed(self, q):
        assert SimilarityThresholdQuery(q, 0.0).threshold == 0.0

    def test_dstq_negative_threshold_rejected(self, q):
        with pytest.raises(QueryError):
            SimilarityThresholdQuery(q, -0.1)

    def test_dstq_unknown_divergence(self, q):
        with pytest.raises(QueryError):
            SimilarityThresholdQuery(q, 0.5, "hamming")

    def test_ds_topk_construction(self, q):
        query = SimilarityTopKQuery(q, 3, "kl")
        assert query.k == 3
        assert query.divergence == "kl"

    def test_ds_topk_invalid_k(self, q):
        with pytest.raises(QueryError):
            SimilarityTopKQuery(q, 0)

    def test_ds_topk_rejects_empty_distribution(self):
        with pytest.raises(QueryError):
            SimilarityTopKQuery(UncertainAttribute.from_pairs([]), 5)


class TestPushedBounds:
    """``tau_floor`` / ``sketch`` / ``div_ceiling`` beside a descriptor
    they do not apply to: one validator, so both index families refuse
    with the same words."""

    QUERIES = {
        "petq": lambda q: EqualityThresholdQuery(q, 0.25),
        "topk": lambda q: EqualityTopKQuery(q, 3),
        "dstq": lambda q: SimilarityThresholdQuery(q, 0.5),
        "simtopk": lambda q: SimilarityTopKQuery(q, 3),
    }

    @pytest.fixture(scope="class")
    def families(self):
        from repro.invindex import ProbabilisticInvertedIndex
        from repro.pdrtree import PDRTree
        from tests.invindex.conftest import random_relation

        relation = random_relation(30, 6, seed=17)
        inverted = ProbabilisticInvertedIndex(len(relation.domain))
        inverted.build(relation)
        tree = PDRTree(len(relation.domain))
        tree.build(relation)
        return inverted, tree

    @pytest.mark.parametrize(
        "kind,bounds,message",
        [
            ("petq", {"tau_floor": 0.2}, "tau_floor only applies to top-k"),
            ("dstq", {"tau_floor": 0.2}, "tau_floor only applies to top-k"),
            ("topk", {"tau_floor": -0.1}, "tau_floor must be >= 0"),
            ("petq", {"sketch": "exact"}, "sketch mode only applies to similarity"),
            ("topk", {"sketch": "off"}, "sketch mode only applies to similarity"),
            ("dstq", {"div_ceiling": 0.5}, "div_ceiling only applies to similarity top-k"),
            ("topk", {"div_ceiling": 0.5}, "div_ceiling only applies to similarity top-k"),
            ("simtopk", {"div_ceiling": -1.0}, "div_ceiling must be >= 0"),
        ],
    )
    def test_both_families_refuse_alike(self, q, families, kind, bounds, message):
        from repro.core.queries import check_pushed_bounds

        query = self.QUERIES[kind](q)
        args = {"tau_floor": 0.0, "sketch": None, "div_ceiling": None, **bounds}
        with pytest.raises(QueryError, match=message) as shared:
            check_pushed_bounds(query, **args)
        for index in families:
            with pytest.raises(QueryError) as refusal:
                index.execute(query, **bounds)
            assert str(refusal.value) == str(shared.value)

    def test_applicable_bounds_pass_and_classify(self, q):
        from repro.core.queries import check_pushed_bounds

        assert not check_pushed_bounds(self.QUERIES["topk"](q), 0.3, None, None)
        assert check_pushed_bounds(self.QUERIES["dstq"](q), 0.0, "exact", None)
        assert check_pushed_bounds(self.QUERIES["simtopk"](q), 0.0, "off", 0.7)
