"""Regression test: NRA must never re-admit a discarded candidate.

``NoRandomAccess.threshold`` deletes a tid from its bookkeeping once the
tid's upper bound proves it can never qualify.  Before the ``discarded``
tombstone set existed, such a tid reappearing in a not-yet-consumed list
during discovery was re-admitted with a fresh mask and a *reset* partial
score — and then random-accessed in the final verification pass despite
being provably disqualified.

With honest descending cursors the discard pass also ends discovery (the
discard bound implies the discovery bound), which masks the hazard; the
stub cursors below present the adversarial schedule directly — a stale
high head on an exhausted list — so the re-admission window is actually
exercised.  The algorithm must stay safe under any head sequence: bounds
are pruning hints, never correctness carriers.
"""

import numpy as np

from repro.core.uda import UncertainAttribute
from repro.invindex.strategies import NoRandomAccess
from repro.invindex.tuple_cache import concat_rows


class AdversarialCursor:
    """Scripted cursor: fixed runs plus an explicit head_prob sequence."""

    def __init__(self, runs, heads):
        self._runs = [
            (np.asarray(tids, dtype=np.int64), np.asarray(probs))
            for tids, probs in runs
        ]
        self._heads = heads  # heads[i] = head_prob() after i pops
        self._pops = 0

    @property
    def exhausted(self):
        return self._pops >= len(self._runs)

    def head_prob(self):
        return self._heads[self._pops]

    def pop_run(self):
        run = self._runs[self._pops]
        self._pops += 1
        return run


class StubPostingList:
    def __init__(self, runs, heads):
        self._runs = runs
        self._heads = heads

    def cursor(self):
        return AdversarialCursor(self._runs, self._heads)


class StubIndex:
    """Just enough index surface for NoRandomAccess.threshold.

    Block random access records every tid it is asked for.
    """

    def __init__(self, lists, udas):
        self._lists = lists
        self._udas = udas
        self.verified_tids = []

    def posting_list(self, item):
        return self._lists.get(item)

    def fetch_uda_block(self, tids, announce=None):
        self.verified_tids.extend(tids.tolist())
        return concat_rows(
            [
                (
                    np.asarray(self._udas[tid][0], dtype=np.int64),
                    np.asarray(self._udas[tid][1], dtype=np.float64),
                )
                for tid in tids.tolist()
            ]
        )


def make_stub():
    # Trace (tau=0.6, q = {0: 0.5, 1: 0.5}, resolve_every=1, fallback=1):
    #   pop0  list0 -> tid 7 @ 0.2           partial[7] = 0.10
    #   pass: heads (1.0, 0.95) keep discovery alive (bound 0.975) while
    #         7's upper bound 0.10 + 0.475 = 0.575 < tau  -> DISCARDED
    #   pop1  list1 -> tid 9 @ 0.95
    #   pop2  list1 -> tid 7 @ 0.55          <- the re-admission window
    #   pop3  list1 -> tid 2 @ 0.5
    # Without the tombstone, pop2 re-admits 7 (discovery is still on) and
    # the verification pass random-accesses it.
    list0 = StubPostingList(
        runs=[([7], [0.2])],
        heads=[1.0, 1.0],  # stays high after exhaustion (stale bound)
    )
    list1 = StubPostingList(
        runs=[([9], [0.95]), ([7], [0.55]), ([2], [0.5])],
        heads=[0.95, 0.55, 0.5, 0.0],
    )
    udas = {
        7: ([0, 1], [0.2, 0.55]),
        9: ([1], [0.95]),
        2: ([1], [0.5]),
    }
    return StubIndex({0: list0, 1: list1}, udas)


def test_discarded_tid_never_random_accessed():
    index = make_stub()
    q = UncertainAttribute.from_pairs([(0, 0.5), (1, 0.5)])
    strategy = NoRandomAccess(fallback=1, resolve_every=1)
    result = strategy.threshold(index, q, 0.6)
    # tid 7 was proven unable to reach tau; the tombstone must keep it
    # out of the verification pass entirely.
    assert 7 not in index.verified_tids
    assert result.stats.random_accesses == len(set(index.verified_tids))
    # And of course it is not (and never could be) in the answer.
    assert 7 not in result.tid_set()


def test_survivors_still_verified():
    index = make_stub()
    q = UncertainAttribute.from_pairs([(0, 0.5), (1, 0.5)])
    result = NoRandomAccess(fallback=1, resolve_every=1).threshold(
        index, q, 0.6
    )
    # The never-discarded candidates (9 and 2) each got their random
    # access; neither reaches tau = 0.6, so the answer is empty.
    assert set(index.verified_tids) == {9, 2}
    assert result.tid_set() == set()
