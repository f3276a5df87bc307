"""The four served workloads: committed constants and seeded input generation.

Everything a run sends to the server is made here from ``--seed``: the
dataset, the held-out tuples the write stream inserts, the query sample,
the order of a pass and the Poisson schedule.  The program under test
receives only these generated inputs; nothing in it can tell which
workload is running.

Sizes are set by the per-run time cap (see README, "Sizes"): a pass must
be short enough that a ``run_seconds`` window holds eight or more of
them, because every timing is paired across passes (see ``steady.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.queries import (
    EqualityTopKQuery,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
)
from repro.core.relation import UncertainRelation
from repro.datagen import (
    PAPER_SELECTIVITIES,
    build_workload,
    crm1_dataset,
    gen3_dataset,
    uniform_dataset,
)
from repro.serve.protocol import encode_line, query_to_wire

#: Tuples generated beyond ``n`` and kept out of the build; the write
#: stream inserts them (under fresh tids) and deletes them again.
HELD_OUT = 64

#: Inserted tuples kept live by the FIFO write stream before it starts
#: pairing each insert with a delete of the oldest one.
LIVE_BACKLOG = 8

#: Acknowledged writes of the crash leg (insert / delete alternating
#: once the backlog is live), and the pipelined burst in flight when the
#: server is SIGKILLed.
DURABILITY_WRITES = 120
KILL_BURST = 8

#: Of every stratum of a pass (query kind x selectivity), the share whose
#: reads are measured under the paper protocol on a serve-mode workload
#: (the protocol is slow: a fresh pool per query).  The sample is taken
#: per stratum so that ``reads_per_op`` averages the same mix on every
#: seed.
PAPER_SAMPLE_SHARE = 2

#: Open-loop rates, req/s.  Absolute and committed, not derived from
#: the run, so that a faster program meets the same offered load: about
#: half of the seed's ``closed_rps`` on this box (results/baseline.json:
#: 160 / 120 / 148 / 182).
OPEN_RATE = {"eq_warm": 80.0, "eq_cold": 58.0, "sim_pdr": 71.0, "rw_churn": 92.0}

#: Rate ladder on ``eq_warm`` (40 / 60 / 80 % of seed closed_rps) and
#: the p95 limit a rate must meet, 4 x the seed's closed_p50_ms (12 ms).
LADDER_RATES = (64.0, 96.0, 128.0)
LADDER_ARRIVALS = 300
LADDER_P95_LIMIT_MS = 48.0
LADDER_MAX_BACKLOG = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload's committed constants."""

    name: str
    why: str
    #: ``uniform`` / ``crm1`` / ``gen3`` (repro.datagen generator).
    dataset: str
    num_tuples: int
    #: ``inverted`` or ``pdr``.
    index: str
    #: ServeConfig mode and pool size (None = the mode's default).
    mode: str = "serve"
    pool_size: int | None = None
    #: Build a sketch store beside the index.
    sketch: bool = False
    #: Distinct queries per pass (a multiple of 8: four selectivities or
    #: kinds, two query kinds each); a pass sends each exactly once.
    queries_per_pass: int = 160
    #: Inserts + deletes per pass (0 = read-only window) and whether a
    #: pass ends its write stream with one ``compact``.
    writes_per_pass: int = 0
    compact_per_pass: bool = False
    #: ``gen3`` only.  The generator draws its item groups once per
    #: dataset; with its default of 50 the mean tuple width moves by 20 %
    #: from seed to seed and every metric with it, with 200 by 8 %.
    domain_size: int | None = None
    num_groups: int | None = None


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="eq_warm",
            why=(
                "working set fits pool and tuple cache (0 reads/req): time is "
                "candidate verification in invindex+core, storage idle; largest "
                "replies"
            ),
            dataset="uniform",
            num_tuples=2500,
            index="inverted",
        ),
        WorkloadSpec(
            name="eq_cold",
            why=(
                "paper protocol over the wire: fresh pool per request smaller than "
                "a query's working set, no tuple cache, so storage fetch/CRC/record "
                "decode dominate and serve is small"
            ),
            dataset="crm1",
            num_tuples=1000,
            index="inverted",
            mode="measure",
            pool_size=10,
            queries_per_pass=96,
        ),
        WorkloadSpec(
            name="sim_pdr",
            why=(
                "PDR-tree + sketch + divergences, invindex unused; cheap kinds "
                "make the coalescing window and wire the largest serve share"
            ),
            dataset="gen3",
            num_tuples=1200,
            index="pdr",
            sketch=True,
            domain_size=100,
            num_groups=200,
        ),
        WorkloadSpec(
            name="rw_churn",
            why=(
                "80% reads beside 20% durable writes (fsync) and a compaction per "
                "pass: each write clears the tuple cache, so read and write costs "
                "trade"
            ),
            dataset="gen3",
            num_tuples=2000,
            index="inverted",
            queries_per_pass=128,
            writes_per_pass=32,
            compact_per_pass=True,
            domain_size=100,
            num_groups=200,
        ),
    )
}

WORKLOAD_NAMES = tuple(SPECS)


def scaled(spec: WorkloadSpec, scale: str) -> WorkloadSpec:
    """``smoke`` divides the dataset by five and sends about 100 requests."""
    if scale == "full":
        return spec
    from dataclasses import replace

    writes = 16 if spec.writes_per_pass else 0
    return replace(
        spec,
        num_tuples=max(400, spec.num_tuples // 5),
        queries_per_pass=96 - writes,
        writes_per_pass=writes,
    )


@dataclass
class Request:
    """One distinct query of a pass, ready to send."""

    query: object
    #: Short label of the query kind (``petq``, ``topk``, ``dstq``, ``dsq``).
    kind: str
    #: Measured under the paper protocol even on a serve-mode workload.
    paper_sample: bool
    #: The request line; its ``id`` is the position in :attr:`Inputs.requests`.
    line: bytes
    #: Sketch mode carried by the request (similarity kinds only).
    sketch: str | None = None
    #: Naive answer over the base relation, ``[(tid, score), ...]``.
    expected: list = field(default_factory=list)
    #: Reads under the paper protocol (a fresh pool for this query alone);
    #: None where the run did not measure it.
    paper_reads: int | None = None


@dataclass
class Inputs:
    spec: WorkloadSpec
    seed: int
    relation: UncertainRelation
    #: UDAs the write stream inserts, cycled under fresh tids.
    held_out: list
    #: Distinct queries, in the seeded order one pass sends them.
    requests: list[Request]
    #: Bytes of user data in the base relation (8 per stored pair).
    user_bytes: int


def generate_relation(spec: WorkloadSpec, seed: int) -> tuple[UncertainRelation, list]:
    """The base relation and the held-out UDAs, from one generator call."""
    total = spec.num_tuples + HELD_OUT
    if spec.dataset == "uniform":
        full = uniform_dataset(total, seed=seed)
    elif spec.dataset == "crm1":
        full = crm1_dataset(total, seed=seed)
    else:
        full = gen3_dataset(
            total, domain_size=spec.domain_size, num_groups=spec.num_groups, seed=seed
        )
    udas = list(full)
    base = UncertainRelation.from_udas(full.domain, udas[: spec.num_tuples])
    return base, udas[spec.num_tuples :]


def _equality_queries(relation, count: int, seed: int) -> list[tuple]:
    """PETQ and PEQ-top-k over the paper's selectivities, ``count`` in all.

    Returns ``(query, kind, paper_sample)`` triples.  Every stratum
    (kind x selectivity) has the same size on every seed: a selectivity
    for which fewer queries could be calibrated repeats the ones it has.
    """
    per_point = count // (2 * len(PAPER_SELECTIVITIES))
    workload = build_workload(
        relation, PAPER_SELECTIVITIES, queries_per_point=per_point, seed=seed
    )
    sampled = max(1, per_point // PAPER_SAMPLE_SHARE)
    queries = []
    for calibrated in workload.values():
        for position in range(per_point):
            entry = calibrated[position % len(calibrated)]
            queries.append((entry.threshold_query(), "petq", position < sampled))
            queries.append((entry.top_k_query(), "topk", position < sampled))
    return queries


def _l1_threshold(dense: np.ndarray, q_dense: np.ndarray, k: int) -> float:
    """A DSTQ threshold selecting about ``k`` tuples, clear of any tie.

    The midpoint between the k-th and (k+1)-th l1 distance, so that the
    last float bits of the canonical divergence cannot flip a boundary
    tuple between the oracle and the index.
    """
    distances = np.sort(np.abs(dense - q_dense).sum(axis=1))
    return float((distances[k - 1] + distances[k]) / 2.0)


def _similarity_mix(relation, count: int, seed: int) -> list[tuple]:
    """A quarter each of DSTQ-l1, DSQ-top-5-KL, PETQ and PEQ-top-10."""
    quarter = count // 4
    sampled = max(1, quarter // PAPER_SAMPLE_SHARE)
    rng = np.random.default_rng(seed * 7919 + 101)
    dense = relation.to_sparse_matrix().toarray()
    picks = rng.integers(0, len(relation), size=2 * quarter)
    k = max(2, round(0.005 * len(relation)))
    workload = build_workload(
        relation, (0.01,), queries_per_point=quarter, seed=seed
    )
    calibrated = workload[0.01]
    queries = []
    for position in range(quarter):
        in_sample = position < sampled
        tid = int(picks[position])
        threshold = _l1_threshold(dense, dense[tid], k)
        queries.append(
            (SimilarityThresholdQuery(relation.uda_of(tid), threshold, "l1"), "dstq", in_sample)
        )
        tid = int(picks[quarter + position])
        queries.append(
            (SimilarityTopKQuery(relation.uda_of(tid), 5, "kl"), "dsq", in_sample)
        )
        entry = calibrated[position % len(calibrated)]
        queries.append((entry.threshold_query(), "petq", in_sample))
        queries.append((EqualityTopKQuery(entry.q, 10), "topk", in_sample))
    return queries


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    """Dataset, held-out tuples and the pass's request order for ``seed``."""
    relation, held_out = generate_relation(spec, seed)
    if spec.index == "pdr":
        queries = _similarity_mix(relation, spec.queries_per_pass, seed)
    else:
        queries = _equality_queries(relation, spec.queries_per_pass, seed)
    order = np.random.default_rng(seed * 7919 + 7).permutation(len(queries))
    requests = []
    for position, source in enumerate(order):
        query, kind, paper_sample = queries[int(source)]
        message = {"id": position, **query_to_wire(query)}
        sketch = "exact" if kind in ("dstq", "dsq") else None
        if sketch is not None:
            message["sketch"] = sketch
        requests.append(
            Request(
                query=query,
                kind=kind,
                paper_sample=paper_sample or spec.mode == "measure",
                line=encode_line(message),
                sketch=sketch,
            )
        )
    user_bytes = 8 * sum(uda.nnz for uda in relation)
    return Inputs(
        spec=spec,
        seed=seed,
        relation=relation,
        held_out=held_out,
        requests=requests,
        user_bytes=user_bytes,
    )


class WriteStream:
    """The FIFO insert/delete stream, identical for window and durability leg.

    Inserts cycle through the held-out UDAs under fresh tids (so a tid
    is never reused); once :data:`LIVE_BACKLOG` inserted tuples are
    live, every insert is followed by a delete of the oldest.  The
    stream is the single writer, so the order it hands writes out is the
    order the server applies them.
    """

    def __init__(self, inputs: Inputs) -> None:
        self._held = inputs.held_out
        self._next_tid = len(inputs.relation)
        self._live: list[int] = []
        self._count = 0
        #: tid -> UDA of every insert handed out.
        self.inserted: dict[int, object] = {}

    def next_write(self) -> dict:
        """The next mutation as wire fields (without ``id``)."""
        if len(self._live) > LIVE_BACKLOG:
            tid = self._live.pop(0)
            return {"mutate": "delete", "tid": tid}
        tid = self._next_tid
        self._next_tid += 1
        uda = self._held[self._count % len(self._held)]
        self._count += 1
        self._live.append(tid)
        self.inserted[tid] = uda
        return {
            "mutate": "insert",
            "tid": tid,
            "items": [int(item) for item in uda.items],
            "probs": [float(prob) for prob in uda.probs],
        }


def poisson_schedule(rate: float, arrivals: int, seed: int) -> np.ndarray:
    """Due times (s from phase start) of a seeded Poisson arrival process."""
    rng = np.random.default_rng(seed * 7919 + 211)
    return np.cumsum(rng.exponential(1.0 / rate, size=arrivals))
