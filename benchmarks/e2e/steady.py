"""What keeps the timings steady on a noisy two-core box.

Measured on this box (README, "Steadiness"): each virtual CPU slows by
1.4x-2.5x for episodes of one to ten seconds, independently of the
other, and the calm speed of both drifts by tens of percent over
minutes.  A pooled median over a fifteen-second window then moves by
30 % between identical runs.  Three things bring that under 10 %:

**Pinning.**  The server child runs on one CPU, the load generator on
another (:func:`cpu_plan`), so the CPU whose speed matters is known.

**Best of the passes.**  A pass sends the same requests at the same
places every time, so every request -- and every stretch of a pass --
is measured once per pass.  Noise only ever adds time, so the smallest
of a request's samples is the one least disturbed
(:func:`best_of`, :func:`paired_rate`); percentiles are then taken over
the distinct requests, not over disturbed and undisturbed samples mixed.

**Reference speed.**  Between passes the generator runs a fixed piece of
bench-owned work (:class:`Reference`: dict-probe scoring, sort, JSON,
CRC and ``struct`` page parsing, small numpy reductions -- the mix the
index runs) on the server's CPU.  Timings are scaled by
``NOMINAL_MS / fastest reference run`` and so read "at the speed of a
box whose reference run takes ``NOMINAL_MS``".  The reference is frozen
with the benchmark and shares no code with ``src/``, so no change to the
program can move it.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import time
import zlib

import numpy as np

#: Fastest reference run on this box when calm, ms.  Scaled timings are
#: quoted at this speed; on this box they equal the raw ones when calm.
NOMINAL_MS = 4.6

#: Reference runs per sample (after one unmeasured run that refills the
#: cache on the CPU just switched to).
RUNS_PER_SAMPLE = 3

#: Queries of a pass per stretch whose duration is paired across passes.
STRETCH = 16


def cpu_plan() -> tuple[int, int]:
    """``(generator_cpu, server_cpu)``: the first and last CPU allowed."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


class Reference:
    """A fixed piece of work whose run time tells how fast a CPU is now."""

    def __init__(self, generator_cpu: int, server_cpu: int) -> None:
        self.generator_cpu = generator_cpu
        self.server_cpu = server_cpu
        rng = np.random.default_rng(12345)
        self._tuples = {}
        for tid in range(3000):
            nnz = int(rng.integers(2, 9))
            items = np.sort(rng.choice(64, size=nnz, replace=False))
            probs = rng.random(nnz)
            probs /= probs.sum()
            self._tuples[tid] = dict(zip(items.tolist(), probs.tolist()))
        self._queries = [self._tuples[int(tid)] for tid in rng.integers(0, 3000, size=4)]
        self._candidates = [rng.permutation(3000)[:700].tolist() for _ in self._queries]
        self._pages = [
            rng.integers(0, 256, size=8192, dtype=np.uint8).tobytes() for _ in range(64)
        ]
        self._dense = rng.random((400, 64))
        #: Every run so far, ms, in order.
        self.runs_ms: list[float] = []

    def _run(self) -> float:
        started = time.perf_counter()
        total = 0.0
        tuples = self._tuples
        for query, candidates in zip(self._queries, self._candidates):
            scored = []
            for tid in candidates:
                other = tuples[tid]
                score = 0.0
                for item, prob in query.items():
                    match = other.get(item)
                    if match is not None:
                        score += prob * match
                if score > 0.01:
                    scored.append((tid, score))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            total += len(json.dumps(scored[:200]))
        for page in self._pages:
            total += zlib.crc32(page) & 1
            for offset in range(0, 1440, 12):
                tid, _ = struct.unpack_from("<qf", page, offset)
                total += tid & 1
        first = self._dense[0]
        for row in self._dense:
            total += float(np.abs(row - first).sum())
        self._sink = total
        return (time.perf_counter() - started) * 1e3

    def sample(self, both: bool = False) -> None:
        """Time the reference on the server's CPU (``both``: the generator's too).

        The calling thread moves to the CPU for the runs and back; the
        first run there refills the cache and is not recorded.
        """
        home = os.sched_getaffinity(0)
        cpus = {self.server_cpu, self.generator_cpu} if both else {self.server_cpu}
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self._run()
                self.runs_ms.extend(self._run() for _ in range(RUNS_PER_SAMPLE))
        finally:
            os.sched_setaffinity(0, home)

    @contextlib.contextmanager
    def bracket(self):
        """Sample both CPUs before and after a block that uses both.

        Yields a dict that holds ``slowdown`` once the block has ended.
        """
        mark = len(self.runs_ms)
        self.sample(both=True)
        outcome: dict = {}
        try:
            yield outcome
        finally:
            self.sample(both=True)
            outcome["slowdown"] = self.slowdown_since(mark)

    def slowdown_since(self, mark: int) -> float:
        """The fastest run since ``len(runs_ms)`` was ``mark``, over nominal.

        Above 1 while the box is slower than nominal: a duration divided
        by this, or a rate multiplied by it, is quoted at nominal speed.
        """
        return min(self.runs_ms[mark:]) / NOMINAL_MS


def best_of(samples) -> dict:
    """``{key: smallest value}`` of ``(key, value)`` pairs."""
    best: dict = {}
    for key, value in samples:
        if key not in best or value < best[key]:
            best[key] = value
    return best


def percentile(values, q: float) -> float:
    return float(np.percentile(np.fromiter(values, dtype=float), q))


def stretch_durations(pass_result) -> list[float]:
    """Seconds each stretch of ``STRETCH`` queries of one pass took.

    A stretch runs from the send of its first query to the send of the
    next stretch's first (the last, to the end of the pass), so the
    stretches of a pass add up to the pass and hold whatever writes were
    pinned between their queries.
    """
    sends = sorted(s.sent for s in pass_result.samples if s.op == "query")
    edges = [pass_result.started, *sends[STRETCH::STRETCH], pass_result.ended]
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


def paired_rate(passes) -> float:
    """Operations per second of a pass built from each stretch's best run."""
    durations = [stretch_durations(p) for p in passes]
    best = [min(column) for column in zip(*durations)]
    return len(passes[0].samples) / sum(best)
