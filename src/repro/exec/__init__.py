"""Multi-query and multi-probe execution engines.

:mod:`repro.exec.batch` amortizes a query workload over per-batch
buffer pools (see ``docs/batch-execution.md``); :mod:`repro.exec.join`
is the block rank-join engine — shared-scan probing and adaptive top-k
thresholds (see ``docs/joins.md``);
:mod:`repro.exec.serving` is the measure/serve protocol split — a
long-lived warm pool with per-request stats-delta I/O attribution
(see ``docs/serving.md``); :mod:`repro.exec.context` is the value that
carries the ambient settings to worker processes.
"""

from repro.exec.batch import (
    BATCH_ENV,
    BatchExecutor,
    batch_override,
    resolve_batch,
)
from repro.exec.join import (
    JOIN_BLOCK_ENV,
    BlockJoinExecutor,
    join_block_override,
    resolve_join_block,
)
from repro.exec.context import ExecContext
from repro.exec.serving import (
    DEFAULT_SERVE_POOL_SIZE,
    DEFAULT_TUPLE_CACHE_ENTRIES,
    MODES,
    GenerationalTupleCache,
    ServedResult,
    ServingExecutor,
)

__all__ = [
    "BATCH_ENV",
    "BatchExecutor",
    "batch_override",
    "resolve_batch",
    "JOIN_BLOCK_ENV",
    "BlockJoinExecutor",
    "join_block_override",
    "resolve_join_block",
    "ExecContext",
    "DEFAULT_SERVE_POOL_SIZE",
    "DEFAULT_TUPLE_CACHE_ENTRIES",
    "GenerationalTupleCache",
    "MODES",
    "ServedResult",
    "ServingExecutor",
]
