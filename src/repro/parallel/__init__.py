"""Multi-core execution tier: shared-memory workers, exact merged I/O.

The sharded support scan runs in a process pool over zero-copy
shared-memory CSR views; the parent folds per-worker ledgers back into
its single charged bill by replaying the canonical access sequence (see
:mod:`repro.parallel.ledger` for why the bill is worker-count-invariant).
Activated by ``EngineConfig(workers=...)`` through
``ExecutionContext.parallel_kernels()``; the scan finds the tier through
the ambient :func:`active_executor`.
"""

from .executor import ParallelExecutor, active_executor, executor_scope
from .ledger import LedgerMismatch, WorkerLedger, verify_merged_touches
from .pool import WorkerPool
from .scan import parallel_compute_supports, shard_vertices

__all__ = [
    "ParallelExecutor",
    "active_executor",
    "executor_scope",
    "LedgerMismatch",
    "WorkerLedger",
    "verify_merged_touches",
    "WorkerPool",
    "parallel_compute_supports",
    "shard_vertices",
]
