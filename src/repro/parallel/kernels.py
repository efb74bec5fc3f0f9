"""Worker-side compute kernels (run inside pool processes).

Each kernel receives attached shared-memory views of a graph image plus a
shard description, computes *values only*, and returns a
:class:`~repro.parallel.ledger.WorkerLedger` claiming the block touches
its shard's canonical access sequence spans. Workers never charge the
parent's buffer pool — the bill is produced by the parent's ledger-merge
replay (see :mod:`repro.parallel.scan`), which re-issues the identical
touch sequence through the one shared cache. The claims here exist as a
cross-check: merged touch counts must equal the replayed tally exactly.

Two support-scan kernels:

* ``dense`` — a float32 adjacency-matrix row-block matmul:
  ``P = A[rows] @ A.T`` gives ``P[u, v] = |N(u) ∩ N(v)|`` for the whole
  shard in one BLAS call. 0/1 entries summed over ``n <= 2**24`` terms are
  exact in float32. Used when the parent published a dense image.
* ``marker`` — the serial scan's marker-array intersection, restricted to
  the shard's vertex range. Fallback when ``4 * n**2`` exceeds the dense
  memory budget.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..storage.device import count_block_touches
from .ledger import WorkerLedger

_ITEMSIZE = 8  # all graph/support arrays are int64

#: Row-block height for the dense matmul (bounds the P panel to ~1 MB).
_DENSE_ROW_BLOCK = 256


def _scan_touch_claims(
    offsets: np.ndarray,
    adj: np.ndarray,
    adj_eids: np.ndarray,
    lo: int,
    hi: int,
    block_size: int,
) -> Dict[str, int]:
    """Block touches the serial scan issues for vertices ``[lo, hi)``.

    Per vertex ``u`` with ``d(u) > 0`` the serial scan touches ``N(u)`` in
    the adjacency extent and in the edge-id extent; per forward neighbour
    ``v`` it touches ``N(v)`` in the adjacency extent; per forward edge it
    touches the 8-byte support slot.
    """
    degrees = np.diff(offsets[lo : hi + 1])
    starts = offsets[lo:hi][degrees > 0]
    lengths = degrees[degrees > 0]
    self_touches = count_block_touches(
        starts * _ITEMSIZE, lengths * _ITEMSIZE, block_size
    )
    seg = slice(int(offsets[lo]), int(offsets[hi]))
    rows = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees)
    forward = adj[seg] > rows
    forward_vs = adj[seg][forward]
    forward_touches = count_block_touches(
        offsets[forward_vs] * _ITEMSIZE,
        (offsets[forward_vs + 1] - offsets[forward_vs]) * _ITEMSIZE,
        block_size,
    )
    support_touches = count_block_touches(
        adj_eids[seg][forward] * _ITEMSIZE, _ITEMSIZE, block_size
    )
    return {
        "adj": self_touches + forward_touches,
        "adjeids": self_touches,
        "sup": support_touches,
    }


def scan_shard(
    views: Dict[str, np.ndarray],
    out_values: np.ndarray,
    lo: int,
    hi: int,
    block_size: int,
    worker_id: int,
    memory=None,
) -> WorkerLedger:
    """Compute supports of every forward edge owned by vertices ``[lo, hi)``.

    Values land in the shared *out_values* array (each edge id is written
    by exactly one shard: the one owning its lower endpoint).
    """
    offsets = views["offsets"]
    adj = views["adj"]
    adj_eids = views["adj_eids"]
    dense = views.get("dense")
    if memory is not None:
        # Worker-private scratch, outside the model bill (docs/io_model.md):
        # metered per worker for observability only.
        memory.charge(
            f"worker{worker_id}.scratch",
            dense[lo:hi].nbytes if dense is not None else 8 * len(offsets),
        )
    try:
        if dense is not None:
            _scan_shard_dense(offsets, adj, adj_eids, dense, out_values, lo, hi)
        else:
            _scan_shard_marker(offsets, adj, adj_eids, out_values, lo, hi)
    finally:
        if memory is not None:
            memory.release(f"worker{worker_id}.scratch")
    claims = _scan_touch_claims(offsets, adj, adj_eids, lo, hi, block_size)
    return WorkerLedger(worker_id=worker_id, shard=(lo, hi), touch_claims=claims)


def _scan_shard_dense(offsets, adj, adj_eids, dense, out_values, lo, hi) -> None:
    for row_lo in range(lo, hi, _DENSE_ROW_BLOCK):
        row_hi = min(row_lo + _DENSE_ROW_BLOCK, hi)
        panel = dense[row_lo:row_hi] @ dense.T  # P[u - row_lo, v] = |N(u) ∩ N(v)|
        seg = slice(int(offsets[row_lo]), int(offsets[row_hi]))
        nbrs = adj[seg]
        eids = adj_eids[seg]
        rows = np.repeat(
            np.arange(row_lo, row_hi, dtype=np.int64),
            np.diff(offsets[row_lo : row_hi + 1]),
        )
        forward = nbrs > rows
        out_values[eids[forward]] = panel[
            rows[forward] - row_lo, nbrs[forward]
        ].astype(np.int64)


def _scan_shard_marker(offsets, adj, adj_eids, out_values, lo, hi) -> None:
    n = len(offsets) - 1
    marker = np.full(n, -1, dtype=np.int64)
    for u in range(lo, hi):
        start, stop = int(offsets[u]), int(offsets[u + 1])
        if start == stop:
            continue
        nbrs = adj[start:stop]
        marker[nbrs] = u
        forward = nbrs > u
        if not forward.any():
            continue
        forward_vs = nbrs[forward]
        counts = offsets[forward_vs + 1] - offsets[forward_vs]
        bounds = np.zeros(len(forward_vs) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        cat = np.empty(int(bounds[-1]), dtype=adj.dtype)
        for position, v in enumerate(forward_vs.tolist()):
            cat[bounds[position] : bounds[position + 1]] = adj[
                offsets[v] : offsets[v + 1]
            ]
        values = np.add.reduceat(marker[cat] == u, bounds[:-1], dtype=np.int64)
        out_values[adj_eids[start:stop][forward]] = values
