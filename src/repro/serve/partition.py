"""Vertex-range graph partitioning for sharded serving.

``repro partition`` splits one ``.rgr`` image into per-shard images plus
a manifest, so the scatter/gather router (and later, shard processes) can
serve the graph piecewise:

* **ranges**: shard *i* owns the contiguous vertex range
  ``[boundaries[i], boundaries[i+1])``. Boundaries are degree-balanced —
  chosen so owned-edge counts split as evenly as contiguity allows — not
  naive ``n / shards`` cuts.
* **edge ownership**: edge ``(u, v)`` (stored with ``u < v``) belongs to
  the shard owning ``u``, its minimum endpoint. Ownership is a partition:
  every edge lives in exactly one shard image, so gathered unions need no
  dedup and sharded aggregates sum exactly.
* **shard images** keep **global** vertex ids (``.rgr`` supports isolated
  vertices), so routing needs no id translation — the manifest's ranges
  are the whole routing table.
* each shard gets a ``.tau`` trussness sidecar aligned with its image's
  edge ids, and the manifest counts the **cut edges** — edges whose
  endpoints live in different shards — per shard and in total.

Layout of a partition directory::

    manifest.json          ranges, file names, counts, k_max
    shard-0000.rgr ...     per-shard CSR images (global ids)
    shard-0000.tau ...     per-shard trussness sidecars
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..baselines.inmemory import truss_decomposition
from ..errors import PartitionError
from ..graph.memgraph import Graph
from ..persistence.graph_file import read_rgr, write_rgr

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

_TAU_MAGIC = b"RTAU"
_SIDE_HEADER = struct.Struct("<4sIQ")  # magic, version, row count
_CRC = struct.Struct("<I")


def write_tau_sidecar(path: PathLike, values: np.ndarray) -> int:
    """Write a trussness sidecar; returns bytes written."""
    values = np.asarray(values, dtype="<i8")
    body = _SIDE_HEADER.pack(_TAU_MAGIC, 1, len(values)) + values.tobytes()
    payload = body + _CRC.pack(zlib.crc32(body))
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def read_tau_sidecar(path: PathLike) -> np.ndarray:
    """Read (and CRC-check) a trussness sidecar."""
    with open(path, "rb") as handle:
        payload = handle.read()
    if len(payload) < _SIDE_HEADER.size + _CRC.size:
        raise PartitionError(f"{path}: truncated sidecar")
    body, (crc,) = payload[: -_CRC.size], _CRC.unpack(payload[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise PartitionError(f"{path}: sidecar checksum mismatch")
    found, version, count = _SIDE_HEADER.unpack_from(body)
    if found != _TAU_MAGIC:
        raise PartitionError(f"{path}: bad sidecar magic {found!r}")
    if version != 1:
        raise PartitionError(f"{path}: unsupported sidecar version {version}")
    expected = _SIDE_HEADER.size + 8 * count
    if len(body) != expected:
        raise PartitionError(
            f"{path}: sidecar length {len(body)} != declared {expected}"
        )
    return np.frombuffer(body, dtype="<i8", offset=_SIDE_HEADER.size).astype(np.int64)


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest entry (paths relative to the directory)."""

    shard_id: int
    lo: int             #: owned vertex range [lo, hi)
    hi: int
    image: str          #: .rgr file name
    tau: str            #: trussness sidecar file name
    edges: int          #: owned edges
    cut_edges: int      #: owned edges whose other endpoint lives elsewhere


@dataclass(frozen=True)
class PartitionManifest:
    """The routing table of one partition directory."""

    directory: str
    version: int
    n: int
    m: int
    k_max: int
    boundaries: Tuple[int, ...]   #: len(shards) + 1, [0, ..., n]
    shards: Tuple[ShardInfo, ...]
    cut_edges: int

    def shard_of(self, v: int) -> int:
        """The shard owning vertex *v*."""
        if not 0 <= v < max(self.n, 1):
            raise PartitionError(f"vertex {v} outside [0, {self.n})")
        return bisect_right(self.boundaries, v) - 1

    def shard_path(self, shard: ShardInfo) -> str:
        return os.path.join(self.directory, shard.image)

    def tau_path(self, shard: ShardInfo) -> str:
        return os.path.join(self.directory, shard.tau)

    def load_shard(self, shard: ShardInfo) -> Tuple[Graph, np.ndarray]:
        """Load one shard's image + trussness sidecar (validated)."""
        graph = read_rgr(self.shard_path(shard))
        tau = read_tau_sidecar(self.tau_path(shard))
        if len(tau) != graph.m:
            raise PartitionError(
                f"{shard.image}: sidecar rows {len(tau)} != edges {graph.m}"
            )
        if graph.n != self.n:
            raise PartitionError(
                f"{shard.image}: shard image n={graph.n} != manifest n={self.n}"
            )
        return graph, tau


def partition_boundaries(graph: Graph, shards: int) -> List[int]:
    """Degree-balanced vertex-range boundaries (``shards + 1`` entries).

    Splits the owned-edge mass (edges counted at their min endpoint) into
    near-equal contiguous ranges; ties collapse to at least one vertex
    per shard when the graph allows it.
    """
    if shards < 1:
        raise PartitionError(f"shards must be >= 1, got {shards}")
    n = graph.n
    if shards > max(n, 1):
        raise PartitionError(
            f"cannot cut {n} vertices into {shards} shards"
        )
    if n == 0:
        return [0] * (shards + 1)
    owned = np.bincount(
        graph.edges[:, 0], minlength=n
    ) if graph.m else np.zeros(n, dtype=np.int64)
    mass = np.cumsum(owned)
    total = int(mass[-1]) if len(mass) else 0
    boundaries = [0]
    for i in range(1, shards):
        if total > 0:
            cut = int(np.searchsorted(mass, total * i / shards))
        else:
            cut = (n * i) // shards
        cut = max(cut, boundaries[-1] + 1)       # at least one vertex
        cut = min(cut, n - (shards - i))         # leave room for the rest
        boundaries.append(cut)
    boundaries.append(n)
    return boundaries


def write_partition(
    graph: Graph,
    directory: PathLike,
    shards: int,
    trussness: Optional[np.ndarray] = None,
) -> PartitionManifest:
    """Cut *graph* into *shards* vertex ranges under *directory*.

    Computes the trussness once (when not supplied) and distributes it
    into per-shard sidecars, so the router serves without recomputing.
    Returns the written manifest.
    """
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    if trussness is None:
        trussness = truss_decomposition(graph)
    trussness = np.asarray(trussness, dtype=np.int64)
    if len(trussness) != graph.m:
        raise PartitionError(
            f"trussness length {len(trussness)} != graph edges {graph.m}"
        )
    boundaries = partition_boundaries(graph, shards)
    bounds = np.asarray(boundaries, dtype=np.int64)
    owners = (
        np.searchsorted(bounds, graph.edges[:, 0], side="right") - 1
        if graph.m else np.zeros(0, dtype=np.int64)
    )
    peers = (
        np.searchsorted(bounds, graph.edges[:, 1], side="right") - 1
        if graph.m else np.zeros(0, dtype=np.int64)
    )
    cut_mask = owners != peers

    infos: List[ShardInfo] = []
    for shard_id in range(shards):
        mask = owners == shard_id
        # The masked rows keep the parent's lexicographic order, which is
        # exactly Graph.from_edges's canonical order — so the sidecar
        # values below stay aligned with the shard image's edge ids.
        shard_edges = graph.edges[mask]
        shard_graph = Graph(graph.n, shard_edges)
        image_name = f"shard-{shard_id:04d}.rgr"
        tau_name = f"shard-{shard_id:04d}.tau"
        write_rgr(shard_graph, os.path.join(directory, image_name))
        write_tau_sidecar(
            os.path.join(directory, tau_name), trussness[mask]
        )
        infos.append(ShardInfo(
            shard_id=shard_id,
            lo=boundaries[shard_id],
            hi=boundaries[shard_id + 1],
            image=image_name,
            tau=tau_name,
            edges=int(mask.sum()),
            cut_edges=int((cut_mask & mask).sum()),
        ))

    manifest = PartitionManifest(
        directory=directory,
        version=_MANIFEST_VERSION,
        n=graph.n,
        m=graph.m,
        k_max=int(trussness.max()) if graph.m else 0,
        boundaries=tuple(boundaries),
        shards=tuple(infos),
        cut_edges=int(cut_mask.sum()),
    )
    _write_manifest(manifest)
    return manifest


def _write_manifest(manifest: PartitionManifest) -> None:
    payload: Dict = {
        "version": manifest.version,
        "n": manifest.n,
        "m": manifest.m,
        "k_max": manifest.k_max,
        "boundaries": list(manifest.boundaries),
        "cut_edges": manifest.cut_edges,
        "shards": [
            {
                "id": shard.shard_id,
                "lo": shard.lo,
                "hi": shard.hi,
                "image": shard.image,
                "tau": shard.tau,
                "edges": shard.edges,
                "cut_edges": shard.cut_edges,
            }
            for shard in manifest.shards
        ],
    }
    path = os.path.join(manifest.directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_manifest(path: PathLike) -> PartitionManifest:
    """Load and validate a partition manifest.

    *path* may be the manifest file or its directory. Validation covers
    the routing invariants the router relies on — monotone boundaries
    covering ``[0, n]``, contiguous shard ranges, edge counts summing to
    ``m`` — not the shard payloads (their ``.rgr``/sidecar CRCs are
    checked when loaded). Older manifests also name a cut-edge table
    file; that key is ignored.
    """
    path = str(path)
    if os.path.isdir(path):
        directory, manifest_path = path, os.path.join(path, MANIFEST_NAME)
    else:
        directory, manifest_path = os.path.dirname(path) or ".", path
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise PartitionError(f"{manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PartitionError(
            f"{manifest_path}: not valid JSON ({exc})"
        ) from exc
    if payload.get("version") != _MANIFEST_VERSION:
        raise PartitionError(
            f"{manifest_path}: unsupported manifest version "
            f"{payload.get('version')!r}"
        )
    try:
        boundaries = tuple(int(b) for b in payload["boundaries"])
        shards = tuple(
            ShardInfo(
                shard_id=int(entry["id"]),
                lo=int(entry["lo"]),
                hi=int(entry["hi"]),
                image=str(entry["image"]),
                tau=str(entry["tau"]),
                edges=int(entry["edges"]),
                cut_edges=int(entry["cut_edges"]),
            )
            for entry in payload["shards"]
        )
        manifest = PartitionManifest(
            directory=directory,
            version=int(payload["version"]),
            n=int(payload["n"]),
            m=int(payload["m"]),
            k_max=int(payload["k_max"]),
            boundaries=boundaries,
            shards=shards,
            cut_edges=int(payload["cut_edges"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PartitionError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if not manifest.shards:
        raise PartitionError(f"{manifest_path}: manifest lists no shards")
    if len(boundaries) != len(shards) + 1:
        raise PartitionError(
            f"{manifest_path}: {len(boundaries)} boundaries for "
            f"{len(shards)} shards"
        )
    if boundaries[0] != 0 or boundaries[-1] != manifest.n:
        raise PartitionError(
            f"{manifest_path}: boundaries must span [0, {manifest.n}]"
        )
    if any(b > c for b, c in zip(boundaries, boundaries[1:])):
        raise PartitionError(f"{manifest_path}: boundaries must not decrease")
    for index, shard in enumerate(manifest.shards):
        if shard.shard_id != index:
            raise PartitionError(
                f"{manifest_path}: shard ids must be dense, got "
                f"{shard.shard_id} at {index}"
            )
        if (shard.lo, shard.hi) != (boundaries[index], boundaries[index + 1]):
            raise PartitionError(
                f"{manifest_path}: shard {index} range disagrees with "
                f"boundaries"
            )
    if sum(shard.edges for shard in manifest.shards) != manifest.m:
        raise PartitionError(
            f"{manifest_path}: shard edge counts do not sum to m={manifest.m}"
        )
    return manifest
