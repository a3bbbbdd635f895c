"""Streaming graph deltas: append-only fragments layered over a frozen CSR.

Production graphs mutate while a deployment serves them.  This module is
the graph-layer half of that story (ROADMAP item 4): a
:class:`GraphDelta` describes one batch of appended edges (and,
optionally, appended nodes with their features/labels), a
:class:`DeltaFragment` is its normalised CSR-fragment form (new in-edges
grouped by destination row, exactly the orientation
:class:`~repro.graph.csr.CSRGraph` stores), and :class:`LayeredCSR` is a
**view** that overlays one or more fragments on a base CSR — degree and
neighbour lookups merge base and delta slices per node with no rebuild
of the base arrays.

Ordering contract (load-bearing for bitwise parity)
---------------------------------------------------
A node's merged adjacency list is its base CSR slice followed by its
slice from each fragment **in fragment order**; within a fragment, a
row keeps the edge order of the originating :class:`GraphDelta` (stable
grouping by destination).  That merged order *is* the "CSR adjacency
order" of the samplers' RNG draw-order contract
(:mod:`repro.sampling.batch`) once deltas exist, and
:meth:`LayeredCSR.materialize` emits a frozen :class:`CSRGraph` with the
identical per-row order — which is why predictions on a layered view are
bit-identical to a cold engine rebuilt on the materialised merged graph.

Invalidation scope
------------------
:func:`reverse_reachable` is the serving-side invalidation logic; it
lives here because it is pure graph traversal.  It walks edges forward
(source to destination), the opposite of the stored orientation, so the
base layer is read through the base graph's memoised out-edge CSR
(:meth:`CSRGraph.reverse`) and the view's folded delta layer through one
mask pass over its delta edges.  A hop costs the out-degree of its
frontier plus O(num_nodes) of bool-mask work, not a scan of every edge.
The transpose is built lazily, on the first delta a process applies;
workers never call :func:`reverse_reachable`, so they never build it.

The shared-memory transport of fragments lives in
:class:`repro.shm.arena.DeltaLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.graph.csr import CSRGraph, induced_subgraph

__all__ = [
    "GraphDelta",
    "DeltaFragment",
    "LayeredCSR",
    "reverse_reachable",
    "materialize_dataset",
]


def _frozen(arr: np.ndarray, dtype=None) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _group_by_destination(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR-fragment form ``(rows, indptr, indices)`` of an edge list.

    Stable: each of the sorted ``rows`` keeps its edges in the list's own
    order — part of the merged-adjacency ordering contract.
    """
    order = np.argsort(dst, kind="stable")
    rows, counts = np.unique(dst, return_counts=True)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return rows, indptr, src[order]


@dataclass(frozen=True)
class GraphDelta:
    """One batch of appended edges (and optionally nodes).

    ``src``/``dst`` are global endpoint ids of the new edges (an edge
    ``src[i] -> dst[i]`` makes ``src[i]`` an in-neighbour of ``dst[i]``,
    matching the in-edge CSR orientation).  Appended nodes are implicit:
    ``features`` (``(k, f)``) and ``labels`` (``(k,)``) describe ``k``
    new nodes that receive the next ``k`` ids after the current node
    count; edge endpoints may reference them.
    """

    src: np.ndarray
    dst: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def num_new_nodes(self) -> int:
        return 0 if self.features is None else int(np.asarray(self.features).shape[0])


@dataclass(frozen=True)
class DeltaFragment:
    """One :class:`GraphDelta` normalised to an append-only CSR fragment.

    ``rows`` is the sorted set of destination nodes that gained in-edges;
    ``indices[indptr[i]:indptr[i+1]]`` are the new in-neighbours of
    ``rows[i]`` (delta-internal order preserved).  ``features``/``labels``
    carry the appended nodes' data; ``num_nodes_after`` is the total node
    count once this fragment is applied.
    """

    rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_nodes_after: int

    @property
    def num_new_nodes(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_new_edges(self) -> int:
        return int(len(self.indices))

    # ------------------------------------------------------------------
    @classmethod
    def from_delta(
        cls,
        delta: GraphDelta,
        *,
        num_nodes: int,
        feature_dim: int,
        feature_dtype=np.float32,
        label_dtype=np.int64,
    ) -> "DeltaFragment":
        """Validate and normalise ``delta`` against the current node count."""
        src = np.asarray(delta.src, dtype=np.int64).ravel()
        dst = np.asarray(delta.dst, dtype=np.int64).ravel()
        if len(src) != len(dst):
            raise ValueError(
                f"src ({len(src)}) and dst ({len(dst)}) must have equal length"
            )
        if delta.features is not None:
            features = np.ascontiguousarray(delta.features, dtype=feature_dtype)
            if features.ndim != 2 or features.shape[1] != feature_dim:
                raise ValueError(
                    f"new-node features must be (k, {feature_dim}), "
                    f"got {features.shape}"
                )
        else:
            features = np.zeros((0, feature_dim), dtype=feature_dtype)
        k = features.shape[0]
        if delta.labels is not None:
            labels = np.ascontiguousarray(delta.labels, dtype=label_dtype).ravel()
            if len(labels) != k:
                raise ValueError(
                    f"new-node labels ({len(labels)}) must match features ({k})"
                )
        else:
            labels = np.zeros(k, dtype=label_dtype)
        total_after = int(num_nodes) + k
        if len(src) == 0 and k == 0:
            raise ValueError("empty delta: no new edges and no new nodes")
        if len(src) and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= total_after
        ):
            raise ValueError(
                f"delta edge endpoints out of range [0, {total_after})"
            )
        rows, indptr, indices = _group_by_destination(src, dst)
        return cls(
            rows=_frozen(rows),
            indptr=_frozen(indptr),
            indices=_frozen(indices),
            features=_frozen(features),
            labels=_frozen(labels),
            num_nodes_after=total_after,
        )

    # ------------------------------------------------------------------
    # shared-memory transport (see repro.shm.arena.DeltaLog)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The flat array bundle a :class:`~repro.shm.arena.DeltaLog` ships."""
        return {
            "rows": self.rows,
            "indptr": self.indptr,
            "indices": self.indices,
            "features": self.features,
            "labels": self.labels,
            "meta": np.asarray([self.num_nodes_after], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays) -> "DeltaFragment":
        """Rebuild a fragment from :meth:`to_arrays` output (zero-copy views)."""
        return cls(
            rows=arrays["rows"],
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            features=arrays["features"],
            labels=arrays["labels"],
            num_nodes_after=int(arrays["meta"][0]),
        )


class LayeredCSR:
    """Merged-adjacency **view** over a base CSR plus ≥1 delta fragments.

    Implements the :class:`~repro.graph.csr.GraphView` protocol the
    samplers consume — ``num_nodes``/``num_edges``, ``in_degree``,
    ``neighbors``, the vectorised ``gather_neighbors``/``gather_edges``
    and the induced ``subgraph`` — without ever rebuilding the base
    arrays.  Nodes appended by fragments simply extend the id range;
    their base degree is zero.

    Building the view folds the fragments into one delta layer — per
    touched node, its slice of each fragment in fragment order — at the
    cost of one stable grouping of the delta edges; every lookup is
    then a two-layer (base, delta) pass however many fragments exist.
    """

    __slots__ = ("base", "fragments", "num_nodes", "_rows", "_indptr", "_indices")

    def __init__(self, base: CSRGraph, fragments) -> None:
        fragments = list(fragments)
        if not fragments:
            raise ValueError(
                "LayeredCSR needs at least one delta fragment "
                "(use the base CSRGraph directly otherwise)"
            )
        n = base.num_nodes
        for frag in fragments:
            if frag.num_nodes_after < n:
                raise ValueError(
                    f"fragment shrinks the graph ({frag.num_nodes_after} < {n})"
                )
            n = int(frag.num_nodes_after)
        self.base = base
        self.fragments = fragments
        self.num_nodes = n
        rows = np.concatenate([f.rows for f in fragments])
        counts = np.concatenate([np.diff(f.indptr) for f in fragments])
        src = np.concatenate([f.indices for f in fragments])
        self._rows, self._indptr, self._indices = _group_by_destination(src, np.repeat(rows, counts))

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.base.num_edges + len(self._indices)

    @property
    def generation(self) -> int:
        """Graph generation this view serves (== number of fragments)."""
        return len(self.fragments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayeredCSR(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"fragments={len(self.fragments)})"
        )

    # ------------------------------------------------------------------
    def _layer_slices(self, nodes: np.ndarray):
        """Per layer (base, then delta): (starts, degs, source pool)."""
        # appended nodes (past the base id range) have no base slice
        row = np.minimum(nodes, self.base.num_nodes - 1)
        starts = self.base.indptr[row]
        degs = np.where(row == nodes, self.base.indptr[row + 1] - starts, 0)
        yield starts, degs, self.base.indices
        if len(self._rows):
            row = np.minimum(np.searchsorted(self._rows, nodes), len(self._rows) - 1)
            starts = self._indptr[row]
            degs = np.where(self._rows[row] == nodes, self._indptr[row + 1] - starts, 0)
            yield starts, degs, self._indices

    def in_degree(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Merged in-degrees of ``nodes`` (all nodes if ``None``)."""
        if nodes is None:
            full = np.zeros(self.num_nodes, dtype=np.int64)
            full[: self.base.num_nodes] = np.diff(self.base.indptr)
            full[self._rows] += np.diff(self._indptr)
            return full
        nodes = np.asarray(nodes, dtype=np.int64)
        return sum(degs for _, degs, _ in self._layer_slices(nodes))

    def neighbors(self, node: int) -> np.ndarray:
        """Merged in-neighbours of ``node``: base slice, then delta slices."""
        return self.gather_neighbors(np.asarray([node], dtype=np.int64))[0]

    def gather_neighbors(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated **merged** in-neighbour lists for a batch of nodes.

        Same contract as :meth:`CSRGraph.gather_neighbors`, with each
        node's list being its base slice followed by its slice of every
        fragment in fragment order.  Vectorised: one scatter per layer
        (base, delta), no per-node loop.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        layers = list(self._layer_slices(nodes))
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(sum(degs for _, degs, _ in layers), out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=np.int64)
        within = np.zeros(len(nodes), dtype=np.int64)
        for starts, degs, pool in layers:
            t = int(degs.sum())
            if t == 0:
                continue
            lcum = np.zeros(len(nodes) + 1, dtype=np.int64)
            np.cumsum(degs, out=lcum[1:])
            local = np.arange(t, dtype=np.int64) - np.repeat(lcum[:-1], degs)
            src = pool[np.repeat(starts, degs) + local]
            out[np.repeat(offsets[:-1] + within, degs) + local] = src
            within += degs
        return out, offsets

    def gather_edges(self, nodes: np.ndarray, rows: np.ndarray, local: np.ndarray) -> np.ndarray:
        """Sources of chosen in-edges only: for each ``e``, entry
        ``local[e]`` of the **merged** neighbour list of ``nodes[rows[e]]``.

        Same contract as :meth:`CSRGraph.gather_edges`: each layer
        claims the chosen edges whose ``local`` falls inside its slice of
        the merged list, one range test over the chosen edges per layer.
        """
        out = np.empty(len(rows), dtype=np.int64)
        # where this layer's slice begins inside each chosen edge's merged list
        before = np.zeros(len(rows), dtype=np.int64)
        for starts, degs, pool in self._layer_slices(nodes):
            rel = local - before
            width = degs[rows]
            mine = np.flatnonzero((rel >= 0) & (rel < width))
            out[mine] = pool[starts[rows[mine]] + rel[mine]]
            before += width
        return out

    def subgraph(self, nodes: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
        """Node-induced subgraph of the merged view (frozen CSR result).

        Same algorithm and per-row edge order as
        :meth:`CSRGraph.subgraph` run on the materialised merged graph —
        the ShaDow sampler's looped path relies on that equivalence.
        """
        return induced_subgraph(self, nodes)

    # ------------------------------------------------------------------
    def materialize(self) -> CSRGraph:
        """Flatten the overlay into one frozen :class:`CSRGraph`.

        Per-row adjacency order is exactly the view's merged order, so a
        sampler consuming the result draws identical RNG streams and
        picks identical neighbours — the exactness oracle's reference.
        """
        degs = self.in_degree()
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        srcs, _ = self.gather_neighbors(np.arange(self.num_nodes, dtype=np.int64))
        indptr.setflags(write=False)
        srcs.setflags(write=False)
        return CSRGraph.from_trusted_parts(indptr, srcs)


def reverse_reachable(view, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Nodes reachable from ``seeds`` within ``hops`` edge-direction steps.

    One step from node ``u`` reaches every ``v`` that has ``u`` as an
    in-neighbour — i.e. the set of nodes whose sampled ``hops``-layer
    frontier can contain a seed.  This is the serve layer's invalidation
    scope: after a delta mutates the adjacency of ``seeds`` (the new
    edges' destinations), only this set's cached predictions can have
    changed.  Includes the seeds themselves; returns sorted unique
    ``int64`` ids.

    Each hop reads only the frontier's out-edges: in the base layer from
    the memoised out-edge CSR (:meth:`CSRGraph.reverse`, built on the
    first call for a base graph and reused by every later delta), in a
    :class:`LayeredCSR`'s folded delta layer by one mask pass over its
    few delta edges.  The visited set is one ``num_nodes`` bool mask.  A
    hop therefore costs the frontier's out-degree plus O(num_nodes +
    delta edges), paid once per ``apply_delta``, never on the request
    path.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    layered = isinstance(view, LayeredCSR)
    out = (view.base if layered else view).reverse()
    reached = np.zeros(view.num_nodes, dtype=bool)
    reached[np.asarray(seeds, dtype=np.int64)] = True
    front = reached.copy()
    for _ in range(int(hops)):
        frontier = np.flatnonzero(front)
        if len(frontier) == 0:
            break
        grown = reached.copy()
        # appended nodes (past the base id range) have no base out-edges
        base_frontier = frontier[: np.searchsorted(frontier, out.num_nodes)]
        grown[out.indices[out.edge_ids(base_frontier)]] = True
        if layered:
            pos = np.flatnonzero(front[view._indices])
            grown[view._rows[np.searchsorted(view._indptr, pos, side="right") - 1]] = True
        front = grown & ~reached
        reached = grown
    return np.flatnonzero(reached)


def materialize_dataset(dataset, fragments):
    """A frozen :class:`~repro.graph.datasets.GNNDataset` equal to
    ``dataset`` + ``fragments`` — the exactness oracle's cold-start input.

    The merged graph keeps the layered view's per-row adjacency order
    (see :meth:`LayeredCSR.materialize`); features/labels are the base
    matrices with every fragment's appended rows concatenated.  Train/
    val/test splits are unchanged (appended nodes join no split).
    """
    fragments = list(fragments)
    if not fragments:
        return dataset
    graph = LayeredCSR(dataset.graph, fragments).materialize()
    feat_parts = [dataset.features] + [f.features for f in fragments if f.num_new_nodes]
    label_parts = [dataset.labels] + [f.labels for f in fragments if f.num_new_nodes]
    features = feat_parts[0] if len(feat_parts) == 1 else np.concatenate(feat_parts)
    labels = label_parts[0] if len(label_parts) == 1 else np.concatenate(label_parts)
    return replace(dataset, graph=graph, features=features, labels=labels)
