"""Shared-memory graph store for the ``process`` execution backend.

ARGO's worker processes (paper Sec. IV-B) never copy the graph: DGL keeps
the CSR structure and node features in shared memory and every training
process maps them.  :class:`SharedGraphStore` reproduces that mechanism
as a thin specialisation of the generic :class:`repro.shm.arena.ShmArena`
— the parent *creates* one segment per array (CSR ``indptr``/``indices``,
node features, labels), workers *attach* by name and reconstruct
zero-copy, read-only numpy views, the same ``writeable=False`` convention
:class:`repro.graph.csr.CSRGraph` already enforces in-process.

Streaming deltas
----------------
The base arrays stay frozen forever; topology changes ride an
append-only :class:`~repro.shm.arena.DeltaLog` of CSR fragments
(:class:`~repro.graph.delta.DeltaFragment`).  The owning process
publishes fragments with :meth:`apply_delta`/:meth:`append_fragment`;
workers call :meth:`sync_deltas` with the published spec list, or with
just its newest entries, and map only the fragments they have not seen.
:attr:`graph` then returns a
:class:`~repro.graph.delta.LayeredCSR` view merging base + fragments —
same :class:`~repro.graph.csr.GraphView` protocol, no rebuild.
:attr:`graph_generation` counts applied fragments and is the value the
serving layer's cache tags and plan guards key on.

Lifecycle contract
------------------
* The creating process owns the segments: it must call :meth:`unlink`
  (or use the store as a context manager) when training is done.  Tests
  assert no segments leak; ``close``/``unlink`` are idempotent and safe
  under double-call and GC-after-unlink (see the arena layer).  Delta
  fragments are owned by whichever process appended them and retire with
  the store's own ``unlink``.
* Attached stores only :meth:`close` their local mappings — never
  unlink.  The resource-tracker daemon is shared across the process tree
  (fd inherited under fork *and* spawn on POSIX), so a worker attaching
  and exiting neither leaks nor reaps the creator's segments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.shm.arena import DeltaLog, SharedArraySpec, ShmArena

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.datasets import GNNDataset

__all__ = ["SharedArraySpec", "SharedGraphStore"]


class SharedGraphStore(ShmArena):
    """CSR graph + feature/label matrices backed by shared memory.

    Build with :meth:`create` (or :meth:`from_dataset`) in the parent,
    ship ``store.spec`` (a small picklable dict) to workers, and
    :meth:`attach` there.  ``graph``/``features``/``labels`` are zero-copy
    views in both roles.
    """

    #: array keys a full training store carries
    KEYS = ("indptr", "indices", "features", "labels")

    #: non-array spec key carrying the delta-fragment spec list
    DELTA_KEY = "deltas"

    def __init__(self, segments, specs, *, owner: bool):
        super().__init__(segments, specs, owner=owner)
        self._deltas = DeltaLog()
        self._frag_views: list[DeltaFragment] = []

    @classmethod
    def from_dataset(cls, dataset: "GNNDataset") -> "SharedGraphStore":
        """Share a dataset's training substrate: CSR arrays, features, labels."""
        return cls.create(
            {
                "indptr": dataset.graph.indptr,
                "indices": dataset.graph.indices,
                "features": dataset.features,
                "labels": dataset.labels,
            }
        )

    # ------------------------------------------------------------------
    # spec transport: base arrays + delta-fragment list
    # ------------------------------------------------------------------
    @property
    def spec(self) -> dict:
        """Picklable descriptor including any published delta fragments."""
        spec = super().spec
        if len(self._deltas):
            spec[self.DELTA_KEY] = self._deltas.specs
        return spec

    @classmethod
    def attach(cls, spec: dict) -> "SharedGraphStore":
        """Map the base segments, then any delta fragments (worker role)."""
        spec = dict(spec)
        delta_specs = spec.pop(cls.DELTA_KEY, [])
        store = super().attach(spec)
        if delta_specs:
            store.sync_deltas(delta_specs)
        return store

    # ------------------------------------------------------------------
    # streaming deltas
    # ------------------------------------------------------------------
    @property
    def graph_generation(self) -> int:
        """Number of delta fragments applied to the base graph."""
        return len(self._frag_views)

    @property
    def delta_specs(self) -> list[dict]:
        """Published fragment specs — ship these for workers to sync."""
        return self._deltas.specs

    def apply_delta(self, delta: GraphDelta) -> DeltaFragment:
        """Validate, normalise and publish one delta (owner-side API).

        Returns the published fragment (arena-backed views).  Workers see
        it after :meth:`sync_deltas` with the updated :attr:`delta_specs`.
        """
        frag = DeltaFragment.from_delta(
            delta,
            num_nodes=self.total_nodes,
            feature_dim=int(self.array("features").shape[1]),
            feature_dtype=self.array("features").dtype,
            label_dtype=self.array("labels").dtype,
        )
        return self.append_fragment(frag)

    def append_fragment(self, frag: DeltaFragment) -> DeltaFragment:
        """Publish an already-normalised fragment into shared memory."""
        if frag.num_nodes_after < self.total_nodes:
            raise ValueError(
                f"fragment shrinks the graph ({frag.num_nodes_after} < "
                f"{self.total_nodes})"
            )
        self._deltas.append(frag.to_arrays())
        view = DeltaFragment.from_arrays(self._deltas.arrays(len(self._deltas) - 1))
        self._frag_views.append(view)
        return view

    def sync_deltas(self, specs: list[dict], first: int = 0) -> int:
        """Attach fragments published since the last sync (worker role).

        ``specs[i]`` describes fragment ``first + i`` (see
        :meth:`~repro.shm.arena.DeltaLog.sync`).
        """
        new = self._deltas.sync(specs, first)
        for i in range(len(self._frag_views), len(self._deltas)):
            self._frag_views.append(DeltaFragment.from_arrays(self._deltas.arrays(i)))
        return new

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph | LayeredCSR:
        """Zero-copy graph view: frozen CSR, or layered once deltas exist."""
        base = CSRGraph.from_trusted_parts(self.array("indptr"), self.array("indices"))
        if not self._frag_views:
            return base
        return LayeredCSR(base, list(self._frag_views))

    @property
    def total_nodes(self) -> int:
        """Node count including delta-appended nodes."""
        if self._frag_views:
            return int(self._frag_views[-1].num_nodes_after)
        return len(self.array("indptr")) - 1

    @property
    def features(self) -> "np.ndarray":
        return self.array("features")

    @property
    def labels(self) -> "np.ndarray":
        return self.array("labels")

    def full_features(self) -> "np.ndarray":
        """Feature matrix covering delta-appended nodes too.

        Zero-copy when no fragment added nodes; otherwise a concatenated
        copy (rebuilt per call — callers cache per graph generation).
        """
        parts = [f.features for f in self._frag_views if f.num_new_nodes]
        if not parts:
            return self.array("features")
        return np.concatenate([self.array("features"), *parts])

    def full_labels(self) -> "np.ndarray":
        """Label vector covering delta-appended nodes too (see above)."""
        parts = [f.labels for f in self._frag_views if f.num_new_nodes]
        if not parts:
            return self.array("labels")
        return np.concatenate([self.array("labels"), *parts])

    # ------------------------------------------------------------------
    # lifecycle: delta fragments ride the base store's close/unlink
    # ------------------------------------------------------------------
    def _on_close(self) -> None:
        super()._on_close()
        self._frag_views = []
        self._deltas.close()

    def _on_unlink(self) -> None:
        super()._on_unlink()
        self._deltas.unlink()
