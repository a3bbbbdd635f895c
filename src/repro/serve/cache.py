"""LRU prediction/embedding cache keyed by node id, generation-tagged.

Serving traffic is heavily skewed — a Zipf-popular node is requested
over and over — and a node's prediction is a *deterministic* function of
``(weights, topology@generation, seed, node)`` in this runtime (per-node
derived sampling RNG), so caching it is exact, not approximate.  The
cache is a plain ordered-dict LRU with hit/miss/eviction accounting,
read by the serving report through :class:`CacheStats`.

Two kinds of state change can outdate an entry, and they invalidate
differently:

* **weight swaps** (:meth:`EmbeddingCache.bump_weight_tag`): every entry
  dies at once, so the cache just bumps a tag and drops mismatching
  entries lazily on lookup — O(1) per swap instead of O(entries);
* **graph deltas** (:meth:`EmbeddingCache.invalidate`): only nodes whose
  sampled receptive field can contain a mutated vertex are affected, so
  the engine passes that reverse-reachable set and everything else keeps
  its entry.  A ``staleness_budget`` > 0 keeps affected entries servable
  for that many affecting deltas (marked stale, counted separately in
  ``stats.stale_hits``) — the knob for stale-tolerant traffic during an
  update storm.  Budget 0 (default) evicts eagerly, preserving the exact
  bitwise serving contract.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "EmbeddingCache"]


@dataclass
class CacheStats:
    """Lookup accounting over an :class:`EmbeddingCache`'s lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: hits served from an entry marked stale by a graph delta (within budget)
    stale_hits: int = 0
    #: entries dropped by invalidation (scoped, full flush, or a lazy
    #: weight-tag mismatch on lookup) — distinct from capacity evictions
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class EmbeddingCache:
    """Bounded LRU mapping ``node id -> (prediction row, generation tags)``.

    ``capacity`` is the entry budget; ``0`` disables caching entirely
    (every lookup is a miss, nothing is stored), so a workload can run
    with the cache bypassed.  Stored
    rows are copied in and handed out read-only, so a caller mutating
    its result cannot poison later hits.

    Each entry carries the :attr:`weight_tag` it was computed under and a
    stale counter fed by :meth:`invalidate`; see the module docstring for
    the invalidation model.
    """

    def __init__(self, capacity: int, *, staleness_budget: int = 0):
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        staleness_budget = int(staleness_budget)
        if staleness_budget < 0:
            raise ValueError(
                f"staleness_budget must be >= 0, got {staleness_budget}"
            )
        self.capacity = capacity
        self.staleness_budget = staleness_budget
        self.stats = CacheStats()
        #: current weight generation; entries tagged otherwise are dead
        self.weight_tag = 0
        #: graph generation, bumped once per :meth:`invalidate` call
        self.graph_generation = 0
        # node id -> [row, weight_tag, stale_count]
        self._entries: OrderedDict[int, list] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Servability probe without touching recency or the counters.

        True only when a lookup *would* hit: the entry exists, was
        computed under the current weights, and is fresh or within the
        staleness budget.
        """
        entry = self._entries.get(int(key))
        if entry is None:
            return False
        return entry[1] == self.weight_tag and entry[2] <= self.staleness_budget

    def get(self, key) -> np.ndarray | None:
        """The cached row for ``key`` (refreshing recency), else ``None``.

        Entries from an older weight generation or staled past the budget
        are dropped here, lazily — that is what makes weight swaps O(1).
        """
        key = int(key)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry[1] != self.weight_tag or entry[2] > self.staleness_budget:
            del self._entries[key]
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if entry[2]:
            self.stats.stale_hits += 1
        return entry[0]

    def put(self, key, value: np.ndarray) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        key = int(key)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            if entry[1] == self.weight_tag and entry[2] == 0:
                return  # deterministic predictions: the stored row is current
            del self._entries[key]  # replace an outdated row with the fresh one
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        row = np.array(value, copy=True)
        row.setflags(write=False)
        self._entries[key] = [row, self.weight_tag, 0]

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def bump_weight_tag(self) -> None:
        """O(1) full invalidation for a weight-only snapshot swap.

        Entries keep occupying capacity until a lookup or eviction
        reclaims them, but none can be served: :meth:`get` drops
        tag-mismatched entries on contact.
        """
        self.weight_tag += 1

    def invalidate(self, nodes=None) -> int:
        """Graph-delta invalidation; returns how many entries were dropped.

        ``nodes=None`` is a full flush (every entry dropped).  Otherwise
        ``nodes`` is the delta's reverse-reachable set (a set: each id at
        most once); present entries among them age by one affecting
        delta — dropped once past :attr:`staleness_budget`,
        served-but-counted-stale within it.  Nodes outside the set are
        untouched; that scoping is the point.

        The cached keys are matched against ``nodes`` in one vectorised
        membership test, so only present entries are touched, and
        survivors keep their LRU order.
        """
        self.graph_generation += 1
        if nodes is None:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidated += dropped
            return dropped
        keys = np.fromiter(self._entries, dtype=np.int64, count=len(self._entries))
        hits = keys[np.isin(keys, np.asarray(nodes, dtype=np.int64).ravel())]
        dropped = 0
        for key in hits.tolist():
            entry = self._entries[key]
            entry[2] += 1
            if entry[2] > self.staleness_budget:
                del self._entries[key]
                dropped += 1
        self.stats.invalidated += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (the counters keep their history)."""
        self._entries.clear()
