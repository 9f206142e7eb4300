"""`ShardedPolicyStore` — the keyspace split across independent shards.

The paper's HEAT-SINK design is partition-friendly by construction: bins
of size ``b = ε⁻³`` are independent LRU regions, and nothing in the
competitive analysis couples one bin's fate to another's. Production
caches in the same lineage (memcached's client-side sharding, Caffeine's
segmented front-ends) scale the same way: hash the key, route to a
shard, touch nothing else. This module brings that shape to the serving
layer.

A :class:`ShardedPolicyStore` owns ``N`` independent
:class:`~repro.service.store.PolicyStore` shards, each wrapping its own
policy instance over a slice of the total capacity. Routing is
``hash_to_range(splitmix64(key), N)`` — the library's standard mixer, so
the shard of a key is a pure deterministic function, computable by
clients and tests alike via :meth:`shard_of`.

Consistency: GET/PUT/DEL touch exactly one shard and take only that
shard's lock — the single-writer model of :class:`PolicyStore` now holds
*per shard*, and traffic to different shards never contends. STATS /
METRICS / ``verify`` aggregate across shards. Batched ops
(:meth:`get_many` / :meth:`put_many`) group a key vector by shard and
apply each group under one lock acquisition, preserving the vector's
relative order *within* each shard — cross-shard interleaving is
unobservable because shards share no state.

``shards=1`` is the degenerate mode: one shard holding the full
capacity, seeded exactly like an unsharded store, every key routed to
shard 0 — behaviourally identical, access for access, to a plain
:class:`PolicyStore` (differential-tested against the offline simulator
in ``tests/service/test_sharding.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.base import CachePolicy
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.hashing import hash_to_range, splitmix64
from repro.obs.metrics import MetricsRegistry
from repro.rng import derive_seed
from repro.service.metrics import (
    ServiceMetrics,
    add_connection_families,
    add_store_families,
)
from repro.service.store import PolicyStore

__all__ = ["ShardedPolicyStore", "split_capacity"]


def split_capacity(capacity: int, shards: int) -> list[int]:
    """Split ``capacity`` slots across ``shards`` as evenly as possible.

    The first ``capacity % shards`` shards get one extra slot; every
    shard gets at least one. Raises if the split would starve a shard.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if capacity < shards:
        raise ConfigurationError(
            f"capacity {capacity} cannot be split across {shards} shards "
            "(every shard needs at least one slot)"
        )
    base, extra = divmod(capacity, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


class ShardedPolicyStore:
    """Route GET/PUT/DEL across ``N`` independent :class:`PolicyStore` shards.

    Parameters
    ----------
    policies:
        One *online* policy instance per shard. Use :meth:`build` to
        construct the standard configuration (even capacity split,
        per-shard derived seeds).

    Notes
    -----
    The store carries its own :class:`ServiceMetrics` for the counters
    that belong to the server, not to any shard (connections, protocol
    errors, latency histograms); per-shard op/hit/miss counters live in
    the shards and are summed into the merged :meth:`stats` snapshot.
    """

    def __init__(self, policies: Sequence[CachePolicy], *, batch_kernel: bool = True):
        if not policies:
            raise ConfigurationError("ShardedPolicyStore needs at least one policy")
        self.shards = [
            PolicyStore(policy, batch_kernel=batch_kernel) for policy in policies
        ]
        self.num_shards = len(self.shards)
        self.metrics = ServiceMetrics()

    @classmethod
    def build(
        cls,
        policy_name: str,
        capacity: int,
        *,
        shards: int = 1,
        seed: int = 0,
        batch_kernel: bool = True,
    ) -> "ShardedPolicyStore":
        """The standard construction: even capacity split, derived seeds.

        ``shards=1`` seeds the single shard with ``seed`` directly, so it
        is *identical* to an unsharded ``make_policy(name, capacity,
        seed=seed)`` store. ``shards>1`` derives one independent seed per
        shard (``derive_seed(seed, "shard", i)``) so randomized policies
        do not flip correlated coins across shards.
        """
        capacities = split_capacity(capacity, shards)
        policies = []
        for index, shard_capacity in enumerate(capacities):
            shard_seed = seed if shards == 1 else derive_seed(seed, "shard", index)
            try:
                policies.append(make_policy(policy_name, shard_capacity, seed=shard_seed))
            except TypeError:  # deterministic policies take no seed
                policies.append(make_policy(policy_name, shard_capacity))
        return cls(policies, batch_kernel=batch_kernel)

    # -- routing ------------------------------------------------------------
    def shard_of(self, key: int) -> int:
        """The shard index a key routes to (pure, deterministic)."""
        if self.num_shards == 1:
            return 0
        return int(hash_to_range(int(splitmix64(key)), self.num_shards))

    @property
    def capacity(self) -> int:
        return sum(shard.policy.capacity for shard in self.shards)

    # -- single-key operations (touch exactly one shard) --------------------
    async def get(self, key: int) -> tuple[bool, Any]:
        return await self.shards[self.shard_of(key)].get(key)

    async def put(self, key: int, value: Any) -> bool:
        return await self.shards[self.shard_of(key)].put(key, value)

    async def delete(self, key: int) -> bool:
        return await self.shards[self.shard_of(key)].delete(key)

    async def peek(self, key: int) -> tuple[bool, Any, bool]:
        """Non-mutating residency probe against the owning shard."""
        return await self.shards[self.shard_of(key)].peek(key)

    async def keys(self) -> list[int]:
        """The sorted resident key set across every shard."""
        merged: list[int] = []
        for shard in self.shards:
            merged.extend(await shard.keys())
        return sorted(merged)

    # -- batched operations (shard-grouped execution) ------------------------
    async def get_many(self, keys: Sequence[int]) -> list[tuple[bool, Any]]:
        """Batched GET: group by shard, one lock acquisition per group.

        Results come back in the order of ``keys``. Within each shard the
        group preserves the vector's relative order, so per-shard access
        sequences — the only sequences a policy can observe — match what
        single GETs in vector order would have produced.
        """
        if self.num_shards == 1:
            return await self.shards[0].get_many(keys)
        groups: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self.shard_of(key), []).append(index)
        out: list[tuple[bool, Any]] = [None] * len(keys)  # type: ignore[list-item]
        for shard_id in sorted(groups):
            indices = groups[shard_id]
            results = await self.shards[shard_id].get_many([keys[i] for i in indices])
            for index, result in zip(indices, results):
                out[index] = result
        return out

    async def put_many(self, keys: Sequence[int], values: Sequence[Any]) -> list[bool]:
        """Batched PUT with the same grouping contract as :meth:`get_many`."""
        if self.num_shards == 1:
            return await self.shards[0].put_many(keys, values)
        groups: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self.shard_of(key), []).append(index)
        out: list[bool] = [False] * len(keys)
        for shard_id in sorted(groups):
            indices = groups[shard_id]
            hits = await self.shards[shard_id].put_many(
                [keys[i] for i in indices], [values[i] for i in indices]
            )
            for index, hit in zip(indices, hits):
                out[index] = hit
        return out

    # -- aggregation ---------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """Merged snapshot: shard-op sums + server-level counters.

        Connection, error, and latency fields come from the store's own
        metrics (the server records into them); per-shard op counters are
        summed, and a ``per_shard`` section carries each shard's gauges.
        """
        snap = self.metrics.snapshot()
        totals = dict.fromkeys(
            ("gets", "puts", "dels", "hits", "misses", "kernel_batches"), 0
        )
        per_shard: list[dict[str, Any]] = []
        resident = 0
        shard_errors = 0
        occupancies: list[float] = []
        for index, shard in enumerate(self.shards):
            shard_snap = await shard.stats()
            for field in totals:
                totals[field] += shard_snap[field]
            shard_errors += shard_snap["errors"]
            resident += shard_snap["resident"]
            entry = {
                "shard": index,
                "capacity": shard_snap["capacity"],
                "resident": shard_snap["resident"],
                "hits": shard_snap["hits"],
                "misses": shard_snap["misses"],
                "evictions": shard_snap["evictions"],
            }
            if "sink_occupancy" in shard_snap:
                entry["sink_occupancy"] = shard_snap["sink_occupancy"]
                occupancies.append(shard_snap["sink_occupancy"])
            per_shard.append(entry)
        snap.update(totals)
        accesses = totals["hits"] + totals["misses"]
        snap["accesses"] = accesses
        snap["hit_rate"] = totals["hits"] / accesses if accesses else 0.0
        snap["errors"] += shard_errors
        snap["policy"] = self.shards[0].policy.name
        snap["capacity"] = self.capacity
        snap["resident"] = resident
        snap["evictions"] = totals["misses"] - resident
        snap["shards"] = self.num_shards
        snap["per_shard"] = per_shard
        if len(occupancies) == self.num_shards and occupancies:
            snap["sink_occupancy"] = sum(occupancies) / len(occupancies)
        return snap

    async def verify(self) -> list[str]:
        """Aggregate invariant check; [] means every shard is consistent.

        Beyond each shard's own :meth:`PolicyStore.verify`, this checks
        the routing invariant — every key resident in shard ``i`` must
        hash to shard ``i`` — and the store-level connection accounting.
        """
        problems: list[str] = []
        for index, shard in enumerate(self.shards):
            problems.extend(f"shard {index}: {p}" for p in await shard.verify())
            for key in shard.policy.contents():
                if self.shard_of(key) != index:
                    problems.append(
                        f"shard {index}: resident key {key} routes to shard {self.shard_of(key)}"
                    )
        m = self.metrics
        if m.connections_closed > m.connections_opened:
            problems.append(
                f"connections_closed {m.connections_closed} > opened {m.connections_opened}"
            )
        return problems

    async def metrics_registry(self) -> MetricsRegistry:
        """Exposition registry for one scrape: merged counters + per-shard gauges."""
        merged = ServiceMetrics()  # the store counters, summed over shards
        for shard in self.shards:
            merged.gets += shard.metrics.gets
            merged.puts += shard.metrics.puts
            merged.dels += shard.metrics.dels
            merged.hits += shard.metrics.hits
            merged.misses += shard.metrics.misses
            merged.kernel_batches += shard.metrics.kernel_batches
        reg = MetricsRegistry()
        add_connection_families(
            reg,
            self.metrics,
            errors=self.metrics.errors + sum(s.metrics.errors for s in self.shards),
        )
        add_store_families(reg, merged)
        resident = sum(len(shard.policy) for shard in self.shards)
        reg.gauge("repro_resident_pages").set(float(resident))
        reg.gauge("repro_capacity_slots").set(float(self.capacity))
        reg.gauge("repro_shards").set(float(self.num_shards))
        reg.counter("repro_evictions_total").inc(float(merged.misses - resident))
        reg.gauge(
            "repro_cache_info",
            "wrapped policy identity (value is always 1)",
            labels={"policy": self.shards[0].policy.name},
        ).set(1)
        for index, shard in enumerate(self.shards):
            labels = {"shard": str(index)}
            reg.gauge(
                "repro_shard_resident_pages", "resident pages, by shard", labels=labels
            ).set(float(len(shard.policy)))
            reg.gauge(
                "repro_shard_capacity_slots", "capacity slots, by shard", labels=labels
            ).set(float(shard.policy.capacity))
            occupancy = getattr(shard.policy, "sink_occupancy", None)
            if callable(occupancy):
                reg.gauge(
                    "repro_shard_sink_occupancy_ratio",
                    "fraction of heat-sink slots occupied, by shard",
                    labels=labels,
                ).set(float(occupancy()))
        return reg

    async def metrics_text(self) -> str:
        """Prometheus text exposition (the ``METRICS`` op / HTTP endpoint body)."""
        return (await self.metrics_registry()).render()
