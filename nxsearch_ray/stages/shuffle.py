"""Key-disjoint hash repartitioning — the engine's core exchange.

Ray 2.49's hash-shuffle strategy can repartition a Dataset by key
columns so that EVERY row of a given key lands in exactly one output
block (verified empirically: block key sets are disjoint).  That
property removes the whole block-edge machinery the sort-based plans
need (pending rows, fallback groupby, the materialize that feeds the
done/pending split): a per-block vectorized scan after a local sort
sees every key run in full, so the stage STREAMS — one exchange, no
barrier materialization, no second shuffle for stragglers.

The strategy is scoped to the lineage (not the global DataContext):
``repartition(keys=...)`` reads ``shuffle_strategy`` from the
dataset's captured context at execution time, so we give the derived
dataset a private context copy and flip only that one.  Aggregations
elsewhere keep the default sort-based shuffle (hash-shuffle
aggregations spin up an aggregator actor pool that costs seconds at
small scale).
"""

from __future__ import annotations

import copy


def default_num_partitions() -> int:
    """Half a partition per cluster CPU (min 8): each hash-shuffle
    partition spins up an aggregator actor, and actor start-up is the
    dominant fixed cost of the exchange at small scale (measured:
    8 partitions → 2.3 s, 32 partitions → 6.0 s for the same 26k-page
    candidate+union pass on 32 CPUs); the per-block scans downstream
    are cheap enough that half-width parallelism never binds."""
    return max(2, min(cluster_cpus(), max(8, cluster_cpus() // 2)))


def sized_num_partitions(n_rows: int,
                         rows_per_partition: int = 65536) -> int:
    """Exchange width proportional to the DATA, clamped to
    [8, cluster_cpus() // 2].

    Measured (round 5, 32-cpu session, bucketed verify pair_join):
    at 26k pages 32 partitions ran 24.7 s vs 2.2 s at 8; at 520k
    pages 32 ran 40.1 s vs 6.3 s at 8 — each hash-shuffle partition
    is an aggregator actor whose fixed coordination cost (~2.6 s
    remote wall apiece when ≥32 actors contend on one node) dwarfs
    the per-row work until partitions hold ~64k rows.  The cap keeps
    a single node out of the pathological regime while still letting
    width grow with the data on a real multi-node cluster (where
    cluster_cpus() is hundreds and aggregators spread across
    nodes)."""
    want = max(8, -(-int(n_rows) // rows_per_partition))
    return min(want, max(8, cluster_cpus() // 2))


def cluster_cpus() -> int:
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def stage_num_cpus() -> float:
    """Per-actor CPU demand for stateful stages: 1.0 normally, 0.5 on
    tiny clusters (≤4 CPUs) so a multi-operator streaming DAG (map
    task + shuffle aggregators + actor pool) can co-schedule at all —
    with integral demands a 2-CPU session deadlocks (verify actor
    pending forever behind a running map task + aggregator pool).
    Below 2 CPUs the demand is 0: a long-lived actor holding any
    fraction of the only CPU leaves every 1-CPU task (the read, the
    exchange's map) unschedulable for good."""
    cpus = cluster_cpus()
    if cpus < 2:
        return 0.0
    return 1.0 if cpus > 4 else 0.5


def actor_pool_size(frac: float = 1.0,
                    max_actors: int | None = None) -> tuple[int, int]:
    """(min, max) actor-pool concurrency sized to the cluster.  A high
    minimum pre-warms the pool at execution start instead of letting
    autoscaling ramp 1→N — the ramp is pure fixed cost that shows up
    directly as lost scaling efficiency on short stages."""
    cpus = cluster_cpus()
    hi = max(1, int(cpus * frac))
    if max_actors is not None:
        hi = min(hi, max_actors)
    # modest floor only: a high minimum RESERVES CPUs for the whole
    # execution and starves co-scheduled stages (measured: min=0.75·N
    # regressed the 130k-page run 33 s → 88 s at 32 CPUs)
    lo = max(1, hi // 4)
    return (lo, hi)


def adopt_hash_context(ds):
    """Re-scope ``ds`` so its execution runs under the hash-shuffle
    strategy.  The planner applies ONE DataContext — the top-level
    dataset's — to every operator in the DAG, and ``union`` adopts its
    LEFT operand's context; a union whose right branch contains a
    keyed repartition therefore needs this applied to the union
    result, or planning fails."""
    from ray.data.context import ShuffleStrategy

    try:
        ds._plan._context = copy.deepcopy(ds.context)
    except AttributeError:
        pass
    ds.context.use_push_based_shuffle = False
    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # aggregator actors default to 1 CPU each and the operator waits
    # up to 300 s for the FULL pool before degrading — on a small
    # cluster (num_partitions > CPUs) that is a hard stall.  Fractional
    # CPUs let the whole pool schedule anywhere; the aggregators only
    # concat+emit, so oversubscription is harmless.  On a 1-CPU
    # cluster any fraction starves the 1-CPU map tasks, so they take 0.
    agg_cpus = 0.05 if cluster_cpus() >= 2 else 0.0
    ds.context.hash_shuffle_operator_actor_num_cpus_per_partition_override = agg_cpus
    ds.context.hash_aggregate_operator_actor_num_cpus_per_partition_override = agg_cpus
    ds.context.min_hash_shuffle_aggregator_wait_time_in_s = 10
    return ds


def hash_partitioned(ds, keys, num_partitions: int | None = None):
    """Repartition ``ds`` so each value of ``keys`` occupies exactly
    one block.  Returns the repartitioned (lazy) Dataset whose lineage
    runs under the hash-shuffle strategy; everything derived from it
    inherits the scoped context."""
    n = num_partitions or default_num_partitions()
    return adopt_hash_context(ds.repartition(n, keys=list(keys),
                                             sort=False))
