"""Sharded serving stack: partitioned PLDS + ghost replication.

- :class:`~repro.shard.partition.Partitioner` — hash / degree-balanced
  vertex ownership;
- :class:`~repro.shard.kernel.ShardKernel` — shard-local PLDS cascade
  kernel with ghost-level replicas;
- :class:`~repro.shard.coordinator.Coordinator` — the registry-facing
  engine (``plds-sharded``): edge routing with shard-level fault
  isolation, the ghost directory, message-round cascades, coordinated
  rebuilds, gathered queries and read epochs.

See ``docs/architecture.md`` (sharding section) for the design and
``docs/cost_model.md`` for the ghost-exchange depth accounting.
"""

from .coordinator import Coordinator
from .kernel import ShardKernel
from .partition import Partitioner

__all__ = ["Coordinator", "Partitioner", "ShardKernel"]
