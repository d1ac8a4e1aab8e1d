"""Services layered on the TreeP overlay.

The paper positions TreeP as the P2P substrate of the DGET grid middleware,
providing "resource discovery and load-balancing" (§I) and notes the overlay
"can be easily modified to provide Distributed Hash Table (DHT)
functionality".  This package builds those three consumers:

* :mod:`repro.services.dht` — simple key/value storage with replication,
  keys hashed into the TreeP ID space and resolved by the overlay's own
  lookup (for durable quorum storage see :mod:`repro.storage`).
* :mod:`repro.services.discovery` — attribute-constrained resource
  discovery walking the capacity aggregates of the hierarchy.
* :mod:`repro.services.loadbalance` — capacity-aware task placement using
  the same aggregates.

All three implement the :class:`~repro.cluster.service.Service` lifecycle
protocol; construct them through :class:`repro.cluster.Cluster`
(``with_dht`` / ``with_discovery`` / ``with_loadbalance``).
"""

from repro.services.dht import TreePDht
from repro.services.discovery import ResourceDirectory
from repro.services.loadbalance import LoadBalancer

__all__ = ["LoadBalancer", "ResourceDirectory", "TreePDht"]
