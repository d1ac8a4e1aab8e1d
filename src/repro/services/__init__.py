"""Services layered on the TreeP overlay.

The paper positions TreeP as the P2P substrate of the DGET grid middleware,
providing "resource discovery and load-balancing" (§I).  This package builds
those two consumers (the paper's third, DHT functionality, is a
configuration of :mod:`repro.storage`):

* :mod:`repro.services.discovery` — attribute-constrained resource
  discovery walking the capacity aggregates of the hierarchy.
* :mod:`repro.services.loadbalance` — capacity-aware task placement using
  the same aggregates.

Both implement the :class:`~repro.cluster.service.Service` lifecycle
protocol; construct them through :class:`repro.cluster.Cluster`
(``with_discovery`` / ``with_loadbalance``).
"""

from repro.services.discovery import ResourceDirectory
from repro.services.loadbalance import LoadBalancer

__all__ = ["LoadBalancer", "ResourceDirectory"]
