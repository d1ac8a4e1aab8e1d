"""Services layered on the TreeP overlay.

The paper positions TreeP as the P2P substrate of the DGET grid middleware,
providing "resource discovery and load-balancing" (§I).  This package holds
the discovery half; load balancing is :class:`repro.compute.JobScheduler`
placement over the same aggregates, and the paper's third consumer, DHT
functionality, is a configuration of :mod:`repro.storage`:

* :mod:`repro.services.discovery` — attribute-constrained resource
  discovery walking the capacity aggregates of the hierarchy.

It implements the :class:`~repro.cluster.service.Service` lifecycle
protocol; construct it through :class:`repro.cluster.Cluster`
(``with_discovery``, or implicitly by ``with_compute``).
"""

from repro.services.discovery import ResourceDirectory

__all__ = ["ResourceDirectory"]
