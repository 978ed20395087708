"""Multi-tenant QoS for the serving layer.

Tenant-tagged arrivals (:class:`TenantMix`), per-tenant sojourn SLOs
with breaker-integrated shedding (:class:`SLOTracker`), and the live
``/metrics`` endpoint (:class:`MetricsEndpoint`).  Weighted-fair
admission and buffer quotas are the serving loop's one
:class:`~repro.serve.admission.AdmissionController`, given one lane per
tenant.  Enabled by ``ServeConfig.tenants``; with it unset the
controller has one lane and every serving run is byte-identical to a
pre-tenancy run.
"""

from repro.serve.tenancy.endpoint import MetricsEndpoint
from repro.serve.tenancy.mix import TenantMix
from repro.serve.tenancy.runtime import TenancyRuntime, format_tenant_report
from repro.serve.tenancy.slo import SLO_COOLDOWN, SLO_TRIP_AFTER, SLOTracker
from repro.serve.tenancy.spec import TenantSpec, make_tenants, validate_tenants

__all__ = [
    "MetricsEndpoint",
    "SLO_COOLDOWN",
    "SLO_TRIP_AFTER",
    "SLOTracker",
    "TenancyRuntime",
    "TenantMix",
    "TenantSpec",
    "format_tenant_report",
    "make_tenants",
    "validate_tenants",
]
