"""repro.serve — online ingestion & serving on top of the WORMS pipeline.

The batch layers answer "given all messages up front, what is the best
root-to-leaf schedule?".  This package turns that machinery into a
service: messages arrive over time (:mod:`~repro.serve.arrivals`), are
routed to sharded B^ε-trees (:mod:`~repro.serve.router`), held at the
door under backpressure (:mod:`~repro.serve.admission`), re-planned in
epochs with the paper pipeline (:mod:`~repro.serve.planner`), and
metered per-message (:mod:`~repro.serve.metrics`) — all driven by the
deterministic, journal-capable :class:`~repro.serve.loop.ServiceLoop`,
which supervises every run: per-shard health tracking, circuit breakers,
and live restart-from-journal, built from the policy pieces in
:mod:`~repro.serve.supervisor` and free until a breaker trips.
:mod:`~repro.serve.procpool` runs the same loop over shard-per-process
workers with real SIGKILL recovery.
:mod:`~repro.serve.tenancy` adds multi-tenant QoS — tenant-tagged
arrivals, weighted-fair admission, per-tenant sojourn SLOs with
breaker-integrated shedding, buffer quotas, and a live ``/metrics``
endpoint — enabled by ``ServeConfig.tenants`` and byte-invisible when
disabled.
"""

from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.arrivals import (
    ArrivalProcess,
    ClosedLoopArrivals,
    KeySampler,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serve.loop import (
    SERVE_POLICY,
    ServeConfig,
    ServeRecoveryReport,
    ServeReport,
    ServiceLoop,
    recover_serve,
)
from repro.serve.metrics import (
    LatencyStats,
    ServeMetrics,
    format_serve_report,
)
from repro.serve.planner import (
    EpochPlanner,
    PlannerStats,
    plan_flushes,
)
from repro.serve.procpool import ProcPoolLoop
from repro.serve.router import (
    ShardEngine,
    ShardRouter,
    ShardSpec,
    ShardStats,
)
from repro.serve.supervisor import (
    CircuitBreaker,
    DEGRADED,
    HEALTHY,
    Heartbeat,
    QUARANTINED,
    RECOVERING,
    SupervisorConfig,
    SupervisorStats,
    rebuild_shard_state,
)
from repro.serve.tenancy import (
    MetricsEndpoint,
    SLOTracker,
    TenancyRuntime,
    TenantMix,
    TenantSpec,
    format_tenant_report,
    make_tenants,
)

__all__ = [
    "MetricsEndpoint",
    "SLOTracker",
    "TenancyRuntime",
    "TenantMix",
    "TenantSpec",
    "format_tenant_report",
    "make_tenants",
    "AdmissionController",
    "AdmissionStats",
    "ArrivalProcess",
    "ClosedLoopArrivals",
    "EpochPlanner",
    "KeySampler",
    "LatencyStats",
    "MMPPArrivals",
    "PlannerStats",
    "PoissonArrivals",
    "ProcPoolLoop",
    "SERVE_POLICY",
    "ServeConfig",
    "ServeMetrics",
    "ServeRecoveryReport",
    "ServeReport",
    "ServiceLoop",
    "ShardEngine",
    "ShardRouter",
    "ShardSpec",
    "ShardStats",
    "SupervisorConfig",
    "SupervisorStats",
    "CircuitBreaker",
    "Heartbeat",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RECOVERING",
    "TraceArrivals",
    "format_serve_report",
    "plan_flushes",
    "rebuild_shard_state",
    "recover_serve",
]
