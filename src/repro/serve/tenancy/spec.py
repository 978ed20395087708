"""Tenant specifications: the journaled identity of a multi-tenant run.

A :class:`TenantSpec` describes one tenant sharing the serving fleet:
its arrival process (kind, rate, message budget, key skew), its
weighted-fair share of admission bandwidth, its sojourn SLO, and its
buffer quota (the Marchal/Sinnen/Vivien memory bound: how many of the
tenant's messages may sit buffered in a shard's internal nodes at once).

The tuple of specs rides in ``ServeConfig.tenants`` and therefore in the
journal ``meta`` payload, so a recovered run rebuilds the identical
tenant mix.  With ``tenants=None`` (the default) the key is omitted from
the meta entirely and every byte of a run is identical to a
pre-tenancy run — the byte-equivalence contract the parity tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

from repro.util.errors import InvalidInstanceError

#: arrival kinds a tenant may use (``trace`` is whole-run only).
TENANT_ARRIVALS = ("poisson", "mmpp", "closed")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of a serving run (JSON-round-trippable).

    Attributes
    ----------
    name:
        Stable tenant identifier (reports, journal meta, CLI tables).
    weight:
        Deficit-round-robin admission weight.  Tenants drain from their
        per-tenant queues in proportion to their weights when both are
        backlogged; a tenant's fresh arrivals are also bounded to its
        weight-proportional share of ``max_queue``.
    arrivals / rate / burst_rate / p_burst / p_calm / n_clients /
    think_time:
        The tenant's arrival process, with the same semantics as the
        matching :class:`~repro.serve.loop.ServeConfig` fields.
    messages:
        The tenant's total message budget.  The sum over all tenants
        must equal ``ServeConfig.messages``.
    theta:
        Zipf key-popularity skew of the tenant's own key sampler
        (tenants share the key space but not their hot sets).
    slo_sojourn:
        Target sojourn (steps) at ``slo_percentile``; 0 disables SLO
        tracking for this tenant.
    slo_percentile:
        The percentile the sojourn target applies to (nearest-rank).
    buffer_quota:
        Max messages this tenant may have resident in any one shard's
        internal-node buffers (0 = unlimited).  Enforced at the
        admission/planner boundary: admission holds the tenant's queue
        while the quota is saturated, trading the tenant's makespan for
        a hard bound on its peak buffer memory.
    """

    name: str
    weight: float = field(default=1.0, metadata={
        "flag": "--tenant-weights", "per_tenant": True,
        "help": "comma-separated deficit-round-robin admission weights "
                "(default: equal weights)"})
    arrivals: str = "poisson"
    rate: float = field(default=4.0, metadata={
        "flag": "--tenant-rates", "per_tenant": True,
        "help": "comma-separated per-tenant arrival rates (default: --rate "
                "each); message budgets split proportionally to the rates"})
    burst_rate: float = 16.0
    p_burst: float = 0.05
    p_calm: float = 0.25
    n_clients: int = 8
    think_time: int = 0
    messages: int = 0
    theta: float = field(default=0.0, metadata={
        "flag": "--tenant-thetas", "per_tenant": True,
        "help": "comma-separated Zipf skews of each tenant's key sampler "
                "(default: --skew each)"})
    slo_sojourn: int = field(default=0, metadata={
        "flag": "--tenant-slo", "per_tenant": True,
        "help": "comma-separated sojourn SLO targets in steps (0 = "
                "untracked, the default); two violating epochs in a row "
                "shed the violating tenant's queue first"})
    slo_percentile: float = field(default=99.0, metadata={
        "flag": "--tenant-slo-percentile",
        "help": "percentile the sojourn SLO targets apply to"})
    buffer_quota: int = field(default=0, metadata={
        "flag": "--tenant-quota", "per_tenant": True,
        "help": "comma-separated per-shard buffer quotas: max messages a "
                "tenant may have resident in one shard's internal-node "
                "buffers (0 = unlimited, the default)"})

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidInstanceError("tenant name must be non-empty")
        if not self.weight > 0:  # also rejects NaN
            raise InvalidInstanceError(
                f"tenant {self.name!r}: weight must be > 0, "
                f"got {self.weight}"
            )
        if self.arrivals not in TENANT_ARRIVALS:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: unknown arrival process "
                f"{self.arrivals!r} (expected one of {TENANT_ARRIVALS})"
            )
        if self.arrivals == "poisson" and not self.rate > 0:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: rate must be > 0, got {self.rate}"
            )
        if self.arrivals == "mmpp" and (
            not self.rate >= 0 or not self.burst_rate > 0
        ):
            raise InvalidInstanceError(
                f"tenant {self.name!r}: mmpp needs rate >= 0 and "
                f"burst_rate > 0, got {self.rate}, {self.burst_rate}"
            )
        if self.arrivals == "closed" and self.n_clients < 1:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: closed loop needs n_clients >= 1"
            )
        if self.messages < 0:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: messages must be >= 0, "
                f"got {self.messages}"
            )
        if self.theta < 0:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: theta must be >= 0, got {self.theta}"
            )
        if self.slo_sojourn < 0:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: slo_sojourn must be >= 0, "
                f"got {self.slo_sojourn}"
            )
        if not (0.0 < self.slo_percentile <= 100.0):
            raise InvalidInstanceError(
                f"tenant {self.name!r}: slo_percentile must be in "
                f"(0, 100], got {self.slo_percentile}"
            )
        if self.buffer_quota < 0:
            raise InvalidInstanceError(
                f"tenant {self.name!r}: buffer_quota must be >= 0, "
                f"got {self.buffer_quota}"
            )

    def to_meta(self) -> dict:
        """JSON-ready form for a journal ``meta`` payload."""
        return asdict(self)

    @classmethod
    def from_meta(cls, payload: dict) -> "TenantSpec":
        """Inverse of :meth:`to_meta` (unknown keys ignored)."""
        names = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def validate_tenants(tenants, total_messages: int) -> None:
    """Cross-field checks for ``ServeConfig.tenants``."""
    if not tenants:
        raise InvalidInstanceError("tenants must be a non-empty tuple")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise InvalidInstanceError(f"tenant names must be unique: {names}")
    budget = sum(t.messages for t in tenants)
    if budget != total_messages:
        raise InvalidInstanceError(
            f"tenant message budgets sum to {budget}, but "
            f"messages={total_messages}; they must match"
        )


def split_messages(total: int, shares: "list[float]") -> "list[int]":
    """Split ``total`` proportionally to ``shares`` (largest-remainder,
    deterministic: ties go to the earlier tenant)."""
    if total < 0:
        raise InvalidInstanceError(f"total must be >= 0, got {total}")
    weight = sum(shares)
    if not weight > 0:
        raise InvalidInstanceError("shares must sum to > 0")
    exact = [total * s / weight for s in shares]
    out = [int(e) for e in exact]
    remainder = total - sum(out)
    order = sorted(
        range(len(shares)), key=lambda i: (-(exact[i] - out[i]), i)
    )
    for i in order[:remainder]:
        out[i] += 1
    return out


#: whole-run arrival fields every tenant inherits from the run's config.
INHERITED = (
    "arrivals", "rate", "burst_rate", "p_burst", "p_calm", "n_clients",
    "think_time", "theta",
)

#: make_tenants' plural names for the per-tenant lists of these fields.
_PLURALS = {
    "rates": "rate", "weights": "weight", "thetas": "theta",
    "slos": "slo_sojourn", "quotas": "buffer_quota",
}


def make_tenants(
    n: int, total_messages: int, *, run=None, **values
) -> "tuple[TenantSpec, ...]":
    """Build ``n`` tenants named ``t0..t{n-1}``.

    ``values`` maps a :class:`TenantSpec` field, or one of the plural
    names ``rates``, ``weights``, ``thetas``, ``slos`` and ``quotas``,
    to a list of one value per tenant or to one value for all of them
    (``None`` = unset).  An unset field in :data:`INHERITED` takes the
    matching field of ``run``, the whole-run
    :class:`~repro.serve.loop.ServeConfig`; any other unset field, or
    every field when ``run`` is ``None``, keeps the ``TenantSpec``
    default.  Message budgets split proportionally to the rates so the
    run's total matches ``total_messages`` exactly.
    """
    if n < 1:
        raise InvalidInstanceError(f"need n >= 1 tenants, got {n}")
    columns = {}
    if run is not None:
        columns = {name: [getattr(run, name)] * n for name in INHERITED}
    for key, vals in values.items():
        if vals is None:
            continue
        if not isinstance(vals, (list, tuple)):
            vals = [vals] * n
        elif len(vals) != n:
            raise InvalidInstanceError(
                f"expected {n} values, got {len(vals)}: {vals}"
            )
        columns[_PLURALS.get(key, key)] = list(vals)
    budgets = split_messages(
        total_messages, columns.get("rate", [TenantSpec.rate] * n)
    )
    return tuple(
        TenantSpec(
            name=f"t{i}", messages=budgets[i],
            **{name: col[i] for name, col in columns.items()},
        )
        for i in range(n)
    )
