"""repro.service — the SSI as a long-lived query service.

The tutorial's Secure Storage Infrastructure is not a batch job: it is an
always-on server that many queriers hit concurrently while the population
churns and citizens exercise deletion. This package runs the [TNP14]
protocol families in that regime:

* :class:`~repro.service.descriptor.QueryDescriptor` — canonical query
  form: cache key, wire form, and seed input;
* :class:`~repro.service.population.ServicePopulation` — the shared,
  versioned membership (churn + ``forget()``, snapshot isolation);
* :class:`~repro.service.server.SsiQueryService` — admission control,
  fair scheduling onto a single executor (one scheduler loop, one
  execution thread, one fold thread), version-exact result caching,
  latency accounting;
* :class:`~repro.service.loadgen.OpenLoopLoadGenerator` — Poisson traffic
  and the saturation-knee analysis (bench E24);
* :func:`~repro.service.reference.run_query` — the one-shot batch driver
  every served answer must match bit-identically.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionStats,
    Overloaded,
)
from repro.service.cache import CacheEntry, ResultCache, ResultCacheStats
from repro.service.descriptor import (
    FAMILIES,
    FAMILY_EMBEDDED,
    FAMILY_HISTOGRAM,
    FAMILY_NOISE,
    FAMILY_SECURE_AGG,
    QueryDescriptor,
    WorkloadMix,
    derive_seed,
    embedded_mix,
    standard_mix,
)
from repro.service.loadgen import (
    LoadReport,
    OpenLoopDeltaStorm,
    OpenLoopLoadGenerator,
    find_knee,
)
from repro.service.population import (
    MembershipChurn,
    PopulationSnapshot,
    ServicePopulation,
    slim_population,
)
from repro.service.reference import build_protocol, run_embedded, run_query
from repro.service.server import (
    QueryTicket,
    ServedResult,
    ServiceConfig,
    SsiQueryService,
)
from repro.service.standing import (
    SimClock,
    StandingRegistry,
    StandingSubscription,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CacheEntry",
    "FAMILIES",
    "FAMILY_EMBEDDED",
    "FAMILY_HISTOGRAM",
    "FAMILY_NOISE",
    "FAMILY_SECURE_AGG",
    "LoadReport",
    "MembershipChurn",
    "OpenLoopDeltaStorm",
    "OpenLoopLoadGenerator",
    "Overloaded",
    "PopulationSnapshot",
    "QueryDescriptor",
    "QueryTicket",
    "ResultCache",
    "ResultCacheStats",
    "ServedResult",
    "ServiceConfig",
    "ServicePopulation",
    "SimClock",
    "SsiQueryService",
    "StandingRegistry",
    "StandingSubscription",
    "WorkloadMix",
    "build_protocol",
    "derive_seed",
    "embedded_mix",
    "find_knee",
    "run_embedded",
    "run_query",
    "slim_population",
    "standard_mix",
]
