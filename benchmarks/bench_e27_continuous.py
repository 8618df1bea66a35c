"""E27 — Standing queries: encrypted delta-maintenance vs recollection.

Claims under test (Issue 9's acceptance criteria):

* a standing ``SUM(salary)`` subscription maintained purely by folding
  encrypted ``Enc(new) · Enc(old)^-1`` deltas is **bit-exact**: at every
  sealed window boundary, the decrypted folded state equals plaintext
  full recollection over the live population — including under churn
  flips, ``forget()`` and record updates interleaved with the stream;
* steady-state ciphertext traffic is **sublinear in population size**: a
  refresh costs ``O(changed PDSs)`` ciphertexts, not ``O(population)``.
  With a fixed event rate, bytes-per-refresh stays flat from 10k to 1M
  PDSs while the recollect-per-refresh model grows 100x.

Row meaning: one row per population size — ticks driven, windows sealed,
deltas folded, steady-state delta bytes per refresh, the recollect model's
bytes per refresh (``online x 2`` ciphertexts at the same key size), their
ratio, and whether every boundary passed the equality gate. ``meta``
records the traffic model, bootstrap cost (the one unavoidable ``O(N)``
phase, equal to a single recollection), and the sublinearity verdict.

The equality gate raises on the first mismatch, in smoke mode too — the
``continuous-smoke`` CI job gates on it.
"""

from __future__ import annotations

import random
import time

from repro.bench.harness import (
    Experiment,
    record_wall_clock,
    run_and_print,
    smoke_mode,
)
from repro.crypto.paillier import generate_keypair
from repro.globalq.continuous import WindowSpec
from repro.globalq.queries import AggregateQuery
from repro.service import (
    QueryDescriptor,
    ResultCache,
    slim_population,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.service.standing import StandingRegistry
from repro.workloads.people import CITIES, PersonRecord

QUERY = AggregateQuery.sum("salary")
DESCRIPTOR = QueryDescriptor(FAMILY_SECURE_AGG, QUERY)

#: Sliding window: every ``SLIDE`` ticks a window over the last ``WIDTH``
#: ticks of deltas is sealed and published — the "refresh" being priced.
WIDTH = 4
SLIDE = 2

#: Steady-state traffic must stay flat across a 100x population sweep;
#: event-mix jitter (no-op forgets, revived nodes) allows a small wobble.
FLATNESS_SLACK = 2.0


def parameters() -> dict:
    if smoke_mode():
        return {
            "populations": [200, 400, 800],
            "bits": 128,
            "ticks": 6,
            "events_per_tick": 8,
        }
    return {
        "populations": [10_000, 100_000, 1_000_000],
        "bits": 256,
        "ticks": 12,
        "events_per_tick": 64,
    }


def drive_timeline(
    registry: StandingRegistry,
    sub,
    private,
    ticks: int,
    events_per_tick: int,
    rng: random.Random,
) -> dict:
    """Advance simulated time tick by tick under a seeded event mix.

    Ordering matters: ``advance(t)`` first seals any boundary at ``t``
    (whose panes hold only deltas stamped ``< t``), the equality gate runs
    against the population state those deltas reflect, and only then do
    tick-``t`` events mutate the population (stamping their deltas ``t``).
    """
    population = registry.population
    cities = list(CITIES)
    windows = 0
    equal = 0
    online_at_boundary: list[int] = []
    for t in range(1, ticks + 1):
        for updates in registry.advance(t).values():
            for update in updates:
                windows += 1
                live = (
                    private.decrypt_signed(update.live_value),
                    private.decrypt_signed(update.live_count),
                )
                expected = registry.reference(sub.sub_id)
                if live != expected:
                    raise AssertionError(
                        f"equality gate: folded {live} != recollected "
                        f"{expected} at boundary {update.window_end}"
                    )
                equal += 1
                online_at_boundary.append(population.online_count)
        for _ in range(events_per_tick):
            pds = rng.randrange(len(population))
            roll = rng.random()
            if roll < 0.2:
                population.forget(pds)
            elif roll < 0.6:
                population.update_records(
                    pds,
                    [
                        PersonRecord(
                            {
                                "city": cities[rng.randrange(len(cities))],
                                "salary": float(1200 + rng.randrange(0, 4000)),
                            }
                        )
                    ],
                )
            else:
                population.set_online(pds, not population.is_online(pds))
    return {
        "windows": windows,
        "equal": equal,
        "avg_online": sum(online_at_boundary) / max(1, len(online_at_boundary)),
    }


def run_size(
    experiment: Experiment,
    size: int,
    bits: int,
    ticks: int,
    events_per_tick: int,
) -> dict:
    public, private = generate_keypair(bits, random.Random(41))
    population = slim_population(size)
    cache = ResultCache(4, population)
    registry = StandingRegistry(population, cache=cache)

    start = time.perf_counter()
    sub = registry.subscribe(DESCRIPTOR, WindowSpec(WIDTH, SLIDE), public)
    bootstrap_s = time.perf_counter() - start
    bootstrap_bytes = sub.delta_bytes
    bootstrap_deltas = sub.deltas_emitted
    record_wall_clock(experiment, f"bootstrap_{size}", bootstrap_s)

    start = time.perf_counter()
    outcome = drive_timeline(
        registry, sub, private, ticks, events_per_tick, random.Random(97 + size)
    )
    steady_s = time.perf_counter() - start
    record_wall_clock(experiment, f"steady_{size}", steady_s)
    # Sustained fold rate of the steady phase — the deltas/sec trajectory
    # E28 optimizes, tracked here across PRs at the one-fold-per-delta
    # baseline for regression comparison.
    steady_deltas = sub.deltas_emitted - bootstrap_deltas
    experiment.meta.setdefault("steady_fold_rate_per_s", {})[str(size)] = (
        round(steady_deltas / steady_s, 1) if steady_s > 0 else 0.0
    )

    cipher_bytes = 2 * ((public.n_squared.bit_length() + 7) // 8)
    refreshes = max(1, outcome["windows"])
    steady_bytes = sub.delta_bytes - bootstrap_bytes
    delta_per_refresh = steady_bytes / refreshes
    # Recollect-per-refresh: every online PDS re-sends Enc(value), Enc(count).
    recollect_per_refresh = outcome["avg_online"] * 2 * cipher_bytes
    experiment.add_row(
        size,
        ticks,
        outcome["windows"],
        sub.deltas_emitted,
        round(delta_per_refresh, 1),
        round(recollect_per_refresh, 1),
        round(recollect_per_refresh / max(1.0, delta_per_refresh), 1),
        outcome["equal"] == outcome["windows"],
    )
    return {
        "population": size,
        "bootstrap_deltas": bootstrap_deltas,
        "bootstrap_bytes": bootstrap_bytes,
        "steady_bytes": steady_bytes,
        "delta_bytes_per_refresh": delta_per_refresh,
        "recollect_bytes_per_refresh": recollect_per_refresh,
        "metrics": registry.registry.snapshot(),
    }


def build_experiment() -> Experiment:
    params = parameters()
    experiment = Experiment(
        "e27",
        "Standing queries: encrypted delta-maintenance for live windows",
        "folded window state is bit-exact vs recollection at every "
        "boundary; steady-state ciphertext traffic is O(changes), flat "
        "across a 100x population sweep",
        [
            "population", "ticks", "windows", "deltas",
            "delta_B_refresh", "recollect_B_refresh", "ratio", "exact",
        ],
    )
    experiment.meta["smoke_mode"] = smoke_mode()
    experiment.meta["window"] = {"width": WIDTH, "slide": SLIDE}
    experiment.meta["paillier_bits"] = params["bits"]
    experiment.meta["events_per_tick"] = params["events_per_tick"]
    experiment.meta["traffic_model"] = (
        "delta path: 2 ciphertexts per changed PDS per refresh; recollect "
        "path: 2 ciphertexts per online PDS per refresh"
    )
    sizes = []
    for size in params["populations"]:
        sizes.append(
            run_size(
                experiment,
                size,
                params["bits"],
                params["ticks"],
                params["events_per_tick"],
            )
        )
    experiment.meta["sizes"] = sizes
    per_refresh = [s["delta_bytes_per_refresh"] for s in sizes]
    experiment.meta["traffic_flat"] = bool(
        max(per_refresh) <= FLATNESS_SLACK * min(per_refresh)
    )
    return experiment


def test_e27_continuous(benchmark):
    experiment = run_and_print(build_experiment)
    # The equality gate already raised on any boundary mismatch; the rows
    # must additionally show it actually ran at every size.
    assert all(experiment.column("exact"))
    assert all(windows > 0 for windows in experiment.column("windows"))
    # Sublinearity: bytes-per-refresh flat across the sweep while the
    # recollect model tracks population size.
    assert experiment.meta["traffic_flat"]
    recollect = experiment.column("recollect_B_refresh")
    sizes = experiment.column("population")
    # The recollect model tracks the sweep's population growth (within the
    # wobble churn and forgets introduce); the delta path does not.
    growth = sizes[-1] / sizes[0]
    assert recollect[-1] > 0.3 * growth * recollect[0]
    if not smoke_mode():
        assert max(sizes) == 1_000_000
        # At 1M PDSs a refresh over the delta stream beats recollection by
        # >=100x in ciphertext bytes.
        assert experiment.column("ratio")[-1] >= 100.0

    # pytest-benchmark row: the steady-state fold cost of one small window.
    public, private = generate_keypair(128, random.Random(3))
    population = slim_population(64)
    registry = StandingRegistry(population)
    sub = registry.subscribe(DESCRIPTOR, WindowSpec(WIDTH, SLIDE), public)
    rng = random.Random(11)
    clock = [0]

    def one_tick():
        clock[0] += 1
        registry.advance(clock[0])
        pds = rng.randrange(len(population))
        population.set_online(pds, not population.is_online(pds))

    benchmark(one_tick)
    live = private.decrypt_signed(sub.standing.current()[0])
    assert (live, private.decrypt_signed(sub.standing.current()[1])) == (
        registry.reference(sub.sub_id)
    )


if __name__ == "__main__":
    run_and_print(build_experiment)
