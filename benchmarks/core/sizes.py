"""Workload sizes: the recorded configuration of the benchmark.

These numbers are part of the benchmark's definition — rates and
populations are recorded here and never re-tuned to a change. Closed loops
run a fixed amount of work per second of ``--seconds`` (calibrated once at
the commit that added the benchmark, 2-core box), so counts repeat exactly
and a faster system simply finishes the same work sooner.
"""

from __future__ import annotations

#: Builds of the workload state per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: CPUs each workload needs: the single-threaded load generator, or the
#: worker processes the configuration asks for.
CPUS = {
    "query_wire": 1,
    "delta_ingest": 1,
    "token_engine": 1,
    "scale_sharded": 2,
}

FULL = {
    "query_wire": {
        "population": 2000,
        "workers": 1,
        # Open loop, about 40 % of serial capacity at the defining commit.
        "rate_qps": 5.0,
        "schedule_seed": 5,
    },
    "delta_ingest": {
        "key_bits": 2048,
        # The querier's key is configuration, not input: one fixed seed so
        # set-up time does not measure prime-search luck.
        "key_seed": 41,
        "pds": 2000,
        "palette": 64,
        "frame_deltas": 256,
        "frames_per_pane": 8,
        "panes_per_second": 2.5,
    },
    "token_engine": {
        "lineitems": 4000,
        "insert_batch": 64,
        "rounds_per_second": 8.0,
    },
    "scale_sharded": {
        "population": 10000,
        "workers": 2,
        "cycles_per_second": 0.7,
    },
}

#: Same code paths and gates, each workload within about 3 s.
SMOKE = {
    "query_wire": {"population": 200, "workers": 1, "rate_qps": 20.0, "schedule_seed": 5},
    "delta_ingest": {
        "key_bits": 256,
        "key_seed": 41,
        "pds": 64,
        "palette": 16,
        "frame_deltas": 32,
        "frames_per_pane": 4,
        "panes_per_second": 6.0,
    },
    "token_engine": {
        "lineitems": 400,
        "insert_batch": 16,
        "rounds_per_second": 12.0,
    },
    "scale_sharded": {
        "population": 1500,
        "workers": 2,
        "cycles_per_second": 3.0,
    },
}
