"""Python calls per PDS on the collection and aggregation path.

A served query's cost is one Python trip per PDS and per tuple; what a
columnar shard saves is calls, and a call count does not drift with the
load of the machine running it. So the guard counts: ``sys.setprofile``
``"call"`` events whose code lives in the ``repro`` package, during one
inline 512-PDS protocol run of each family (collection, SSI store,
partitioning, aggregation, merge). Code objects named ``<...>`` —
comprehensions and generator expressions, which Python 3.12 inlines and
3.10/3.11 do not — are left out so the count means the same on every
supported interpreter.

The budget is the columnar path's count (1.40 / 2.21 / 1.15 calls per
PDS for secure-agg / noise / histogram) plus about 0.25 of slack. The
per-PDS-object path it replaced made 29.7 / 36.8 / 30.1: a NodeContributions
and an EncryptedContribution per PDS, a cipher and a ``Random`` per PDS,
four PRF method calls per tuple and a channel edge per PDS.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.globalq.tokens import TokenFleet
from tests.globalq.test_keying import FAMILIES
from tests.globalq.test_parallel import QUERY, make_nodes

PACKAGE = str(Path(repro.__file__).parent)
NODES = make_nodes(512)

#: Calls per PDS: the columnar path's count plus about 0.25.
BUDGET = {"secure-agg": 1.65, "noise": 2.45, "histogram": 1.4}


def calls_per_pds(run) -> float:
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                calls += not code.co_name.startswith("<")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls / len(NODES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_calls_per_pds_within_budget(family):
    protocol = FAMILIES[family](TokenFleet(3), collection_seed=7)
    per_pds = calls_per_pds(lambda: protocol.run(NODES, QUERY))
    assert per_pds <= BUDGET[family], f"{family}: {per_pds:.2f} calls per PDS"
