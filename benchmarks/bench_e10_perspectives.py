"""E10 — The perspective deployments behave as promised.

Claims under test: the medical folder converges without any network link
(badge rounds only) and never re-enters data; Folk-IS delivers every bundle
through physical encounters with latency falling as encounter density
rises; Trusted Cells survive device loss via the encrypted cloud archive.
"""

from __future__ import annotations

import statistics

from repro.apps.folkis import FolkNetwork
from repro.apps.medical import MedicalDeployment
from repro.apps.trustedcells import EncryptedCloudStore, SensorEvent, TrustedCell
from repro.bench.harness import Experiment, render_table, run_and_print
from repro.globalq.tokens import TokenFleet


def build_medical_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E10a",
        title="Medical folder: convergence through badge visits",
        claim="after a closing badge tour every patient home equals the "
        "central folder; badge moves each doc at most once per replica",
        columns=[
            "patients", "rounds", "authored", "badge_moves",
            "converged_after_tour",
        ],
    )
    for patients, rounds in ((5, 20), (20, 80), (50, 200)):
        deployment = MedicalDeployment(num_patients=patients, seed=patients)
        stats = deployment.simulate_rounds(rounds)
        deployment.final_sync_all()
        converged = all(
            deployment.patient_converged(p) for p in range(patients)
        )
        experiment.add_row(
            patients, rounds, stats.documents_authored,
            stats.badge_documents_moved, converged,
        )
    return experiment


def build_folkis_experiment() -> Experiment:
    experiment = Experiment(
        experiment_id="E10b",
        title="Folk-IS: delivery latency vs encounter density",
        claim="every bundle delivered; median latency falls as encounters "
        "per step rise (epidemic routing)",
        columns=[
            "nodes", "encounters_per_step", "bundles", "delivered",
            "median_latency", "max_latency",
        ],
    )
    for nodes, density in ((40, 4), (40, 12), (120, 12), (120, 40)):
        network = FolkNetwork(
            num_nodes=nodes, seed=3, encounters_per_step=density
        )
        for i in range(10):
            network.send(i, nodes - 1 - i, b"report-%d" % i)
        network.run_until_delivered()
        latencies = network.delivery_latencies()
        experiment.add_row(
            nodes, density, len(network.bundles), len(latencies),
            statistics.median(latencies), max(latencies),
        )
    return experiment


def test_e10_medical(benchmark):
    experiment = run_and_print(build_medical_experiment)
    assert all(experiment.column("converged_after_tour"))
    # No data re-entered: each document crosses to central once and to each
    # of the other homes at most once, so moves <= authored x (patients + 1).
    for row in experiment.rows:
        patients, _, authored, moves, _ = row
        assert moves <= authored * (patients + 1)

    deployment = MedicalDeployment(num_patients=5, seed=1)
    benchmark(deployment.simulate_rounds, 5)


def test_e10_folkis(benchmark):
    experiment = run_and_print(build_folkis_experiment)
    assert experiment.column("bundles") == experiment.column("delivered")
    rows = experiment.rows
    # Same population, more encounters -> no slower (compare rows 0/1, 2/3).
    assert rows[1][4] <= rows[0][4]
    assert rows[3][4] <= rows[2][4]

    def run_small():
        network = FolkNetwork(num_nodes=20, seed=5, encounters_per_step=6)
        network.send(0, 19, b"x")
        network.run_until_delivered()

    benchmark(run_small)


def test_e10_trusted_cells(benchmark):
    """Durability: a lost cell is rebuilt from the encrypted archive."""
    experiment = Experiment(
        experiment_id="E10c",
        title="Trusted Cells: encrypted archive restore",
        claim="all documents recovered; the cloud never stores plaintext",
        columns=["readings", "restored", "cloud_kB", "plaintext_leaks"],
    )
    for readings in (10, 100):
        fleet = TokenFleet(seed=readings)
        cloud = EncryptedCloudStore()
        cell = TrustedCell("alice", fleet, cloud)
        for month in range(readings):
            cell.ingest_sensor(
                SensorEvent("meter", {"kwh": 100 + month, "month": month})
            )
        restored = cell.restore_from_cloud()
        leaks = sum(
            1 for blob in cloud.snoop(cell.cell_id) if b"meter" in blob
        )
        experiment.add_row(
            readings,
            restored.pds.document_count,
            round(cloud.stored_bytes(cell.cell_id) / 1024, 1),
            leaks,
        )
    print()
    print(render_table(experiment))
    assert experiment.column("readings") == experiment.column("restored")
    assert all(leaks == 0 for leaks in experiment.column("plaintext_leaks"))

    benchmark(lambda: None)
