"""Tests for the three perspective applications."""

import pytest

from repro.apps.folkis import FolkNetwork
from repro.apps.medical import MedicalDeployment
from repro.apps.trustedcells import EncryptedCloudStore, SensorEvent, TrustedCell
from repro.errors import AccessDenied, ProtocolError
from repro.globalq.tokens import TokenFleet
from repro.pds.acl import AccessRule, PrivacyPolicy, Subject


class TestMedicalDeployment:
    def test_visit_converges_patient(self):
        deployment = MedicalDeployment(num_patients=3, seed=1)
        doctor = deployment.practitioners[0]
        deployment.home_visit(0, doctor)
        assert deployment.patient_converged(0)

    def test_central_entries_reach_home_on_next_visit(self):
        deployment = MedicalDeployment(num_patients=2, seed=2)
        deployment.central_entry(1, "lab results arrived")
        assert not deployment.patient_converged(1)
        deployment.home_visit(1, deployment.practitioners[1])
        assert deployment.patient_converged(1)

    def test_simulation_statistics(self):
        deployment = MedicalDeployment(num_patients=5, seed=3)
        stats = deployment.simulate_rounds(30)
        assert stats.visits == 30
        assert stats.documents_authored >= 30
        assert stats.badge_documents_moved >= stats.documents_authored * 0.5
        assert 0.0 <= stats.convergence_ratio <= 1.0

    def test_final_tour_converges_everyone(self):
        deployment = MedicalDeployment(num_patients=6, seed=4)
        deployment.simulate_rounds(20)
        deployment.final_sync_all()
        assert all(
            deployment.patient_converged(p) for p in range(6)
        )


class TestFolkIs:
    def test_delivery_happens(self):
        network = FolkNetwork(num_nodes=10, seed=1)
        bundle = network.send(0, 7, b"vaccination record")
        steps = network.run_until_delivered()
        assert bundle.delivered
        assert steps >= 1
        assert network.read_payload(bundle) == b"vaccination record"

    def test_payload_encrypted_in_transit(self):
        network = FolkNetwork(num_nodes=5, seed=2)
        bundle = network.send(0, 3, b"secret harvest data")
        assert b"secret harvest data" not in bundle.blob

    def test_latency_decreases_with_more_encounters(self):
        slow = FolkNetwork(num_nodes=30, seed=3, encounters_per_step=2)
        fast = FolkNetwork(num_nodes=30, seed=3, encounters_per_step=20)
        for network in (slow, fast):
            for i in range(5):
                network.send(i, 29 - i, b"x")
            network.run_until_delivered()
        assert sum(fast.delivery_latencies()) < sum(slow.delivery_latencies())

    def test_reject_self_send_and_tiny_network(self):
        with pytest.raises(ProtocolError):
            FolkNetwork(num_nodes=1)
        network = FolkNetwork(num_nodes=3, seed=4)
        with pytest.raises(ProtocolError):
            network.send(1, 1, b"loop")

    def test_undelivered_payload_unreadable(self):
        network = FolkNetwork(num_nodes=4, seed=5)
        bundle = network.send(0, 2, b"x")
        with pytest.raises(ProtocolError):
            network.read_payload(bundle)

    def test_buffer_limit_respected(self):
        network = FolkNetwork(num_nodes=3, seed=6, buffer_limit=2)
        for i in range(5):
            network.send(0, 2, bytes([i]))
        assert len(network.nodes[0].carrying) <= 2


class TestTrustedCells:
    def make_cell(self):
        fleet = TokenFleet(seed=1)
        cloud = EncryptedCloudStore()
        policy = PrivacyPolicy(
            [AccessRule(role="app", action="search", kind="energy")]
        )
        return TrustedCell("alice", fleet, cloud, policy), cloud

    def test_sensor_ingestion_archives_encrypted(self):
        cell, cloud = self.make_cell()
        cell.ingest_sensor(SensorEvent("meter-1", {"kwh": 320, "month": 3}))
        assert cell.archived_count == 1
        snooped = cloud.snoop(cell.cell_id)
        assert snooped and all(b"320" not in blob for blob in snooped)

    def test_restore_from_cloud(self):
        cell, _ = self.make_cell()
        for month in range(1, 6):
            cell.ingest_sensor(SensorEvent("meter-1", {"kwh": 100 + month, "month": month}))
        restored = cell.restore_from_cloud()
        assert restored.pds.document_count == 5

    def test_app_gateway_enforces_policy(self):
        cell, _ = self.make_cell()
        doc_id = cell.ingest_sensor(SensorEvent("meter-1", {"kwh": 1, "month": 1}))
        app = Subject("energy-app", "app")
        assert cell.app_query(app, "meter") is not None
        with pytest.raises(AccessDenied):
            cell.app_read(app, doc_id)


class TestTrustedCellSeries:
    def test_sensor_stream_feeds_time_series(self):
        fleet = TokenFleet(seed=11)
        cell = TrustedCell("alice", fleet, EncryptedCloudStore())
        for month in range(1, 13):
            cell.ingest_sensor(SensorEvent("meter", {"kwh": 100 + month, "month": month}))
        assert "meter" in cell.series
        assert cell.series["meter"].count == 12
        average = cell.sensor_average("meter", 1, 12)
        assert average == pytest.approx(sum(101 + m for m in range(12)) / 12)

    def test_unknown_sensor_average_is_none(self):
        cell = TrustedCell("bob", TokenFleet(seed=12), EncryptedCloudStore())
        assert cell.sensor_average("ghost", 0, 10) is None

    def test_non_numeric_events_skip_series(self):
        cell = TrustedCell("carol", TokenFleet(seed=13), EncryptedCloudStore())
        cell.ingest_sensor(SensorEvent("door", {"state": "open"}))
        assert "door" not in cell.series
        assert cell.pds.document_count == 1
