"""Tests for the PersonalDataServer and secure sharing."""

import pytest

from repro.errors import AccessDenied
from repro.globalq.protocol import TokenFleet
from repro.pds.acl import AccessRule, PrivacyPolicy, Subject
from repro.pds.datamodel import PersonalDocument, bill, energy_reading, medical_note
from repro.pds.server import PersonalDataServer
from repro.pds.sharing import (
    CertificationAuthority,
    ShareReader,
    UsagePolicy,
    create_share,
)

DOCTOR = Subject("dr-b", "doctor")
FAMILY = Subject("mom", "family")
QUERIER = Subject("insee", "querier")


@pytest.fixture
def pds() -> PersonalDataServer:
    server = PersonalDataServer(owner="alice")
    server.ingest_all(
        [
            medical_note("blood pressure checkup normal", "healthy"),
            medical_note("flu diagnosis prescribed rest", "flu"),
            bill("electricity invoice march", 84.5, "edf"),
            energy_reading(kwh=320, month=3),
            PersonalDocument(kind="email", text="meeting agenda project review"),
        ]
    )
    return server


class TestIngestAndRead:
    def test_document_count(self, pds):
        assert pds.document_count == 5

    def test_owner_reads_everything(self, pds):
        for document in pds.documents_of_kind("bill"):
            assert pds.read(pds.owner, document.doc_id).kind == "bill"

    def test_doctor_reads_medical_only(self, pds):
        medical = pds.documents_of_kind("medical")[0]
        email = pds.documents_of_kind("email")[0]
        assert pds.read(DOCTOR, medical.doc_id).kind == "medical"
        with pytest.raises(AccessDenied):
            pds.read(DOCTOR, email.doc_id)

    def test_unknown_doc(self, pds):
        with pytest.raises(KeyError):
            pds.read(pds.owner, 10**9)

    def test_reads_are_audited_even_when_denied(self, pds):
        email = pds.documents_of_kind("email")[0]
        before = pds.audit.count
        with pytest.raises(AccessDenied):
            pds.read(DOCTOR, email.doc_id)
        assert pds.audit.count == before + 1
        assert pds.audit.entries()[-1].allowed is False
        assert pds.audit.verify_chain()


class TestGuardedSearch:
    def test_owner_search_finds_documents(self, pds):
        results = pds.search(pds.owner, "flu diagnosis")
        assert results
        assert results[0][1].kind == "medical"

    def test_doctor_search_sees_only_medical(self, pds):
        results = pds.search(DOCTOR, "invoice flu meeting")
        assert results
        assert all(document.kind == "medical" for _, document in results)

    def test_family_blind_to_medical(self, pds):
        results = pds.search(FAMILY, "flu diagnosis")
        assert results == []


class TestAggregationBridge:
    def test_querier_gets_flat_records(self, pds):
        records = pds.records_for_aggregation(QUERIER)
        assert len(records) == 5
        kinds = {record["kind"] for record in records}
        assert "medical" in kinds and "energy" in kinds

    def test_restrictive_policy_filters_contributions(self):
        policy = PrivacyPolicy(
            [AccessRule(role="querier", action="aggregate", kind="energy")]
        )
        server = PersonalDataServer(owner="bob", policy=policy)
        server.ingest_all(
            [medical_note("x", "flu"), energy_reading(kwh=100, month=1)]
        )
        records = server.records_for_aggregation(QUERIER)
        assert [record["kind"] for record in records] == ["energy"]


class TestSecureSharing:
    def make_reader(self, fleet, authority, role="doctor", expires=100):
        credential = authority.issue(Subject("dr-b", role), expires_at=expires)
        return ShareReader(fleet, authority, credential)

    def test_share_and_open(self, pds):
        fleet = TokenFleet(seed=1)
        authority = CertificationAuthority(fleet)
        medical = pds.documents_of_kind("medical")
        envelope = create_share(
            pds, fleet, [d.doc_id for d in medical], "doctor", UsagePolicy(max_reads=2)
        )
        reader = self.make_reader(fleet, authority)
        documents = reader.open(envelope, now=0)
        assert len(documents) == 2
        assert {d.kind for d in documents} == {"medical"}

    def test_authority_leaves_fleet_nonce_stream_alone(self):
        """Regression: the authority built (and dropped) a payload cipher,
        advancing the rng every fleet holder shares."""
        fleet = TokenFleet(seed=7)
        CertificationAuthority(fleet)
        assert fleet.payload_cipher().encrypt(b"share") == TokenFleet(
            seed=7
        ).payload_cipher().encrypt(b"share")

    def test_read_budget_enforced(self, pds):
        fleet = TokenFleet(seed=2)
        authority = CertificationAuthority(fleet)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        envelope = create_share(
            pds, fleet, [doc_id], "doctor", UsagePolicy(max_reads=1)
        )
        reader = self.make_reader(fleet, authority)
        reader.open(envelope, now=0)
        with pytest.raises(AccessDenied, match="budget exhausted"):
            reader.open(envelope, now=0)

    def test_expiry_enforced(self, pds):
        fleet = TokenFleet(seed=3)
        authority = CertificationAuthority(fleet)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        envelope = create_share(
            pds, fleet, [doc_id], "doctor", UsagePolicy(max_reads=5, expires_at=10)
        )
        reader = self.make_reader(fleet, authority)
        with pytest.raises(AccessDenied, match="expired"):
            reader.open(envelope, now=11)

    def test_wrong_role_rejected(self, pds):
        fleet = TokenFleet(seed=4)
        authority = CertificationAuthority(fleet)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        envelope = create_share(pds, fleet, [doc_id], "doctor", UsagePolicy())
        family_reader = self.make_reader(fleet, authority, role="family")
        with pytest.raises(AccessDenied, match="role"):
            family_reader.open(envelope, now=0)

    def test_expired_credential_rejected(self, pds):
        fleet = TokenFleet(seed=5)
        authority = CertificationAuthority(fleet)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        envelope = create_share(pds, fleet, [doc_id], "doctor", UsagePolicy())
        reader = self.make_reader(fleet, authority, expires=5)
        with pytest.raises(AccessDenied, match="credential"):
            reader.open(envelope, now=50)

    def test_forged_credential_rejected(self, pds):
        fleet = TokenFleet(seed=6)
        authority = CertificationAuthority(fleet)
        credential = authority.issue(Subject("mallory", "doctor"), expires_at=100)
        credential.proof = b"\x00" * 32
        reader = ShareReader(fleet, authority, credential)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        envelope = create_share(pds, fleet, [doc_id], "doctor", UsagePolicy())
        with pytest.raises(AccessDenied, match="credential"):
            reader.open(envelope, now=0)

    def test_share_is_audited(self, pds):
        fleet = TokenFleet(seed=7)
        doc_id = pds.documents_of_kind("bill")[0].doc_id
        before = pds.audit.count
        create_share(pds, fleet, [doc_id], "doctor", UsagePolicy())
        # one read audit + one share audit
        assert pds.audit.count == before + 2
        assert pds.audit.entries()[-1].action == "share"

    def test_usage_policy_validation(self):
        with pytest.raises(Exception):
            UsagePolicy(max_reads=0)
