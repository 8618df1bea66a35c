"""Quickstart: one citizen's Personal Data Server, end to end.

Creates Alice's PDS on a simulated secure token, aggregates heterogeneous
personal documents, searches them with the embedded engine, exercises the
access-control rules (doctor vs random app), shares a document under a
travelling usage policy, and finally verifies the tamper-evident audit
trail.

Run with:  python examples/quickstart.py
"""

from repro.errors import AccessDenied
from repro.globalq.tokens import TokenFleet
from repro.pds.acl import Subject
from repro.pds.datamodel import PersonalDocument, bill, energy_reading, medical_note
from repro.pds.server import PersonalDataServer
from repro.pds.sharing import (
    CertificationAuthority,
    ShareReader,
    UsagePolicy,
    create_share,
)


def main() -> None:
    print("== 1. Create Alice's PDS (secure token + default policy) ==")
    pds = PersonalDataServer(owner="alice")
    print(f"token: {pds.token!r}")

    print("\n== 2. Aggregate heterogeneous personal data ==")
    pds.ingest_all(
        [
            medical_note("annual checkup, blood pressure normal", "healthy"),
            medical_note("flu diagnosed, rest prescribed", "flu"),
            bill("electricity invoice march", 84.50, "edf"),
            bill("water invoice march", 31.20, "veolia"),
            energy_reading(kwh=320, month=3),
            PersonalDocument(kind="email", text="meeting agenda project kickoff"),
        ]
    )
    print(f"documents stored: {pds.document_count}")

    print("\n== 3. Embedded search (inside the token, tiny RAM) ==")
    for hit, document in pds.search(pds.owner, "invoice march"):
        print(f"  doc {document.doc_id:>3} [{document.kind}] score={hit.score:.2f}")

    print("\n== 4. Access control: the doctor vs a random app ==")
    doctor = Subject("dr-b", "doctor")
    app = Subject("adtech", "app")
    medical = pds.documents_of_kind("medical")[0]
    print(f"doctor reads medical doc -> {pds.read(doctor, medical.doc_id).text!r}")
    try:
        pds.read(app, medical.doc_id)
    except AccessDenied as exc:
        print(f"app read denied       -> {exc}")

    print("\n== 5. Secure sharing with usage control ==")
    fleet = TokenFleet(seed=1)
    authority = CertificationAuthority(fleet)
    envelope = create_share(
        pds, fleet, [medical.doc_id], "doctor", UsagePolicy(max_reads=1)
    )
    credential = authority.issue(doctor, expires_at=1000)
    reader = ShareReader(fleet, authority, credential)
    shared = reader.open(envelope, now=0)
    print(f"doctor opened share    -> {shared[0].text!r}")
    try:
        reader.open(envelope, now=0)
    except AccessDenied as exc:
        print(f"second read refused    -> {exc}")

    print("\n== 6. Accountability: the audit chain ==")
    for entry in pds.audit.entries()[-4:]:
        verdict = "ALLOW" if entry.allowed else "DENY"
        print(f"  #{entry.sequence} {entry.role:<7} {entry.action:<6} "
              f"{entry.target:<28} {verdict}")
    print(f"audit chain intact: {pds.audit.verify_chain()}")


if __name__ == "__main__":
    main()
