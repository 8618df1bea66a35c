"""The personal social-medical folder field experiment (Perspectives).

A deployment of the PDS architecture for home care coordination:

* each **patient** owns her medical-social folder on a secure token at home
  (a :class:`ReplicaState` + a policy-guarded :class:`PersonalDataServer`);
* an encrypted **central server** supports coordination between
  practitioners (web access on their side — modelled as direct authoring
  into the central replica);
* **practitioners' smart badges** synchronize homes and center during
  visits — *no network link required, no data re-entered*.

:class:`MedicalDeployment.simulate_rounds` drives visits and returns
convergence statistics for the E10 bench.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.globalq.tokens import TokenFleet
from repro.pds.datamodel import PersonalDocument, medical_note
from repro.pds.sync import ReplicaState, badge_sync


@dataclass
class Practitioner:
    """A doctor/nurse/social worker making home visits with a badge."""

    name: str
    role: str


@dataclass
class VisitStats:
    """Outcome of one simulation."""

    visits: int
    documents_authored: int
    badge_documents_moved: int
    converged_patients: int
    total_patients: int

    @property
    def convergence_ratio(self) -> float:
        return (
            self.converged_patients / self.total_patients
            if self.total_patients
            else 1.0
        )


class MedicalDeployment:
    """Patients' home folders + the central coordination replica."""

    def __init__(
        self,
        num_patients: int,
        practitioners: list[Practitioner] | None = None,
        seed: int = 0,
    ) -> None:
        self.fleet = TokenFleet(seed=seed)
        self.rng = random.Random(seed)
        self.central = ReplicaState("central")
        self.homes = [
            ReplicaState(f"patient-{i}") for i in range(num_patients)
        ]
        self.practitioners = practitioners or [
            Practitioner("dr-dupont", "doctor"),
            Practitioner("nurse-claire", "nurse"),
            Practitioner("sw-karim", "social-worker"),
        ]
        self._authored = 0

    # ------------------------------------------------------------------
    def home_visit(self, patient: int, practitioner: Practitioner) -> int:
        """A visit: author a care note at home, then badge-sync with center.

        Returns the number of documents the badge moved (both directions).
        """
        home = self.homes[patient]
        note = medical_note(
            f"visit by {practitioner.name} for patient {patient}",
            diagnosis="checkup",
        )
        home.add_local(practitioner.name, note)
        self._authored += 1
        to_central, to_home = badge_sync(self.fleet, home, self.central)
        return to_central + to_home

    def central_entry(self, patient: int, text: str) -> None:
        """A practitioner records something at the center (web side)."""
        self.central.add_local(
            f"central-for-{patient}",
            PersonalDocument(kind="medical", text=text),
        )
        self._authored += 1

    def patient_converged(self, patient: int) -> bool:
        """Does this home hold everything the center holds, and vice versa?

        (Real deployments filter by patient; for convergence accounting we
        check full replica equality, which badge rounds guarantee.)
        """
        return self.homes[patient].converged_with(self.central)

    # ------------------------------------------------------------------
    def simulate_rounds(self, rounds: int) -> VisitStats:
        """Random visit schedule; after each round some homes badge-sync."""
        moved = 0
        visits = 0
        for _ in range(rounds):
            patient = self.rng.randrange(len(self.homes))
            practitioner = self.practitioners[
                self.rng.randrange(len(self.practitioners))
            ]
            if self.rng.random() < 0.3:
                self.central_entry(patient, "coordination note")
            moved += self.home_visit(patient, practitioner)
            visits += 1
        converged = sum(
            1 for patient in range(len(self.homes))
            if self.patient_converged(patient)
        )
        return VisitStats(
            visits=visits,
            documents_authored=self._authored,
            badge_documents_moved=moved,
            converged_patients=converged,
            total_patients=len(self.homes),
        )

    def final_sync_all(self) -> None:
        """A closing badge tour visiting every home once."""
        for home in self.homes:
            badge_sync(self.fleet, home, self.central)
