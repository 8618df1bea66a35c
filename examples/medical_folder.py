"""The personal social-medical folder field experiment, simulated.

Patients keep their folders at home on secure tokens; practitioners carry
smart badges that synchronize homes with the central coordination server
during visits — no network link, no data re-entered. This example drives a
two-week visit schedule and also publishes a k-anonymous prevalence table
through the token protocols.

Run with:  python examples/medical_folder.py
"""

import random

from repro.apps.medical import MedicalDeployment, Practitioner
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.ppdp.generalize import QuasiIdentifier, age_hierarchy, city_hierarchy
from repro.ppdp.kanon import anonymize_with_tokens
from repro.workloads.people import generate_population


def main() -> None:
    print("== 1. Deploy: 12 patients, 3 practitioners, 1 central server ==")
    deployment = MedicalDeployment(
        num_patients=12,
        practitioners=[
            Practitioner("dr-dupont", "doctor"),
            Practitioner("nurse-claire", "nurse"),
            Practitioner("sw-karim", "social-worker"),
        ],
        seed=4,
    )

    print("\n== 2. Two weeks of home visits (badge sync, offline) ==")
    stats = deployment.simulate_rounds(40)
    print(f"visits: {stats.visits}")
    print(f"documents authored: {stats.documents_authored}")
    print(f"documents carried by badges: {stats.badge_documents_moved}")
    print(f"patients converged mid-campaign: "
          f"{stats.converged_patients}/{stats.total_patients}")

    print("\n== 3. Closing badge tour -> full convergence ==")
    deployment.final_sync_all()
    converged = all(
        deployment.patient_converged(p) for p in range(12)
    )
    print(f"all folders consistent with the center: {converged}")
    print(f"central folder size: {len(deployment.central)} documents")

    print("\n== 4. Anonymous epidemiology over patients' PDSs ==")
    health = [records[1] for records in generate_population(40, seed=12)]
    nodes = [PdsNode(i, [record]) for i, record in enumerate(health)]
    qis = [
        QuasiIdentifier("age", age_hierarchy()),
        QuasiIdentifier("city", city_hierarchy()),
    ]
    result = anonymize_with_tokens(
        nodes, TokenFleet(seed=13), qis, "diagnosis", k=4,
        rng=random.Random(1),
    )
    print(f"published {len(result.records)} rows at generalization "
          f"levels {result.levels} (achieved k={result.k_of()})")
    for row in result.records[:5]:
        print(f"  age={row[0]:<7} region={row[1]:<6} diagnosis={row[2]}")


if __name__ == "__main__":
    main()
