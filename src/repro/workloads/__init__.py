"""Deterministic synthetic workloads for every experiment.

Document corpora (embedded search), the TPCD-like five-table schema
(embedded SQL) and personal-record populations (global protocols). All
generators take seeds so experiments reproduce bit-for-bit.
"""

from repro.workloads.documents import Document, DocumentCorpus
from repro.workloads.people import (
    CITIES,
    DIAGNOSES,
    OCCUPATIONS,
    PersonRecord,
    generate_population,
    zipf_choice,
)
from repro.workloads.tpcd import (
    MKT_SEGMENTS,
    ROOT_TABLE,
    TpcdData,
    generate,
    household_supplier_query,
    load,
    tpcd_schema,
)

__all__ = [
    "CITIES",
    "DIAGNOSES",
    "Document",
    "DocumentCorpus",
    "MKT_SEGMENTS",
    "OCCUPATIONS",
    "PersonRecord",
    "ROOT_TABLE",
    "TpcdData",
    "generate",
    "generate_population",
    "household_supplier_query",
    "load",
    "tpcd_schema",
    "zipf_choice",
]
