"""Trusted Cells: the home gateway vision (Perspectives, [CIDR'13]).

A *trusted cell* regulates the personal data produced around an individual
at home: sensor streams land in the local PDS, the **cloud is used purely as
an encrypted storage service**, and applications only see what the owner's
policy releases. The cell composes pieces built earlier — a
:class:`PersonalDataServer`, the fleet ciphers, and the replica machinery —
into the deployment the slide sketches (ARM TrustZone box + dumb cloud).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.globalq.tokens import TokenFleet
from repro.pds.acl import PrivacyPolicy, Subject
from repro.pds.datamodel import PersonalDocument
from repro.pds.server import (
    PersonalDataServer,
    _deserialize_document,
    _serialize_document,
)
from repro.timeseries.series import TimeSeriesStore


class EncryptedCloudStore:
    """The dumb cloud: stores opaque blobs per cell, serves them back."""

    def __init__(self) -> None:
        self._blobs: dict[str, list[bytes]] = {}

    def put(self, cell_id: str, blob: bytes) -> int:
        self._blobs.setdefault(cell_id, []).append(blob)
        return len(self._blobs[cell_id]) - 1

    def get_all(self, cell_id: str) -> list[bytes]:
        return list(self._blobs.get(cell_id, []))

    def stored_bytes(self, cell_id: str) -> int:
        return sum(len(blob) for blob in self._blobs.get(cell_id, []))

    def snoop(self, cell_id: str) -> list[bytes]:
        """What a curious cloud operator sees: ciphertext only."""
        return self.get_all(cell_id)


@dataclass
class SensorEvent:
    """One reading from a home device."""

    sensor: str
    attributes: dict = field(default_factory=dict)


class TrustedCell:
    """The secure gateway of one home."""

    def __init__(
        self,
        owner: str,
        fleet: TokenFleet,
        cloud: EncryptedCloudStore,
        policy: PrivacyPolicy | None = None,
    ) -> None:
        self.cell_id = f"cell:{owner}"
        self.fleet = fleet
        self.cloud = cloud
        self.pds = PersonalDataServer(owner=owner, policy=policy)
        self._cipher = fleet.payload_cipher()
        self._archived = 0
        #: Per-sensor time series on the cell's own flash: high-frequency
        #: numeric streams go here (summarized pages, window queries),
        #: while the PDS keeps the document-shaped view.
        self.series: dict[str, TimeSeriesStore] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    def ingest_sensor(self, event: SensorEvent) -> int:
        """A sensor reading enters the cell and is archived encrypted.

        Numeric readings are *also* appended to the sensor's time series,
        so window/range analytics run on summarized pages instead of
        scanning documents.
        """
        document = PersonalDocument(
            kind="energy" if "kwh" in event.attributes else "form",
            attributes={**event.attributes, "sensor": event.sensor},
            source=event.sensor,
        )
        doc_id = self.pds.ingest(document)
        self.cloud.put(
            self.cell_id, self._cipher.encrypt(_serialize_document(document))
        )
        self._archived += 1
        numeric = next(
            (
                value
                for value in event.attributes.values()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ),
            None,
        )
        if numeric is not None:
            series = self.series.get(event.sensor)
            if series is None:
                series = TimeSeriesStore(
                    self.pds.token.allocator, name=f"series:{event.sensor}"
                )
                self.series[event.sensor] = series
            self._clock += 1
            series.append(self._clock, float(numeric))
        return doc_id

    def sensor_average(self, sensor: str, t0: int, t1: int) -> float | None:
        """Window AVG over one sensor's series (summary-skipping)."""
        series = self.series.get(sensor)
        if series is None:
            return None
        series.flush()
        return series.range_aggregate(t0, t1, "AVG")

    @property
    def archived_count(self) -> int:
        return self._archived

    # ------------------------------------------------------------------
    def restore_from_cloud(self) -> "TrustedCell":
        """Disaster recovery: rebuild a fresh cell from the encrypted archive.

        Durability without trusting the cloud: only a fleet token can turn
        the blobs back into documents.
        """
        replacement = TrustedCell(
            owner=self.pds.owner.name + "-restored",
            fleet=self.fleet,
            cloud=self.cloud,
            policy=self.pds.policy,
        )
        for blob in self.cloud.get_all(self.cell_id):
            document = _deserialize_document(self._cipher.decrypt(blob))
            replacement.pds.ingest(document)
        return replacement

    def app_query(self, app: Subject, query: str, n: int = 5):
        """An application searches through the policy gate."""
        return self.pds.search(app, query, n=n)

    def app_read(self, app: Subject, doc_id: int) -> PersonalDocument:
        return self.pds.read(app, doc_id)
