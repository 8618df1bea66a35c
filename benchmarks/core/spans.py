"""In-memory spans around the benchmark's own calls into each layer.

A span holds a name, the layer it charges, start, end, its parent span and
an op id shared by all spans of one op. Spans are recorded only from the
benchmark's files (spans inside ``src/`` are a later change), kept in
memory, and written out when the traced run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op: int):
        index = len(self.spans)
        record = {
            "name": name,
            "layer": layer,
            "op": op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus the part its
        child spans cover. The ``bench`` layer is the replay's own glue."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            own = span["end"] - span["start"] - child_time
            out[span["layer"]] = out.get(span["layer"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class NullRecorder:
    """Same interface, records nothing: the untraced side of the
    tracing-overhead comparison."""

    def span(self, name: str, layer: str, op: int):
        return nullcontext()


def unattributed_share(recorder: Recorder, live_seconds: float) -> float:
    """1 - (layer self-times of the replayed ops) / (the same ops' time
    through the live service). What is left is what no layer call covers:
    task switches, thread hand-off, bus hops, queueing."""
    layers = recorder.self_times()
    attributed = sum(t for layer, t in layers.items() if layer != "bench")
    return 1.0 - attributed / live_seconds
