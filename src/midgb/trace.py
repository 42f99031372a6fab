"""Line-delimited JSON run traces.

Every line is one JSON object. Solve/inconsistency events are written the
moment they happen and flushed, so a killed run still leaks everything it had
already deduced. Round summaries and one terminal object follow.
"""

from __future__ import annotations

import json


class TraceWriter:
    """Writes trace lines to a file; a None path makes every call a no-op.

    ``event``, ``round`` and ``terminal`` each write through ``_write`` and
    never call one another, so a timing wrapper around all three counts
    every line once.
    """

    def __init__(self, path=None):
        self._fh = open(path, "w", encoding="utf-8") if path is not None else None

    def event(self, kind: str, round_no: int, var_name=None, value=None):
        self._write({"kind": kind, "round": round_no, "var": var_name, "value": value})

    def round(self, payload: dict):
        self._write(payload)

    def terminal(self, payload: dict):
        self._write(payload)

    def _write(self, obj: dict):
        """One line, flushed at once so a killed run keeps it."""
        if self._fh is None:
            return
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_trace(path) -> list:
    """Parse a trace file back into a list of dicts (one per line).

    A run killed mid-write can leave a torn final line; that one is dropped.
    A malformed line anywhere else still raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    out = []
    for i, line in enumerate(lines):
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break
            raise
    return out
