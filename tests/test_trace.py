"""Trace file format: flushed JSON lines, identical across reruns."""

import json

import pytest

from midgb import (
    BenchSpec,
    EngineConfig,
    PolyRing,
    gen_system,
    groebner_basis,
    read_trace,
)
from midgb.trace import TraceWriter


def test_writer_produces_one_json_object_per_line(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(str(path)) as w:
        w.event("solved", 1, "x", 1)
        w.round({"round": 1, "pairs_selected": 2})
        w.terminal({"status": "GroebnerBasis"})
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        json.loads(line)
        assert ", " not in line  # compact separators


def test_event_lines_are_flushed_immediately(tmp_path):
    path = tmp_path / "t.jsonl"
    w = TraceWriter(str(path))
    w.event("solved", 2, "y", 0)
    # visible before close: a killed run still leaves the line on disk
    on_disk = path.read_text().splitlines()
    assert len(on_disk) == 1
    assert json.loads(on_disk[0])["var"] == "y"
    w.close()


def test_null_writer_is_inert():
    w = TraceWriter(None)
    w.event("solved", 1, "x", 1)
    w.round({})
    w.terminal({})
    w.close()  # nothing to assert beyond "does not blow up"


def test_read_trace_round_trips(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(str(path)) as w:
        w.round({"round": 1})
        w.terminal({"status": "RoundLimit"})
    got = read_trace(str(path))
    assert got[0]["round"] == 1
    assert got[-1]["status"] == "RoundLimit"


def test_engine_trace_shape(tmp_path):
    ring, F = gen_system(BenchSpec("eco", 4), order="grevlex")
    path = tmp_path / "run.jsonl"
    rep = groebner_basis(F, EngineConfig(ring, trace_path=str(path)))
    lines = read_trace(str(path))
    terminal = lines[-1]
    assert terminal["status"] == rep.status.value
    assert terminal["engine"] == "f4"
    assert terminal["total_rounds"] == rep.total_rounds
    rounds = [l for l in lines if "pairs_selected" in l]
    assert len(rounds) == rep.total_rounds
    for r in rounds:
        assert {"round", "pairs_selected", "new_polys", "max_degree",
                "events"} <= set(r)
        assert {"matrix_rows", "matrix_cols", "zero_rows"} <= set(r)
    # every emitted solve event has its own flushed line
    solved = [l for l in lines if l.get("kind") == "solved"]
    assert len(solved) == len(rep.events)


def test_reruns_are_byte_identical(tmp_path):
    ring, F = gen_system(BenchSpec("cyclic", 4), order="lex")
    blobs = []
    for k in range(2):
        path = tmp_path / f"run{k}.jsonl"
        groebner_basis(F, EngineConfig(ring, trace_path=str(path)))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_read_trace_drops_torn_final_line(tmp_path):
    path = tmp_path / "killed.trace"
    path.write_text('{"kind":"solved","round":1,"var":"x","value":1}\n{"status":"Round')
    records = read_trace(str(path))
    assert records == [{"kind": "solved", "round": 1, "var": "x", "value": 1}]


def test_read_trace_rejects_torn_interior_line(tmp_path):
    path = tmp_path / "corrupt.trace"
    path.write_text('{"round":\n{"kind":"solved","round":1,"var":"x","value":1}\n')
    with pytest.raises(json.JSONDecodeError):
        read_trace(str(path))
