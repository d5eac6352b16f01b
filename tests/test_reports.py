import csv
import json
from pathlib import Path

from pinchlab import reports
from pinchlab.models import literature_table
from pinchlab.reports import canonical_json, emit, persist, report_digest


def test_digest_ignores_volatile_keys():
    base = {"a": 1, "nested": {"b": [1, 2, 3]}}
    noisy = dict(base, wallTime=1.23, timestamp="now",
                 nested={"b": [1, 2, 3], "outPath": "/tmp/x"})
    assert report_digest(base) == report_digest(noisy)
    assert report_digest(base) != report_digest({"a": 2, "nested": base["nested"]})


def test_digest_key_order_independent():
    assert report_digest({"x": 1, "y": 2}) == report_digest({"y": 2, "x": 1})


def test_canonical_json_sorted_compact():
    assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


def test_emit_json_round_trips():
    rep = {"count": 3, "violations": []}
    assert json.loads(emit(rep, "json").decode()) == rep


def test_emit_csv_and_text_smoke():
    # model names such as sphere(4,1) hold commas: csv.reader reads every
    # row back with the header's field count and its model name whole
    table = literature_table()
    lines = emit(table, "csv").decode().splitlines()
    assert lines[0].startswith("model,ratio,einstein,")
    rows = list(csv.reader(lines))
    assert len(rows) == 1 + len(table["models"])
    assert [len(row) for row in rows] == [len(table["models"][0])] * len(rows)
    assert [row[0] for row in rows[1:]] == [m["model"] for m in table["models"]]
    assert rows[1][:2] == ["sphere(4,1)", "1/12"]
    assert emit({"models": []}, "csv") == b"\n"
    txt = emit(table, "text").decode()
    assert txt.startswith("constant") and "soliton(1/24)" in txt
    assert "constant" in emit({"constants": {}, "models": []}, "text").decode()


def test_persist_never_overwrites(tmp_path):
    rep = {"k": 1}
    p1 = persist(rep, tmp_path, stem="r")
    p2 = persist(rep, tmp_path, stem="r")
    assert p1 != p2
    assert p1.exists() and p2.exists()
    assert json.loads(p1.read_text()) == rep


def test_persist_names_a_report_by_its_own_digest_field(tmp_path):
    rep = {"k": 1}
    assert persist(rep, tmp_path, stem="r").stem.endswith(report_digest(rep)[:12])
    signed = {"k": 1, "digest": report_digest(rep)}
    assert persist(signed, tmp_path, stem="s").stem.endswith(report_digest(rep)[:12])


def test_persist_never_overwrites_a_file_created_meanwhile(tmp_path, monkeypatch):
    # a file that appears between a check and the write (another run, the
    # same digest, the same second) is kept: each name is created exclusively
    monkeypatch.setattr(reports.time, "strftime", lambda fmt: "20260101T000000")
    rep = {"k": 1}
    p1 = persist(rep, tmp_path, stem="r")
    p1.write_text("taken")
    monkeypatch.setattr(Path, "exists", lambda self: False)
    p2 = persist(rep, tmp_path, stem="r")
    assert p1 != p2 and p1.read_text() == "taken"
    assert json.loads(p2.read_text()) == rep


def test_digest_ignores_stage_timings():
    base = {"checks": [{"n": 4, "minGap1": 1.5}]}
    timed = {"checks": [{"n": 4, "minGap1": 1.5,
                         "timings": {"draw": 0.1, "solve": 0.2, "shift": 0.01}}]}
    assert report_digest(base) == report_digest(timed)
