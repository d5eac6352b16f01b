import json

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
    table = literature_table()
    csv = emit(table, "csv").decode().splitlines()
    assert csv[0].startswith("model,ratio,einstein,")
    assert len(csv) == 1 + len(table["models"])
    assert "sphere(4,1),1/12," in csv[1]
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


def test_digest_ignores_stage_timings():
    base = {"checks": [{"n": 4, "minGap1": 1.5}]}
    timed = {"checks": [{"n": 4, "minGap1": 1.5,
                         "timings": {"draw": 0.1, "solve": 0.2, "shift": 0.01}}]}
    assert report_digest(base) == report_digest(timed)
