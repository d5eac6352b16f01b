"""Report emission and persistence: deterministic JSON/CSV/text rendering,
content digests (timing excluded), append-only output files."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from pathlib import Path

VOLATILE_KEYS = {"wallTime", "timings", "timestamp", "outPath", "toolVersion"}


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in sorted(obj.items())
                if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        return [_strip_volatile(v) for v in obj]
    return obj


def canonical_json(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      default=str)


def report_digest(report) -> str:
    """sha256 of the report content with volatile fields removed."""
    return hashlib.sha256(
        canonical_json(_strip_volatile(report)).encode()).hexdigest()


def emit(report, fmt="json") -> bytes:
    """Deterministic serialization of a report dict; csv and text render the
    literature table (models.literature_table)."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2, default=str)
                + "\n").encode()
    if fmt == "csv":
        return _emit_csv(report).encode()
    if fmt == "text":
        return _emit_text(report).encode()
    raise ValueError(f"unknown format {fmt!r}")


def _emit_csv(report) -> str:
    """The literature table's rows, one line each, under a header line;
    fields holding commas, such as the model names, are quoted."""
    cols = list(report["models"][0]) if report["models"] else []
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [cols] + [[row[c] for c in cols] for row in report["models"]])
    return out.getvalue()


def _emit_text(report) -> str:
    """The literature table: its constants, then its rows in aligned columns."""
    lines = [f"{'constant':<16}{'exact':<24}{'decimal':<12}"]
    for name, c in report["constants"].items():
        lines.append(f"{name:<16}{c['exact']:<24}{c['value']:<12.6f}")
    lines.append("")
    if report["models"]:
        cols = list(report["models"][0])
        widths = [max(len(str(r[c])) for r in report["models"] + [{c: c for c in cols}])
                  + 2 for c in cols]
        lines.append("".join(f"{c:<{w}}" for c, w in zip(cols, widths)))
        for r in report["models"]:
            lines.append("".join(f"{str(r[c]):<{w}}" for c, w in zip(cols, widths)))
    return "\n".join(lines) + "\n"


def persist(report, out_dir, stem="report") -> Path:
    """Write a timestamped JSON report; never overwrites existing files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    digest = report_digest(report)[:12]
    for k in range(10_000):
        suffix = "" if k == 0 else f"-{k}"
        path = out / f"{stem}-{stamp}-{digest}{suffix}.json"
        try:
            with open(path, "xb") as f:   # created here, or taken by another run
                f.write(emit(report, "json"))
        except FileExistsError:
            continue
        return path
    raise RuntimeError("could not find a free report filename")
