"""Machine-readable report files for the command-line runs.

A report is a command name, a config echo, a list of flat result records,
and a summary dict.  The JSON form is {meta, config, results, summary}
with sorted keys; the CSV form is the records flattened under comment
headers.  The generation timestamp lives only in the meta header, so two
runs with identical config produce byte-identical payloads once that
header is stripped.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from io import StringIO
from typing import Any

def rational_str(value: Fraction | int) -> str:
    """`p/q` form, plain integer when the denominator is 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def jsonable(value: Any) -> Any:
    """Recursively rewrite values into JSON-stable primitives.

    Fractions become `p/q` strings so payloads stay exact; tuples become
    lists; dict keys are forced to strings.
    """
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to serialize a float: {value!r}")
    raise TypeError(f"no stable serialization for {type(value).__name__}")


def make_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class Report:
    command: str
    config: dict
    results: list[dict]
    summary: dict
    timestamp: str = field(default_factory=make_timestamp)

    def payload(self) -> dict:
        """Everything except the volatile meta header."""
        return {
            "command": self.command,
            "config": jsonable(self.config),
            "results": [jsonable(r) for r in self.results],
            "summary": jsonable(self.summary),
        }


def render_json(report: Report) -> str:
    doc = {"meta": {"generated": report.timestamp}}
    doc.update(report.payload())
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def render_csv(report: Report) -> str:
    payload = report.payload()
    out = StringIO()
    out.write(f"# generated {report.timestamp}\n")
    out.write(f"# command {report.command}\n")
    compact = dict(sort_keys=True, separators=(",", ":"))
    out.write(f"# config {json.dumps(payload['config'], **compact)}\n")
    out.write(f"# summary {json.dumps(payload['summary'], **compact)}\n")
    records = payload["results"]
    columns: list[str] = []
    for rec in records:
        for key in rec:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_csv_cell(rec.get(col)) for col in columns])
    return out.getvalue()


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def strip_volatile(text: str) -> str:
    """Drop the timestamp header line from either rendering.

    The remainder is the deterministic payload; identical configs must
    reproduce it byte for byte.
    """
    kept = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("# generated ") or s.startswith('"generated":'):
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written report."""
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory, delete=False, suffix=".tmp"
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
