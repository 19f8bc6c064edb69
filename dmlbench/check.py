"""Output checks behind `correct` and `failed`: every timed run's outputs
are compared with their serial twin, with seed-independent invariants and,
at the default seed, with the reference captured from the repository.

An operation (a sweep cell, a ring run, a Q3 answer, a serving DES run)
fails when the driver reports a non-OK Status for it or when any check on
its output fails.
"""

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Sweep CSV numbers carry 6 significant digits: a re-pin that moves only the
# low-order bits of a double may still flip the last printed digit.
CSV_REL_TOL = 2e-5
# Outputs the driver prints with all 17 digits.
JSON_REL_TOL = 1e-9
# Absolute slack for values that are rounding noise around zero (the
# analytic-vs-DES MAPE of an exact match reads ~1e-13 percent).
ABS_TOL = 1e-9
MAX_CONTENDED_MAPE_PCT = 15.0

CSV_INT_COLUMNS = {"cell", "optimal_nodes", "first_local_peak", "q1_nodes",
                   "q2_nodes", "q3_replicas"}
CSV_STR_COLUMNS = {"scenario", "hardware", "options", "comm", "status",
                   "scalable"}


def close(actual, expected, rel_tol):
    return math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=ABS_TOL)


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def diff_csv_row(row, ref_row):
    """Columns where `row` disagrees with `ref_row`: strings and integers
    exactly, doubles within CSV_REL_TOL."""
    bad = []
    for column, expected in ref_row.items():
        actual = row.get(column)
        if column in CSV_INT_COLUMNS or column in CSV_STR_COLUMNS:
            if actual != expected:
                bad.append(column)
            continue
        a, e = _as_float(actual or ""), _as_float(expected)
        if a is None or e is None:
            if actual != expected:
                bad.append(column)
        elif not close(a, e, CSV_REL_TOL):
            bad.append(column)
    return bad


def diff_json(actual, expected, path=""):
    """Paths where `actual` disagrees with `expected`: strings, booleans and
    integers exactly, doubles within JSON_REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [path or "."]
        out = []
        for key in expected:
            out += diff_json(actual[key], expected[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += diff_json(a, e, f"{path}[{i}]")
        return out
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [path]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or actual is None:
            return [path]
        return [] if close(float(actual), float(expected), JSON_REL_TOL) else [path]
    return [] if actual == expected else [path]


def check_sweep_csv(text, serial_text=None, reference_text=None):
    """Problems per operation (keyed by cell) in one sweep CSV."""
    problems = {}

    def flag(key, message):
        problems.setdefault(key, []).append(message)

    rows = _csv_rows(text)
    if not rows:
        flag("csv", "no cells in the sweep output: " + text.strip()[:200])
        return problems
    for row in rows:
        key = f"cell {row.get('cell')}"
        if row.get("status") != "ok":
            flag(key, f"status {row.get('status')!r}")
        if "@" in (row.get("comm") or "") and row.get("options") == "sim":
            mape = _as_float(row.get("mape_pct") or "")
            if mape is None or mape > MAX_CONTENDED_MAPE_PCT:
                flag(key, f"contended mape_pct {row.get('mape_pct')!r} > "
                          f"{MAX_CONTENDED_MAPE_PCT}")
    if serial_text is not None and text != serial_text:
        serial_rows = _csv_rows(serial_text)
        if len(serial_rows) != len(rows):
            flag("csv", "cell count differs from the serial run")
        for row, twin in zip(rows, serial_rows):
            if row != twin:
                flag(f"cell {row.get('cell')}", "differs from the serial run")
        if not problems:
            flag("csv", "bytes differ from the serial run")
    if reference_text is not None:
        ref_rows = _csv_rows(reference_text)
        if len(ref_rows) != len(rows):
            flag("csv", "cell count differs from the reference")
        for row, ref_row in zip(rows, ref_rows):
            bad = diff_csv_row(row, ref_row)
            if bad:
                flag(f"cell {row.get('cell')}",
                     "differs from the reference in " + ", ".join(bad))
    return problems


def _json_invariants(doc):
    """Seed-independent invariants of one JSON output, per operation."""
    kind = doc.get("kind")
    if kind == "serve-fleet":
        out = {}
        for part in _parts(doc).values():
            if part is not None:
                out.update(_json_invariants(part))
        return out
    msgs = []
    if not doc.get("ok"):
        msgs.append("status " + str(doc.get("status")))
    elif kind == "ring":
        expected = doc["nodes"] * (doc["steps"] + 1)
        if doc["events"] != expected:
            msgs.append(f"events {doc['events']} != nodes x (steps + 1) = "
                        f"{expected}")
    elif kind == "q3":
        if not doc["latency_s"] <= doc["slo_s"]:
            msgs.append(f"answer {doc['replicas']} misses the SLO: "
                        f"{doc['latency_s']} s > {doc['slo_s']} s")
        if doc["replicas"] > 1 and doc["below_feasible"] and \
                doc["below_latency_s"] <= doc["slo_s"]:
            msgs.append(f"answer - 1 = {doc['replicas'] - 1} replicas "
                        "already meets the SLO")
    elif kind == "serve-des":
        if doc["latency_count"] != doc["requests"]:
            msgs.append(f"latency_count {doc['latency_count']} != requests "
                        f"{doc['requests']}")
    else:
        msgs.append(f"unknown output kind {kind!r}")
    return {kind: msgs} if msgs else {}


def _parts(doc):
    """Operation kind -> its sub-document: a serve-fleet run is a Q3 answer
    and a serving DES run (absent when Q3 failed)."""
    if doc.get("kind") == "serve-fleet":
        return {"q3": doc.get("q3"), "serve-des": doc.get("des")}
    return {doc.get("kind"): doc}


def _load(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check_json(text, serial_text=None, reference_text=None):
    """Problems per operation in one JSON output."""
    doc = _load(text)
    if not isinstance(doc, dict):
        return {"json": ["unreadable output: " + text.strip()[:200]]}
    problems = _json_invariants(doc)
    if serial_text is not None and text != serial_text:
        serial = _load(serial_text)
        serial_parts = _parts(serial) if isinstance(serial, dict) else {}
        for name, part in _parts(doc).items():
            if part != serial_parts.get(name):
                problems.setdefault(name, []).append(
                    "differs from the serial run")
    if reference_text is not None:
        reference = json.loads(reference_text)
        for name, part in _parts(doc).items():
            bad = diff_json(part, _parts(reference).get(name))
            if bad:
                problems.setdefault(name, []).append(
                    "differs from the reference at " + ", ".join(bad[:5]))
    return problems


def check_output(text, extension, serial_text=None, reference_text=None):
    if extension == "csv":
        return check_sweep_csv(text, serial_text, reference_text)
    return check_json(text, serial_text, reference_text)


def reference_for(label, extension):
    path = REFERENCE_DIR / f"{label}.{extension}"
    return path.read_text() if path.exists() else None


def check_entries(entries, out_dir, use_reference):
    """Checks every output the driver listed. Returns (attempted, failed,
    problems): each side's failed count is the larger of the driver's
    non-OK Status count and the number of operations a check flagged."""
    attempted = failed = 0
    messages = []
    first_serial = {}
    for entry in entries:
        label = entry["label"]
        serial_text = None
        for side in ("serial", "parallel"):
            info = entry.get(side)
            if info is None:
                continue
            path = Path(out_dir) / info["file"]
            extension = path.suffix.lstrip(".")
            text = path.read_text() if path.exists() else ""
            reference = reference_for(label, extension) if use_reference else None
            twin = serial_text if side == "parallel" else first_serial.get(label)
            problems = check_output(text, extension, twin, reference)
            if side == "serial":
                serial_text = text
                first_serial.setdefault(label, text)
            attempted += info["attempted"]
            failed += min(info["attempted"],
                          max(info["failed"], len(problems)))
            for op, msgs in problems.items():
                for msg in msgs:
                    messages.append(f"{info['file']}: {op}: {msg}")
    return attempted, failed, messages
