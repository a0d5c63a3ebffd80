"""Correctness oracle for the benchmark: reduce CLI JSON output to the values
that must not change, and compare them with the recorded references.

A value is a node size of a sequence report, an example fact, or the entry
count of a sweep.  An output that stops reporting a value (the key is gone or
the size became null) is not an error; a value that differs is.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _report_values(prefix: str, reports: List[dict], out: Dict[str, object]) -> None:
    for rep in reports:
        for node, size in rep["nodes"]:
            out[f"{prefix}{rep['sequence']} | {node}"] = size


def _check_statuses(reports: List[dict]) -> List[str]:
    return [c["status"] for rep in reports for c in rep["checks"]]


def summarize(output: dict) -> Tuple[Dict[str, object], Dict[str, int]]:
    """Values and check-status counts of one `verify --json` or `examples --json` output."""
    values: Dict[str, object] = {}
    statuses: List[str] = []
    errors = 0
    if "entries" in output:
        values["total"] = output["total"]
        for entry in output["entries"]:
            if "error" in entry:
                errors += 1
                continue
            _report_values(f"{entry['name']} | ", entry["reports"], values)
            statuses += _check_statuses(entry["reports"])
    else:
        for label, value in output["facts"]:
            values[f"fact | {label}"] = value
        _report_values("", output["reports"], values)
        statuses += [c["status"] for c in output["checks"]]
        statuses += _check_statuses(output["reports"])
    counts = {
        "checks_done": sum(s != "skipped" for s in statuses),
        "checks_skipped": statuses.count("skipped"),
        "checks_failed": statuses.count("fail") + errors,
    }
    return values, counts


def mismatches(values: Dict[str, object], reference: Dict[str, object]) -> List[str]:
    """Reference keys whose reported value differs; unreported values pass."""
    bad = []
    for key, want in reference.items():
        got = values.get(key)
        if got is None or want is None:
            continue
        if got != want:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad
