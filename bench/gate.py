"""Correctness gate applied to every benchmark invocation.

An invocation passes when the CLI exits 0 with ``pass`` true, the report
validates against the versioned report schema, and the answers match the
expectations that the input generator derived from each construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

HOLONOMY_TOL = 1e-6


def load_validator(root: Path) -> jsonschema.Draft7Validator:
    schema = json.loads((root / "schemas" / "report-v1.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


def _expectation_errors(command: str, results: dict, expect: dict) -> list[str]:
    errors = []

    def want(key, got, label=None):
        if key in expect and got != expect[key]:
            errors.append(f"{label or key}: got {got!r}, expected {expect[key]!r}")

    if command == "classify":
        want("classification", results.get("tag"))
    elif command == "intersections":
        want("intersections", results.get("count"))
    elif command == "decompose":
        want("verdict", results.get("tag"))
        want("verdict_reason", results.get("reason", {}).get("kind"))
    elif command == "holonomy":
        loops = results.get("loops", [])
        for fol, mats in expect.get("holonomy", {}).items():
            got = [lp["matrix"] for lp in loops if str(lp["foliation"]) == fol]
            if len(got) != len(mats):
                errors.append(f"holonomy {fol}: {len(got)} loops, expected {len(mats)}")
                continue
            for m_got, m_want in zip(got, mats):
                err = max(abs(a - b) for ra, rb in zip(m_got, m_want) for a, b in zip(ra, rb))
                if err > HOLONOMY_TOL:
                    errors.append(f"holonomy {fol}: {m_got} differs from {m_want}")
    elif command == "verify-all":
        want("classification", results.get("classification", {}).get("tag"),
             "verify-all classification")
        if "verdict" in expect and "verdict" in results:
            want("verdict", results["verdict"], "verify-all verdict")
        errors += [f"check {row['check']} failed" for row in results.get("checks", [])
                   if not row["pass"]]
    return errors


def check(validator, command: str, expect: dict, rc: int, text: str) -> list[str]:
    """Reasons the invocation is wrong; an empty list means it passed."""
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if rc not in (0, 1):  # input and numeric errors write no report
        return errors
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return errors + [f"report is not JSON: {exc}"]
    errors += [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if report.get("pass") is not True:
        errors.append("report pass is not true")
    if report.get("command") != command:
        errors.append(f"report command {report.get('command')!r} != {command!r}")
    return errors + _expectation_errors(command, report.get("results", {}), expect)


def budget_uses(obj) -> list[float]:
    """value/budget of every numeric check row anywhere in a report."""
    out = []
    if isinstance(obj, dict):
        if {"check", "value", "budget"} <= set(obj) and obj["budget"] > 0:
            out.append(obj["value"] / obj["budget"])
        for v in obj.values():
            out += budget_uses(v)
    elif isinstance(obj, list):
        for v in obj:
            out += budget_uses(v)
    return out
