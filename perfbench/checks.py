"""Correctness checks on the text each ``cellmimo`` command prints.

Each check returns a list of problems; an empty list means the output is
right.  Tolerances are no tighter than the laws' own: the noisy PZF law
accepts a quadrature error up to 100 x its 1e-9 target, so coverage values
are compared to 1e-7 absolute, and the rate integral accepts a relative
error of 1e-5, so rates are compared to 1e-5 relative.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import README_RATE_ANCHORS, Op

COVERAGE_ABS = 1e-7
RATE_REL = 1e-5
Z_GATE = 4.0


def zkey(z_db: float) -> str:
    return f"{z_db:.2f}"


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def coverage_by_z(text: str) -> dict[str, float]:
    return {zkey(float(r["z_db"])): float(r["coverage"]) for r in csv_rows(text)}


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def check_anchor(op: Op, text: str) -> list[str]:
    rows = csv_rows(text)
    want = op.spec.expected["coverage"]
    tol = max(op.spec.printed_half_unit, COVERAGE_ABS)
    if len(rows) != 1 or not _close(float(rows[0]["coverage"]), want, tol):
        return [f"{op.name}: README anchor {want} not reproduced: {text.strip()!r}"]
    return []


def check_curve(op: Op, text: str, reference: dict, counterpart: dict | None) -> list[str]:
    """Reference values, grid, monotonicity and (noisy) dominance."""
    problems = []
    values = coverage_by_z(text)
    keys = [zkey(z) for z in op.grid_db]
    if list(values) != keys:
        return [f"{op.name}: grid {list(values)} != expected {keys}"]
    ref = reference["curves"].get(op.name)
    for key in keys:
        got = values[key]
        if ref is not None and not _close(got, ref[key], COVERAGE_ABS):
            problems.append(f"{op.name} @ {key} dB: {got!r} vs recorded {ref[key]!r}")
        if counterpart is not None and not got <= counterpart[key] + COVERAGE_ABS:
            problems.append(f"{op.name} @ {key} dB: noisy {got!r} above zero-noise "
                            f"{counterpart[key]!r}")
    ordered = [values[k] for k in keys]
    for lo, hi, a, b in zip(keys, keys[1:], ordered, ordered[1:]):
        if b > a + COVERAGE_ABS:
            problems.append(f"{op.name}: coverage rises from {a!r} @ {lo} to {b!r} @ {hi} dB")
    if ref is None:
        problems.append(f"{op.name}: no recorded reference")
    return problems


def check_rate(op: Op, text: str, reference: dict) -> list[str]:
    problems = []
    try:
        got = json.loads(text)
    except json.JSONDecodeError:
        return [f"{op.name}: output is not JSON: {text[:200]!r}"]
    ref = reference["rates"].get(op.name)
    if ref is None:
        return [f"{op.name}: no recorded reference"]
    for key, want in ref.items():
        value = got.get(key)
        if not isinstance(value, (int, float)) or not _close(value, want, RATE_REL * abs(want)):
            problems.append(f"{op.name}: {key} = {value!r} vs recorded {want!r}")
    if op.name in README_RATE_ANCHORS:
        expected, half_unit = README_RATE_ANCHORS[op.name]
        for key, want in expected.items():
            value = got.get(key)
            tol = max(half_unit, RATE_REL * abs(want))
            if not isinstance(value, (int, float)) or not _close(value, want, tol):
                problems.append(f"{op.name}: {key} = {value!r}, README says {want}")
    return problems


def check_validate(op: Op, text: str) -> tuple[list[str], float]:
    """|z| <= 4 on every row; returns the problems and the largest SE."""
    rows = csv_rows(text)
    if not rows:
        return [f"{op.name}: no validation rows"], math.inf
    problems = []
    for r in rows:
        score = float(r["z_score"])
        if not abs(score) <= Z_GATE:
            problems.append(f"{op.name}: {r['receiver']} @ {r['z_db']} dB has z = {score}")
    return problems, max(float(r["std_error"]) for r in rows)


def check_mc_curve(op: Op, text: str, analytic: dict[str, float]) -> tuple[list[str], float]:
    """The validate gate applied to an MC coverage curve; returns the largest SE."""
    rows = csv_rows(text)
    if len(rows) != len(op.grid_db) or not analytic:
        return [f"{op.name}: unexpected output {text[:200]!r}"], math.inf
    problems = []
    worst_se = 0.0
    for r in rows:
        se = float(r["ci_halfwidth"]) / 1.96
        worst_se = max(worst_se, se)
        exact = analytic[zkey(float(r["z_db"]))]
        mc = float(r["coverage"])
        score = (mc - exact) / se if se > 0.0 else (0.0 if mc == exact else math.inf)
        if not abs(score) <= Z_GATE:
            problems.append(f"{op.name} @ {r['z_db']} dB: z = {score} (mc {mc}, law {exact})")
    return problems, worst_se
