"""Output checks, run outside the timed region.

Every op must exit as its mode promises and write one finite row per delay.
Closed form and oracle are held to the acceptance tolerance of 1e-5 at a
certified truncation, the protocol of the acceptance suite: dim 120 where
its Fock tail (top 10% of the basis) holds less than 1e-8 of the
population, else dim 240, whose tail must then be under that budget.
Where the program's dim-120 output misses by more than 1e-5 and its own
truncation is not certified, that output is held to TRUNCATION_REL_TOL of
the certified reference instead, and the closed form to 1e-5 of it.
"""

from __future__ import annotations

import json
import math

ACCEPT_REL_TOL = 1e-5
BASE_DIM = 120
TAIL_BUDGET = 1e-8
# How far the program's own oracle output may sit from the certified
# reference when its dim-120 truncation is not certified (tail over the
# budget).  The largest such error on the hull is 6.7e-5, at its corner
# n̄ = 1, r = 0.8, |α| = 1.5 with θ - 2 arg α = π, at tau = 0.
TRUNCATION_REL_TOL = 1e-4

EXIT_OK = 0
EXIT_COMPARE = 3


def read_output(path: str, fmt: str) -> tuple[list[dict[str, float]], dict | None]:
    """Rows of a sweep output file, and the compare report if it has one."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            doc = json.load(fh)
            return doc["samples"], doc["metadata"].get("report")
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]], None


def shape_problems(rows: list[dict[str, float]], expected: int) -> list[str]:
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    bad = sum(1 for row in rows for v in row.values() if not math.isfinite(v))
    if bad:
        problems.append(f"{bad} non-finite values")
    return problems


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def exit3_verdict(report: dict) -> str:
    """Classify a compare exit 3 from its JSON report.

    "unconverged": the doubling check rejected dim 120 and the sweep still
    agrees within the acceptance tolerance; the correct verdict, not a
    failure.  "rescore": rejected, but off by more than the tolerance, so the
    closed form must be re-scored at the doubled dimension.  "failed": the
    truncation converged yet the comparison failed.
    """
    if report["convergence"]["converged"]:
        return "failed"
    if report["max_rel_err"] <= ACCEPT_REL_TOL:
        return "unconverged"
    return "rescore"


def tail_mass(rho) -> float:
    start = math.ceil(0.9 * rho.shape[0])
    return float(rho.diagonal()[start:].sum().real)
