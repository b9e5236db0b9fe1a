"""Seeded workload inputs: one `g2tau` argv per op.

Ops come in rounds, one op per stratum of the squeeze range r.  The
oracle's working basis is sized from r in steps of 0.4, so an oracle op
above r = 0.4 costs about twice (oracle mode) to six times (compare mode)
one below it.  The oracle workloads therefore give each round six strata
below r = 0.4 and two above: a run made of whole rounds always holds three
cheap ops to one dear one, so the median op lies inside the cheap mode and
the dear ones weigh on the mean and the tail, as closed_form mixes its
formats 3 to 1.  A round of eight such ops takes about 30 s.  Within a stratum r is uniform, the order of the strata is
shuffled per round, and n̄, θ, |α| and arg α are uniform over the hull of
the acceptance grid.  closed_form costs the same at any r and uses four
equal strata, a uniform draw over the hull.  Distinct states give distinct
couplings, so the program's caches never carry work from one op to the
next, as for a user who starts the CLI once per curve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

T_GEN = 1.0
TAU_MAX = 1.0
R_MAX = 0.8
HULL = {
    "nbar": (0.0, 1.0),
    "theta": (0.0, 2.0 * math.pi),
    "alpha_mag": (0.0, 1.5),
    "alpha_phase": (0.0, 2.0 * math.pi),
}

R_STEP = 0.4  # the oracle sizes its working basis from r in steps of R_STEP


def slices(lo: float, hi: float, n: int) -> tuple[tuple[float, float], ...]:
    edges = [lo + (hi - lo) * k / n for k in range(n)] + [hi]
    return tuple(zip(edges, edges[1:]))


EQUAL = slices(0.0, R_MAX, 4)
CHEAP_6_DEAR_2 = slices(0.0, R_STEP, 6) + slices(R_STEP, R_MAX, 2)


@dataclass(frozen=True)
class Workload:
    mode: str
    steps: int
    strata: tuple[tuple[float, float], ...]  # r range of each op of a round
    why: str
    oracle_dim: int | None = None
    json_every: int = 0  # every json_every-th op of a round writes JSON; 0 = none


WORKLOADS = {
    "closed_form": Workload(
        mode="closed_form",
        steps=2000,
        strata=EQUAL,
        json_every=4,
        why="closed-form sweeps, 3 CSV to 1 JSON; only gaussian_core and "
        "sweep_cli run, so oracle changes must leave it unchanged",
    ),
    "oracle_curve": Workload(
        mode="oracle",
        steps=500,
        strata=CHEAP_6_DEAR_2,
        oracle_dim=120,
        why="one state, 501 delays: per-delay oracle evolution and traces "
        "dominate",
    ),
    "compare_grid": Workload(
        mode="compare",
        steps=3,
        strata=CHEAP_6_DEAR_2,
        oracle_dim=120,
        json_every=1,  # the exit-3 verdict is read from the JSON report
        why="acceptance-grid shape, 4 delays plus the doubling check at 240: "
        "state preparation and eigensolves dominate",
    ),
}


@dataclass(frozen=True)
class Op:
    """One invocation: the state it was drawn from and the argv it runs."""

    nbar: float
    r: float
    theta: float
    alpha_mag: float
    alpha_phase: float
    fmt: str
    rows: int
    output: str
    argv: tuple[str, ...]


def make_argv(workload: Workload, state: dict, fmt: str, output: str) -> tuple[str, ...]:
    argv = ["--mode", workload.mode, "--steps", str(workload.steps)]
    if workload.oracle_dim is not None:
        argv += ["--oracle-dim", str(workload.oracle_dim)]
    for name in ("nbar", "r", "theta", "alpha_mag", "alpha_phase"):
        argv += ["--" + name.replace("_", "-"), repr(state[name])]
    argv += ["--t-gen", repr(T_GEN), "--tau-max", repr(TAU_MAX)]
    argv += ["--format", fmt, "--output", output]
    return tuple(argv)


def rounds(name: str, seed: int, outdir: str) -> Iterator[list[Op]]:
    """Endless rounds of ops; the same (name, seed) gives the same ops."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    size = len(workload.strata)
    while True:
        ops = []
        for slot, (r_lo, r_hi) in enumerate(rng.sample(workload.strata, size)):
            state = {key: rng.uniform(lo, hi) for key, (lo, hi) in HULL.items()}
            state["r"] = r_lo + (r_hi - r_lo) * rng.random()
            every = workload.json_every
            fmt = "json" if every and (slot + 1) % every == 0 else "csv"
            output = f"{outdir}/op.{fmt}"
            argv = make_argv(workload, state, fmt, output)
            ops.append(Op(fmt=fmt, rows=workload.steps + 1, output=output, argv=argv, **state))
        yield ops
