"""Seeded inputs for the lcrit benchmark workloads.

A workload is a fixed list of `lcrit` CLI invocations.  The seed only picks
where each scan window starts inside its |D| band; the window then runs over
consecutive D until it holds the wanted number of accepted rows.  D values are
drawn only through the package's public predicates (fundamental
discriminant, the level's table condition, non-square D*D0), which are the
same ones `scan --good-only` applies, so no invocation fails on a
precondition and the expected row list is known before the CLI runs.
"""

import random
from dataclasses import dataclass

from lcrit.arith import is_fundamental_discriminant, is_square
from lcrit.criterion import LEVELS, table_condition

# worker count for every invocation; the benchmark machine has 2 cores
PARALLEL = 2


@dataclass(frozen=True)
class ScanSpec:
    """One scan window: level, band for the window's starting |D|, rows."""

    level: int
    band: tuple
    rows: int


@dataclass(frozen=True)
class Workload:
    name: str
    scans: tuple
    tables: tuple = ()
    oracle: bool = False


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments after `python -m lcrit.cli`, and the D of the
    verdict rows it must print, in order (empty for tables)."""

    argv: tuple
    level: int = 0
    ds: tuple = ()
    table: str = ""
    oracle: bool = False


# Bands put one verdict at roughly 0.1-0.3 s for every level (the cost grows
# about linearly in |D| and differs by level through D0, q and N).
_LARGE_D = tuple(ScanSpec(level, (lo, lo + lo // 10), 3) for level, lo in (
    (11, 1_000_000), (14, 2_500_000), (15, 1_000_000), (17, 2_000_000),
    (19, 3_000_000), (20, 2_000_000), (21, 1_000_000), (24, 1_000_000),
    (27, 4_000_000), (32, 4_000_000), (36, 1_500_000), (49, 1_000_000)))

_SMALL_D = tuple(ScanSpec(level, (14_000, 16_000), rows) for level, rows in (
    (11, 250), (21, 120), (27, 250), (32, 300)))

# curve-route coefficients cost ~|D|^2 per row, so their bands are narrow;
# eta-route levels cost ~|D| and sit near |D| = 10^4
_ORACLE = (tuple(ScanSpec(level, (lo, lo + 40), 3) for level, lo in (
    (17, 280), (19, 280), (21, 280), (49, 200)))
    + tuple(ScanSpec(level, (8_000, 9_000), 3) for level in (11, 15, 27, 32)))

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("large-d", _LARGE_D, ("maincor", "primes", "cubes")),
    Workload("small-d", _SMALL_D, ("discs",)),
    Workload("oracle", _ORACLE, oracle=True),
)}


def accepted(level: int, d: int) -> bool:
    """The `scan --good-only` row filter."""
    return (is_fundamental_discriminant(d) and table_condition(level, d)
            and not is_square(d * LEVELS[level].d0))


def scan_invocation(spec: ScanSpec, start: int, oracle: bool) -> Invocation:
    """Window from D = -start downwards holding spec.rows accepted D."""
    ds = []
    d = -start
    while len(ds) < spec.rows:
        if accepted(spec.level, d):
            ds.append(d)
        d -= 1
    argv = ("scan", "--level", str(spec.level), "--from", str(-start), "--to", str(ds[-1]),
            "--good-only", "--parallel", str(PARALLEL))
    if oracle:
        argv += ("--oracle",)
    return Invocation(argv, spec.level, tuple(ds), oracle=oracle)


def generate(name: str, seed: int) -> list:
    """The invocations of one pass of a workload; same seed, same list."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    invocations = [scan_invocation(spec, rng.randint(*spec.band), workload.oracle)
                   for spec in workload.scans]
    for table in workload.tables:
        argv = ("table", table) if table == "discs" else ("table", table, "--parallel",
                                                          str(PARALLEL))
        invocations.append(Invocation(argv, table=table))
    return invocations
