"""Command-line front end: single checks, parallel discriminant scans,
regression-table reproduction, and verdict reports.

Exit codes: 0 success, 1 internal error, 2 precondition violation,
3 mismatch against the frozen reference tables.
"""

import json
import os
import sys
from contextlib import contextmanager
from itertools import repeat
from multiprocessing import Pool

import click

from . import criterion, reference
from .arith import is_fundamental_discriminant, is_square
from .criterion import (LEVELS, Vanishing, compare, enumerate_forms, level_data,
                        table_condition_filter, vanishing_verdict)
from .errors import PreconditionError

# lcrit.oracle, the one module that loads numpy, is imported only under --oracle

EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3

COUNT = click.IntRange(min=0)
# most rows per pool task: a chunk reaches the parent only when all its rows
# are done, so a bounded chunk lets the first row print early
CHUNK_CAP = 16
# a scan row's columns in order: the CSV header, and the keys of each row dict
# and NDJSON line; the last two, the oracle's, only under --oracle
SCAN_FIELDS = ("D", "f_x1", "f_x2", "count_x1", "count_x2", "verdict",
               "oracle_verdict", "oracle_value")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(body):
    try:
        body()
    except PreconditionError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
    except Exception as exc:
        _fail(EXIT_INTERNAL, f"internal: {type(exc).__name__}: {exc}")


def _valid_pair(d: int, d0: int) -> bool:
    return d % 4 in (0, 1) and not is_square(d * d0)


@click.group()
def main():
    """Decide vanishing of twisted central L-values by exact form counts."""


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--disc", type=int, required=True, help="negative fundamental discriminant D")
@click.option("--json", "as_json", is_flag=True)
@click.option("--oracle", "with_oracle", is_flag=True,
              help="cross-check with the truncated L-series estimate")
@click.option("--dump-forms", is_flag=True)
def check(level, disc, as_json, with_oracle, dump_forms):
    """Verdict for one discriminant at one level."""
    def body():
        row = level_data(level)
        v = vanishing_verdict(level, disc)
        forms = [[list(q) for q in enumerate_forms(level, disc * row.d0, x)]
                 for x in (row.x1, row.x2)] if dump_forms else None
        est = None
        if with_oracle:
            from .oracle import estimate_l_value
            est = estimate_l_value(level, disc)
        if as_json:
            obj = {"level": level, "D": disc, "d0": row.d0,
                   "x1": str(row.x1), "x2": str(row.x2),
                   "f_x1": v.f_x1, "f_x2": v.f_x2,
                   "count_x1": v.count_x1, "count_x2": v.count_x2,
                   "verdict": v.outcome.value}
            if v.note:
                obj["note"] = v.note
            if dump_forms:
                obj["forms_x1"], obj["forms_x2"] = forms
            if est is not None:
                obj["oracle"] = {"verdict": est.verdict.value, "value": est.value,
                                 "terms": est.terms_used, "tail_bound": est.tail_bound,
                                 "caveats": list(est.caveats)}
            click.echo(json.dumps(obj))
            return
        click.echo(f"level {level}  D = {disc}  D0 = {row.d0}  Delta = {disc * row.d0}")
        click.echo(f"F({row.x1}) = {v.f_x1}   ({v.count_x1} forms)")
        click.echo(f"F({row.x2}) = {v.f_x2}   ({v.count_x2} forms)")
        sign = "=" if v.outcome is Vanishing.L_VANISHES else "!="
        click.echo(f"verdict: L {sign} 0 ({v.outcome.value})")
        if v.note:
            click.echo(f"note: {v.note}")
        if dump_forms:
            click.echo(f"forms at {row.x1}: {forms[0]}")
            click.echo(f"forms at {row.x2}: {forms[1]}")
        if est is not None:
            click.echo(f"oracle: {est.verdict.value}  value = {est.value:.6g}  "
                       f"tail <= {est.tail_bound:.2e}  ({est.terms_used} terms)")
            for c in est.caveats:
                click.echo(f"oracle caveat: {c}")
    _guarded(body)


def _scan_row(job):
    """The exact columns of one (level, D) row, keyed by SCAN_FIELDS."""
    v = compare(*job)
    return dict(zip(SCAN_FIELDS, (v.d, v.f_x1, v.f_x2, v.count_x1, v.count_x2,
                                  v.outcome.value)))


@contextmanager
def _scan_rows(jobs, parallel, chunk=None):
    """Scan rows for (level, D) jobs in order, from a pool of `parallel` workers
    (0: all cores) when that is more than one; chunk None means about four
    chunks per worker, at most CHUNK_CAP rows each.  Leaving the block stops
    the pool."""
    workers = parallel if parallel > 0 else (os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        with Pool(workers) as pool:
            chunk = chunk or min(CHUNK_CAP, max(1, len(jobs) // (4 * workers)))
            yield pool.imap(_scan_row, jobs, chunksize=chunk)
    else:
        yield map(_scan_row, jobs)


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--from", "from_d", type=int, required=True, help="start D (closer to zero)")
@click.option("--to", "to_d", type=int, required=True, help="end D (inclusive)")
@click.option("--good-only", is_flag=True,
              help="only fundamental D passing the level's registry condition")
@click.option("--parallel", type=COUNT, default=0, help="worker count (default: all cores)")
@click.option("--json", "as_json", is_flag=True, help="NDJSON rows instead of CSV")
@click.option("--oracle", "with_oracle", is_flag=True)
def scan(level, from_d, to_d, good_only, parallel, as_json, with_oracle):
    """Scan discriminants from --from down to --to, one row per valid D."""
    def body():
        row = level_data(level)
        if from_d >= 0 or to_d >= 0 or from_d < to_d:
            raise PreconditionError(
                f"need 0 > from >= to (scan descends), got from={from_d} to={to_d}")
        ds = [d for d in range(from_d, to_d - 1, -1) if _valid_pair(d, row.d0)]
        if good_only:
            ds = table_condition_filter(level, ds)
        elif with_oracle:
            for d in ds:
                if not is_fundamental_discriminant(d):
                    raise PreconditionError(f"--oracle needs fundamental D; D = {d} "
                                            "is not one (--good-only skips it)")
        accepted = [(level, d) for d in ds]
        if not as_json:
            fields = SCAN_FIELDS if with_oracle else SCAN_FIELDS[:-2]
            print(",".join(fields), flush=True)
        with _scan_rows(accepted, parallel) as rows:
            # imported and built after the pool has forked, while the
            # workers compute rows: they neither map numpy nor wait for it
            estimates = None
            if with_oracle:
                from .oracle import estimate_l_values
                estimates = estimate_l_values(level, [d for _, d in accepted])
            _emit_scan(rows, estimates, as_json)
    _guarded(body)


def _emit_scan(rows, estimates, as_json):
    """Print the rows in order, with one oracle estimate each unless
    `estimates` is None.  The estimate is drawn before its row, so the
    parent builds the coefficient series while the workers compute rows."""
    with_oracle = estimates is not None
    for est, r in zip(estimates if with_oracle else repeat(None), rows):
        if with_oracle:
            r.update(zip(SCAN_FIELDS[-2:], (est.verdict.value, est.value)))
        if as_json:
            line = json.dumps(r)
        else:
            line = ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in r.values())
        print(line, flush=True)


@main.command()
@click.argument("name", type=click.Choice(["maincor", "primes", "cubes", "discs"]))
@click.option("--parallel", type=COUNT, default=0,
              help="worker count (default: all cores); ignored by discs, which runs in one process")
def table(name, parallel):
    """Recompute a built-in reference table and compare against frozen values."""
    def body():
        if name == "discs":
            _table_discs()
        else:
            _table_values(name, parallel)
    _guarded(body)


def _table_values(name, parallel):
    level = reference.TABLE_LEVEL[name]
    row = level_data(level)
    expected = reference.rows_for(name)
    click.echo(f"table {name} (level {level}, x1 = {row.x1}, x2 = {row.x2})")
    click.echo(f"{'D':>12} {'F(x1)':>8} {'F(x2)':>8}  status")
    with _scan_rows([(level, d) for d, _, _, _ in expected], parallel, chunk=1) as rows:
        computed = list(rows)
    mismatches = 0
    for (d, f1, f2, verdict), got in zip(expected, computed):
        ok = (got["f_x1"], got["f_x2"]) == (f1, f2)
        status = "ok" if ok else f"MISMATCH (expected {f1}, {f2})"
        if not ok:
            mismatches += 1
        suffix = f"  [{verdict}]" if verdict else ""
        click.echo(f"{d:>12} {got['f_x1']:>8} {got['f_x2']:>8}  {status}{suffix}")
    if mismatches:
        _fail(EXIT_MISMATCH, f"table {name}: {mismatches} row(s) differ from frozen values")
    click.echo(f"all {len(computed)} rows match")


def _table_discs():
    click.echo("level registry and non-invariance lists "
               "(* = listed good fundamental entry)")
    mismatches = 0
    for level in sorted(LEVELS):
        row = LEVELS[level]
        recomputed = []
        for m in range(3, max(row.noninvariant_m) + 1):
            if not _valid_pair(-m, row.d0):
                continue
            if compare(level, -m).outcome is Vanishing.L_NONZERO:
                recomputed.append(m)
        listed_valid = [m for m in row.noninvariant_m if _valid_pair(-m, row.d0)]
        skipped = [m for m in row.noninvariant_m if m not in listed_valid]
        missing = [m for m in listed_valid if m not in recomputed]
        extra = [m for m in recomputed if m not in listed_valid]
        mark = lambda m: f"{m}*" if m in row.underlined_m else str(m)
        click.echo(f"level {level:>2}  D0 = {row.d0:>3}  x = ({row.x1}, {row.x2})  "
                   f"condition: {row.condition}")
        click.echo(f"  listed:     {' '.join(mark(m) for m in row.noninvariant_m)}")
        click.echo(f"  recomputed: {' '.join(str(m) for m in recomputed)}")
        if skipped:
            click.echo(f"  skipped (square |D*D0| or non-discriminant): "
                       f"{' '.join(str(m) for m in skipped)}")
        if missing:
            mismatches += len(missing)
            click.echo(f"  MISMATCH: listed but computed invariant: "
                       f"{' '.join(str(m) for m in missing)}")
        if extra:
            click.echo(f"  note: unlisted non-invariant m: "
                       f"{' '.join(str(m) for m in extra)}")
    if mismatches:
        _fail(EXIT_MISMATCH, f"table discs: {mismatches} listed value(s) not reproduced")
    click.echo("all listed non-invariant values reproduced")


def _echo_verdict(v):
    b = v.basis
    row = level_data(b.level)
    sign = "=" if b.outcome is Vanishing.L_VANISHES else "!="
    click.echo(f"n = {v.n}: {v.outcome.value}")
    click.echo(f"basis: level {b.level}, D = {b.d}, F({row.x1}) = {b.f_x1}, "
               f"F({row.x2}) = {b.f_x2} -> L {sign} 0")
    if b.note:
        click.echo(f"note: {b.note}")


@main.command()
@click.argument("n", type=int)
def congruent(n):
    """Congruent-number verdict for n = 3 (mod 8)."""
    _guarded(lambda: _echo_verdict(criterion.congruent_verdict(n)))


@main.command()
@click.argument("n", type=int)
def cubes(n):
    """Finiteness verdict for rational points on x^3 + n*y^2 = 432."""
    _guarded(lambda: _echo_verdict(criterion.cubes_verdict(n)))


if __name__ == "__main__":
    main()
