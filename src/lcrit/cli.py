"""Command-line front end: single checks, parallel discriminant scans,
regression-table reproduction, and verdict reports.

Exit codes: 0 success, 1 internal error, 2 precondition violation or bad
arguments, 3 mismatch against the frozen reference tables.  Each line is
flushed as printed: a pipe's reader gets each row when it is ready, and a
closed pipe fails inside main's guard.
"""

import argparse
import os
import signal
import sys
from contextlib import contextmanager
from itertools import islice

from . import criterion, reference
from .arith import is_fundamental_discriminant, is_square
from .criterion import (LEVELS, Vanishing, compare, enumerate_forms, level_data,
                        table_condition_filter, vanishing_verdict)
from .errors import PreconditionError

# lcrit.oracle is imported only under --oracle, and json only under --json

EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3

# a scan row's columns in order: the CSV header, and the keys of each row dict
# and NDJSON line; the last two, the oracle's, only under --oracle.  A child
# writes each cell as str(), and SCAN_TYPES reads it back.
SCAN_FIELDS = ("D", "f_x1", "f_x2", "count_x1", "count_x2", "verdict",
               "oracle_verdict", "oracle_value")
SCAN_TYPES = (int, int, int, int, int, str, str, float)


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _internal(exc: Exception) -> str:
    return f"internal: {type(exc).__name__}: {exc}"


def _count(text: str) -> int:
    """argparse type of a worker count: an int, 0 or more."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is not in the range x>=0.")
    return n


def _valid_pair(d: int, d0: int) -> bool:
    return d % 4 in (0, 1) and not is_square(d * d0)


def check(level, disc, as_json, with_oracle, dump_forms):
    """Verdict for one discriminant at one level."""
    row = level_data(level)
    v = vanishing_verdict(level, disc)
    forms = [[list(q) for q in enumerate_forms(level, disc * row.d0, x)]
             for x in (row.x1, row.x2)] if dump_forms else None
    est = None
    if with_oracle:
        from .oracle import estimate_l_value
        est = estimate_l_value(level, disc)
    if as_json:
        import json
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
                             "root_number": est.root_number}
        print(json.dumps(obj), flush=True)
        return
    print(f"level {level}  D = {disc}  D0 = {row.d0}  Delta = {disc * row.d0}", flush=True)
    print(f"F({row.x1}) = {v.f_x1}   ({v.count_x1} forms)", flush=True)
    print(f"F({row.x2}) = {v.f_x2}   ({v.count_x2} forms)", flush=True)
    sign = "=" if v.outcome is Vanishing.L_VANISHES else "!="
    print(f"verdict: L {sign} 0 ({v.outcome.value})", flush=True)
    if v.note:
        print(f"note: {v.note}", flush=True)
    if dump_forms:
        print(f"forms at {row.x1}: {forms[0]}", flush=True)
        print(f"forms at {row.x2}: {forms[1]}", flush=True)
    if est is not None:
        print(f"oracle: {est.verdict.value}  L_alg = {est.l_alg}  (exact modular-symbol sum)",
              flush=True)
        if est.root_number is not None:
            print(f"oracle root number: w(E_D) = chi_D(-N) = {est.root_number:+d}", flush=True)


def _scan_row(job):
    """One row keyed by SCAN_FIELDS: the exact columns of a (level, D) job,
    and the oracle's two as well for a (level, D, True) job."""
    level, d, *with_oracle = job
    v = compare(level, d)
    cells = (d, v.f_x1, v.f_x2, v.count_x1, v.count_x2, v.outcome.value)
    if with_oracle:
        from .oracle import estimate_l_value
        est = estimate_l_value(level, d)
        cells += (est.verdict.value, est.value)
    return dict(zip(SCAN_FIELDS, cells))


@contextmanager
def _scan_rows(jobs, parallel):
    """Scan rows for the jobs of _scan_row in order from W = min(parallel, len(jobs))
    processes (parallel 0: all cores; one where os.fork is missing).  This
    process computes jobs[0::W] and forks W - 1 children, child k streaming
    jobs[k::W] down a pipe.  Leaving the block kills and reaps every child."""
    workers = min(parallel or os.cpu_count() or 1, len(jobs)) if hasattr(os, "fork") else 1
    children, pipes = [], []
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _scan_child(jobs[k::workers], write_end, [*(p.fileno() for p in pipes), read_end])
            os.close(write_end)
            children.append(pid)
            pipes.append(os.fdopen(read_end, "rb"))
        yield _merge_rows(jobs, workers, pipes)
    finally:
        for p in pipes:
            p.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)  # an exited child stays a zombie until reaped
            os.waitpid(pid, 0)


def _scan_child(jobs, write_end, read_ends):
    """A forked worker: each row as one line of the exact columns, written
    when done; it exits at its next write once the parent is gone.  An error
    is reported as main reports it, in one write and before the pipe closes
    at exit, so before the parent's own line; not a closed pipe (the parent
    has left), nor what is not an Exception (SIGINT reaches the whole
    process group)."""
    status = 1
    try:
        for fd in read_ends:
            os.close(fd)
        for job in jobs:
            os.write(write_end, ",".join(map(str, _scan_row(job).values())).encode() + b"\n")
        status = 0
    except BrokenPipeError:
        pass
    except Exception as exc:
        sys.stderr.write(f"error: {_internal(exc)}\n")
        sys.stderr.flush()
    finally:  # never return into the parent's code
        os._exit(status)


def _merge_rows(jobs, workers, pipes):
    """Row i computed here when i % workers is 0, else read from that child."""
    for i, job in enumerate(jobs):
        if i % workers == 0:
            yield _scan_row(job)
        else:
            line = pipes[i % workers - 1].readline()
            if not line:
                raise RuntimeError(f"scan worker {i % workers} ended before row {i}")
            cells = line.decode().rstrip("\n").split(",")
            yield {k: read(c) for k, read, c in zip(SCAN_FIELDS, SCAN_TYPES, cells)}


def scan(level, from_d, to_d, good_only, parallel, as_json, with_oracle):
    """Scan discriminants from --from down to --to, one row per valid D."""
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
    jobs = [(level, d, True) if with_oracle else (level, d) for d in ds]
    if not as_json:
        fields = SCAN_FIELDS if with_oracle else SCAN_FIELDS[:-2]
        print(",".join(fields), flush=True)
    if with_oracle:
        from . import oracle  # once here, not again in each forked worker
        if jobs:
            oracle._eigen_functional(level)  # phi too, inherited by the workers
    with _scan_rows(jobs, parallel) as rows:
        _emit_scan(rows, as_json)


def _emit_scan(rows, as_json):
    """Print the rows in order, as CSV or NDJSON."""
    if as_json:
        import json
    for r in rows:
        if as_json:
            line = json.dumps(r)
        else:
            line = ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in r.values())
        print(line, flush=True)


def table(name, parallel):
    """Recompute a built-in reference table and compare against frozen values."""
    if name == "discs":
        _table_discs(parallel)
    else:
        _table_values(name, parallel)


def _table_values(name, parallel):
    level = reference.TABLE_LEVEL[name]
    row = level_data(level)
    expected = reference.rows_for(name)
    print(f"table {name} (level {level}, x1 = {row.x1}, x2 = {row.x2})", flush=True)
    print(f"{'D':>12} {'F(x1)':>8} {'F(x2)':>8}  status", flush=True)
    mismatches = 0
    with _scan_rows([(level, d) for d, _, _, _ in expected], parallel) as rows:
        for (d, f1, f2, verdict), got in zip(expected, rows):
            ok = (got["f_x1"], got["f_x2"]) == (f1, f2)
            status = "ok" if ok else f"MISMATCH (expected {f1}, {f2})"
            mismatches += not ok
            suffix = f"  [{verdict}]" if verdict else ""
            print(f"{d:>12} {got['f_x1']:>8} {got['f_x2']:>8}  {status}{suffix}", flush=True)
    if mismatches:
        _fail(EXIT_MISMATCH, f"table {name}: {mismatches} row(s) differ from frozen values")
    print(f"all {len(expected)} rows match", flush=True)


def _table_discs(parallel):
    print("level registry and non-invariance lists "
          "(* = listed good fundamental entry)", flush=True)
    levels = [(row, [m for m in range(3, max(row.noninvariant_m) + 1) if _valid_pair(-m, row.d0)])
              for row in map(LEVELS.get, sorted(LEVELS))]
    mismatches = 0
    with _scan_rows([(row.level, -m) for row, ms in levels for m in ms], parallel) as rows:
        for row, ms in levels:
            recomputed = [m for m, r in zip(ms, islice(rows, len(ms)))
                          if r["verdict"] == Vanishing.L_NONZERO.value]
            listed_valid = [m for m in row.noninvariant_m if _valid_pair(-m, row.d0)]
            skipped = [m for m in row.noninvariant_m if m not in listed_valid]
            missing = [m for m in listed_valid if m not in recomputed]
            extra = [m for m in recomputed if m not in listed_valid]
            mark = lambda m: f"{m}*" if m in row.underlined_m else str(m)
            print(f"level {row.level:>2}  D0 = {row.d0:>3}  x = ({row.x1}, {row.x2})  "
                  f"condition: {row.condition}", flush=True)
            print(f"  listed:     {' '.join(mark(m) for m in row.noninvariant_m)}", flush=True)
            print(f"  recomputed: {' '.join(str(m) for m in recomputed)}", flush=True)
            if skipped:
                print(f"  skipped (square |D*D0| or non-discriminant): "
                      f"{' '.join(str(m) for m in skipped)}", flush=True)
            if missing:
                mismatches += len(missing)
                print(f"  MISMATCH: listed but computed invariant: "
                      f"{' '.join(str(m) for m in missing)}", flush=True)
            if extra:
                print(f"  note: unlisted non-invariant m: "
                      f"{' '.join(str(m) for m in extra)}", flush=True)
    if mismatches:
        _fail(EXIT_MISMATCH, f"table discs: {mismatches} listed value(s) not reproduced")
    print("all listed non-invariant values reproduced", flush=True)


def _echo_verdict(v):
    b = v.basis
    row = level_data(b.level)
    sign = "=" if b.outcome is Vanishing.L_VANISHES else "!="
    print(f"n = {v.n}: {v.outcome.value}", flush=True)
    print(f"basis: level {b.level}, D = {b.d}, F({row.x1}) = {b.f_x1}, "
          f"F({row.x2}) = {b.f_x2} -> L {sign} 0", flush=True)
    if b.note:
        print(f"note: {b.note}", flush=True)


def congruent(n):
    """Congruent-number verdict for n = 3 (mod 8)."""
    _echo_verdict(criterion.congruent_verdict(n))


def cubes(n):
    """Finiteness verdict for rational points on x^3 + n*y^2 = 432."""
    _echo_verdict(criterion.cubes_verdict(n))


def parser() -> argparse.ArgumentParser:
    """The `lcrit` parser: one subcommand per command function, whose
    docstring is its help; the parsed options are its keyword arguments."""
    top = argparse.ArgumentParser(prog="lcrit", description=main.__doc__, allow_abbrev=False)
    commands = top.add_subparsers(dest="command", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    arg = command(check)
    arg("--level", type=int, required=True)
    arg("--disc", type=int, required=True, help="negative fundamental discriminant D")
    arg("--json", dest="as_json", action="store_true")
    arg("--oracle", dest="with_oracle", action="store_true",
        help="cross-check with the exact modular-symbol value L_alg(D)")
    arg("--dump-forms", action="store_true")
    arg = command(scan)
    arg("--level", type=int, required=True)
    arg("--from", dest="from_d", type=int, required=True, help="start D (closer to zero)")
    arg("--to", dest="to_d", type=int, required=True, help="end D (inclusive)")
    arg("--good-only", action="store_true",
        help="only fundamental D passing the level's registry condition")
    arg("--parallel", type=_count, default=0, help="worker count (default: all cores)")
    arg("--json", dest="as_json", action="store_true", help="NDJSON rows instead of CSV")
    arg("--oracle", dest="with_oracle", action="store_true")
    arg = command(table)
    arg("name", choices=["maincor", "primes", "cubes", "discs"])
    arg("--parallel", type=_count, default=0,
        help="worker count (default: all cores)")
    for run in (congruent, cubes):
        command(run)("n", type=int)
    return top


def main(argv=None):
    """Decide vanishing of twisted central L-values by exact form counts."""
    args = vars(parser().parse_args(argv))
    run = args.pop("run")
    del args["command"]
    try:
        run(**args)
    except PreconditionError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
    except Exception as exc:
        _fail(EXIT_INTERNAL, _internal(exc))


def run():
    """The process entry of `python -m lcrit.cli` and the `lcrit` script:
    main(), then os._exit with the status sys.exit would give, once stdout
    and stderr are flushed, so the process skips interpreter teardown."""
    try:
        main()
        status = 0
    except SystemExit as exc:  # main exits with an int or None
        status = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader left, as main's guard treats it
        pass
    os._exit(status)


if __name__ == "__main__":
    run()
