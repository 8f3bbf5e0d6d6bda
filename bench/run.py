"""lcrit benchmark: run a workload through the CLI and report its metrics.

    python3 bench/run.py --workload large-d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the CLI runs as `python -m lcrit.cli` with
the checkout's `src` on PYTHONPATH, nothing is installed.  Workloads are in
bench/workloads.py, `--workload all` runs each of them in turn.

--trace 0: one client runs the workload's invocations one after another (a
closed loop) and repeats the whole pass while the next one fits in
`--seconds`.  Each invocation's figures are its medians over the passes;
wall_s is their sum (one pass), rows_per_s the pass's verdict rows over
wall_s, first_row_s the mean time from launch to the first verdict row, and
peak_rss_mb the largest resident memory of a CLI process tree (pool workers
included).  setup_s is the median of `--help` invocations, two before every
pass, which import the package and numpy and compute nothing.

--trace 1: one untraced CLI pass, then the same rows replayed in this process
untraced and traced (bench/layers.py), giving the per-layer metrics; spans go
to bench/out/.

Every run checks the CLI's output: exit codes, table rows against
`lcrit.reference`, scan rows against the generator's D list and against
`criterion.f_sum` recomputed here (the first row of each scan with tracing
off, every row with tracing on), and identical output on every pass.  The
last line of stdout is the result as JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PER_PASS = 2
IMPORT_RUNS = 5
RSS_PERIOD_S = 0.02

ROW = {
    "scan": re.compile(r"-\d+,"),
    "table": re.compile(r"\s+-\d+\s+-?\d+\s+-?\d+\s+(ok|MISMATCH)"),
    "discs": re.compile(r"  recomputed:"),
}


class TreeRss(threading.Thread):
    """Samples the summed resident set of a process and its descendants."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_bytes = 0
        self._done = threading.Event()
        self._parents = {}
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self):
        for name in os.listdir("/proc"):
            if name.isdigit() and int(name) not in self._parents:
                try:
                    stat = Path(f"/proc/{name}/stat").read_text()
                except OSError:
                    continue
                self._parents[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = {self.pid}
        grew = True
        while grew:
            grown = {p for p, parent in self._parents.items() if parent in tree} | tree
            grew = len(grown) > len(tree)
            tree = grown
        total = 0
        for pid in tree:
            try:
                total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * self._page
            except OSError:
                continue
        self.peak_bytes = max(self.peak_bytes, total)

    def run(self):
        while True:
            self._sample()
            if self._done.wait(RSS_PERIOD_S):
                return

    def stop(self):
        self._done.set()
        self.join()


@dataclass
class Outcome:
    code: int
    wall_s: float
    first_row_s: float
    peak_rss_mb: float
    lines: list


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, row_pattern=None) -> Outcome:
    """Run `python -m lcrit.cli argv` to completion, stdout and stderr merged."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lcrit.cli", *argv], cwd=ROOT, env=cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    sampler = TreeRss(proc.pid)
    sampler.start()
    first = None
    lines = []
    try:
        for raw in proc.stdout:
            line = raw.decode()
            if first is None and row_pattern and row_pattern.match(line):
                first = perf_counter() - start
            lines.append(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        wall = perf_counter() - start
        sampler.stop()
    return Outcome(code, wall, first if first is not None else wall,
                   sampler.peak_bytes / 2 ** 20, lines)


def row_kind(inv):
    return "scan" if not inv.table else "discs" if inv.table == "discs" else "table"


def run_pass(invocations):
    return [run_cli(inv.argv, ROW[row_kind(inv)]) for inv in invocations]


def digest(outcomes):
    h = hashlib.sha256()
    for out in outcomes:
        h.update(f"exit {out.code}\n".encode())
        h.update("".join(out.lines).encode())
    return h.hexdigest()


def rows_of(inv, out):
    pattern = ROW[row_kind(inv)]
    return [line.rstrip("\n") for line in out.lines if pattern.match(line)]


def check(inv, out, expected):
    """(rows checked, rows wrong) for one invocation's output.

    expected: for a scan, {D: CSV fields} for the rows recomputed in-process;
    for a frozen table, the recomputed (D, F(x1), F(x2)) rows or None; for
    discs, {level: recomputed m list} or None.
    """
    from lcrit import criterion, reference

    rows = rows_of(inv, out)
    if not inv.table:
        wrong = 0
        width = 8 if inv.oracle else 6
        for i, line in enumerate(rows):
            fields = line.split(",")
            ok = (len(fields) == width and i < len(inv.ds) and fields[0] == str(inv.ds[i])
                  and (fields[1] == fields[2]) == (fields[5] == "vanishes")
                  and fields[5] in ("vanishes", "nonzero"))
            if ok and inv.ds[i] in expected:
                ok = fields == expected[inv.ds[i]]
            wrong += not ok
        return max(len(rows), len(inv.ds)), wrong + max(0, len(inv.ds) - len(rows))
    if inv.table == "discs":
        listed = [line.split(":", 1)[1].split() for line in rows]
        want = [[str(m) for m in expected[level]] for level in sorted(criterion.LEVELS)] \
            if expected else listed
        wrong = sum(a != b for a, b in zip(listed, want)) + abs(len(listed) - len(want))
        if not out.lines or "all listed non-invariant values reproduced" not in out.lines[-1]:
            wrong = max(wrong, 1)
        return max(len(rows), len(want)), wrong
    got = [tuple(int(v) for v in line.split()[:3]) for line in rows]
    frozen = [(d, f1, f2) for d, f1, f2, _ in reference.rows_for(inv.table)]
    wrong = sum(g != f or (expected is not None and g != e)
                for g, f, e in zip(got, frozen, expected or frozen))
    return len(frozen), wrong + abs(len(frozen) - len(got))


def verify(invocations, passes, expected):
    """(rows checked, rows wrong, invocations failed, output digests)."""
    checked = wrong = failed = 0
    digests = set()
    for outcomes in passes:
        digests.add(digest(outcomes))
        for inv, out, exp in zip(invocations, outcomes, expected):
            n, bad = check(inv, out, exp)
            checked += n
            wrong += bad
            failed += out.code != 0 or bad > 0
    return checked, wrong, failed, sorted(digests)


def environment():
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + name)), ref)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit}


def median_time(fn, runs):
    times = []
    for _ in range(runs):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(workload, seed, seconds):
    """Tracing off: setup time, then closed-loop passes for `seconds`."""
    import layers
    from workloads import generate

    invocations = generate(workload, seed)
    run_cli(["--help"])  # warm the byte-code and file caches
    setup = []
    passes = []
    pass_s = []
    begin = perf_counter()
    while not passes or perf_counter() - begin + statistics.median(pass_s) <= seconds:
        start = perf_counter()
        setup += [run_cli(["--help"]).wall_s for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(invocations))
        pass_s.append(perf_counter() - start)

    # the first row of every scan, recomputed in-process
    spot = layers.Replay()
    expected = [{inv.ds[0]: layers.scan_row(inv.level, inv.ds[0], inv.oracle, spot)}
                if not inv.table else None for inv in invocations]
    checked, wrong, failed, digests = verify(invocations, passes, expected)
    rows = sum(len(rows_of(inv, out)) for inv, out in zip(invocations, passes[0]))

    def per_invocation(attr):
        """Each invocation's median over passes: host noise comes in bursts of
        seconds, so medians of many short samples are steadier than pass sums."""
        return [statistics.median(getattr(outcomes[i], attr) for outcomes in passes)
                for i in range(len(invocations))]

    wall_s = sum(per_invocation("wall_s"))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "rows_per_s": (rows / wall_s, "1/s"),
        "first_row_s": (statistics.mean(per_invocation("first_row_s")), "s"),
        "peak_rss_mb": (max(per_invocation("peak_rss_mb")), "MB"),
    }
    attempted = len(passes) * len(invocations)
    info = {"passes": len(passes), "invocations_per_pass": len(invocations),
            "rows_per_pass": rows, "digest": digests,
            "fail_ratio": failed / attempted, "mismatch_ratio": wrong / max(checked, 1),
            "rows_checked": checked}
    correct = failed == 0 and wrong == 0 and len(digests) == 1
    return correct, attempted, failed, metrics, info


def import_time():
    code = ("import time; t = time.perf_counter(); import lcrit.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(IMPORT_RUNS)]
    return statistics.median(times)


def measure_traced(workload, seed):
    """Tracing on: one CLI pass, then the same rows replayed in-process
    untraced and traced."""
    import layers
    from lcrit import newformdata
    from workloads import PARALLEL, generate

    invocations = generate(workload, seed)
    cli_import_s = import_time()
    load_s = median_time(newformdata.load_newform_data, IMPORT_RUNS)
    outcomes = run_pass(invocations)
    untraced = layers.replay(invocations)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = layers.replay(invocations, tracer)
    finally:
        tracer.remove()

    expected = [exp if inv.table else {int(fields[0]): fields for fields in exp}
                for inv, exp in zip(invocations, traced.expected)]
    checked, wrong, failed, digests = verify(invocations, [outcomes], expected)
    pooled = [i for i, inv in enumerate(invocations) if inv.table != "discs"]
    efficiency = (sum(untraced.compute_s[i] for i in pooled)
                  / (PARALLEL * sum(outcomes[i].wall_s for i in pooled)))
    metrics = layers.layer_metrics(tracer, untraced, traced)
    metrics["newformdata.load_s"] = (load_s, "s")
    metrics["cli.import_s"] = (cli_import_s, "s")
    metrics["cli.pool.efficiency"] = (efficiency, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "spans": tracer.spans}))
    info = {"digest": digests, "fail_ratio": failed / len(invocations),
            "mismatch_ratio": wrong / max(checked, 1), "rows_checked": checked,
            "untraced_replay_s": untraced.wall_s, "traced_replay_s": traced.wall_s,
            "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    correct = failed == 0 and wrong == 0 and untraced.expected == traced.expected
    return correct, len(invocations), failed, metrics, info


def run_workload(workload, seed, seconds, trace):
    if trace:
        correct, attempted, failed, metrics, info = measure_traced(workload, seed)
    else:
        correct, attempted, failed, metrics, info = measure(workload, seed, seconds)
    info = {"workload": workload, "seed": seed, "trace": trace, **environment(), **info}
    for name, (value, unit) in metrics.items():
        print(f"{workload:>8}  {name:<44} {value:>14.6g} {unit}")
    for name in ("fail_ratio", "mismatch_ratio"):
        print(f"{workload:>8}  {name:<44} {info[name]:>14.6g} ratio")
    print("info " + json.dumps(info))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lcrit" / "cli.py").is_file():
        sys.exit(f"error: no lcrit sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in WORKLOADS}
        print(json.dumps(results))
        return
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
