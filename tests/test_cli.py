"""Command-line interface: exit codes (a closed stdout, refused arguments
and an unexpected error included), CSV/JSON schemas, scan determinism across
worker counts, the parent's share of the rows, no child outliving a scan, a
failing worker naming its error, tables streaming their rows, oracle columns,
reference-table comparison, no module loaded from outside the standard
library on any path, --oracle included, no multiprocessing, dataclasses or
json on the exact paths, and README naming every option and no other."""

import argparse
import ast
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import lcrit
from lcrit import cli, oracle, reference
from lcrit.arith import is_fundamental_discriminant
from lcrit.criterion import LEVELS, table_condition
from lcrit.oracle import estimate_l_value

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"
# the directory holding the lcrit package this test process imported
PACKAGE_PARENT = Path(lcrit.__file__).resolve().parent.parent

# the wrapper an installer writes for a `name = "module:attr"` console script
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def invoke(*args):
    """Run `lcrit args` in this process: its exit code, stdout, stderr, and
    output (stdout then stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue())


def test_check_reports_both_sums():
    r = invoke("check", "--level", "32", "--disc", "-371")
    assert r.exit_code == 0
    assert "F(0) = 4" in r.output
    assert "F(1/3) = 4" in r.output
    assert "L = 0" in r.output


def test_check_level27_row():
    r = invoke("check", "--level", "27", "--disc", "-3115")
    assert r.exit_code == 0
    assert "F(0) = 8" in r.output
    assert "F(1/2) = 8" in r.output
    assert "L = 0" in r.output


def test_check_precondition_exit_code():
    r = invoke("check", "--level", "32", "--disc", "-7")
    assert r.exit_code == 2
    assert "3 (mod 8)" in r.output
    r = invoke("check", "--level", "32", "--disc", "-9")
    assert r.exit_code == 2
    r = invoke("check", "--level", "13", "--disc", "-11")
    assert r.exit_code == 2
    # refused by the parser: --disc missing, an unknown option
    assert invoke("check", "--level", "32").exit_code == 2
    assert invoke("check", "--level", "32", "--disc", "-11", "--bogus").exit_code == 2


def test_check_json_with_forms():
    r = invoke("check", "--level", "32", "--disc", "-11", "--json", "--dump-forms")
    assert r.exit_code == 0
    obj = json.loads(r.output)
    assert obj["level"] == 32 and obj["D"] == -11
    assert (obj["f_x1"], obj["f_x2"]) == (0, 1)
    assert obj["verdict"] == "nonzero"
    assert obj["forms_x1"] == []
    assert obj["forms_x2"] == [[-32, 17, -2]]
    assert obj["count_x1"] == 0 and obj["count_x2"] == 1


def test_check_with_oracle():
    r = invoke("check", "--level", "32", "--disc", "-11", "--oracle")
    assert r.exit_code == 0
    assert "oracle: nonzero  L_alg = 4  (exact modular-symbol sum)" in r.output
    r = invoke("check", "--level", "32", "--disc", "-219", "--oracle")
    assert r.exit_code == 0
    assert "oracle: zero  L_alg = 0  (exact modular-symbol sum)" in r.output


def test_check_oracle_reports_root_number():
    # w(E_D) = chi_D(-N) for gcd(D, N) = 1, in text and under --json; at the
    # square level 49 it is -1 for every D < 0, and L_alg = 0 there
    for level, disc, w, l_alg in ((32, -11, 1, 4), (49, -115, -1, 0)):
        text = invoke("check", "--level", str(level), "--disc", str(disc), "--oracle")
        assert text.exit_code == 0, text.output
        assert f"oracle root number: w(E_D) = chi_D(-N) = {w:+d}" in text.output
        r = invoke("check", "--level", str(level), "--disc", str(disc), "--oracle", "--json")
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["oracle"] == {
            "verdict": "zero" if l_alg == 0 else "nonzero", "value": float(l_alg),
            "root_number": w, "caveats": []}
    # gcd(D, N) > 1: no root number, and the verdict says why it is open
    r = invoke("check", "--level", "15", "--disc", "-39", "--oracle", "--json")
    assert r.exit_code == 0, r.output
    obj = json.loads(r.stdout)["oracle"]
    assert obj["verdict"] == "indeterminate" and obj["root_number"] is None
    assert "gcd(|D|, N) = 3 > 1" in obj["caveats"][0]
    text = invoke("check", "--level", "15", "--disc", "-39", "--oracle")
    assert "root number" not in text.output and "oracle: indeterminate" in text.output


def _csv_rows(output):
    lines = output.strip().splitlines()
    assert lines[0] == "D,f_x1,f_x2,count_x1,count_x2,verdict"
    return {int(parts[0]): parts for parts in
            (line.split(",") for line in lines[1:])}


def test_scan_good_only_reproduces_known_rows():
    r = invoke("scan", "--level", "32", "--from", "-3", "--to", "-250",
               "--good-only", "--parallel", "1")
    assert r.exit_code == 0
    rows = _csv_rows(r.output)
    assert rows[-11][1:3] == ["0", "1"]
    assert rows[-19][1:3] == ["0", "1"]
    assert rows[-35][1:3] == ["0", "2"]
    assert rows[-219][1:3] == ["2", "2"]
    assert rows[-219][5] == "vanishes"
    assert rows[-11][5] == "nonzero"


def test_scan_level27_rows():
    r = invoke("scan", "--level", "27", "--from", "-3", "--to", "-300",
               "--parallel", "1")
    assert r.exit_code == 0
    rows = _csv_rows(r.output)
    assert rows[-7][1:3] == ["0", "2"]
    assert rows[-31][1:3] == ["2", "2"]
    assert rows[-115][1:3] == ["0", "4"]
    assert rows[-283][1:3] == ["2", "2"]


def test_scan_empty_range_header_only():
    r = invoke("scan", "--level", "32", "--from", "-5", "--to", "-9",
               "--good-only", "--parallel", "1")
    assert r.exit_code == 0
    assert r.output.strip() == "D,f_x1,f_x2,count_x1,count_x2,verdict"


def test_scan_good_only_equals_literal_filter():
    # the prefilter tests the level's clauses before it factorizes D; it
    # must keep exactly the D the literal filter keeps, in scan order
    for level, row in LEVELS.items():
        kept = 0
        for start in (-3, -100003):
            window = range(start, start - 150, -1)
            expected = [d for d in window if cli._valid_pair(d, row.d0)
                        and is_fundamental_discriminant(d) and table_condition(level, d)]
            r = invoke("scan", "--level", str(level), "--from", str(start),
                       "--to", str(window[-1]), "--good-only", "--parallel", "1")
            assert r.exit_code == 0, (level, start)
            assert list(_csv_rows(r.output)) == expected, (level, start)
            kept += len(expected)
        assert kept, level


def test_scan_deterministic_across_workers():
    for extra in ((), ("--good-only", "--oracle")):
        window = ("scan", "--level", "32", "--from", "-3", "--to", "-400", *extra)
        serial = invoke(*window, "--parallel", "1")
        parallel = invoke(*window, "--parallel", "8")
        assert serial.exit_code == 0 and parallel.exit_code == 0, extra
        assert serial.output == parallel.output, extra
    # tables at two or three workers, and a two-row scan asking for three and eight
    few = ("scan", "--level", "32", "--from", "-3", "--to", "-20", "--good-only")
    for args, counts in ((("table", "primes"), ("3",)), (("table", "cubes"), ("3",)),
                         (("table", "discs"), ("2", "3")), (few, ("3", "8"))):
        serial = invoke(*args, "--parallel", "1")
        assert serial.exit_code == 0, args
        for n in counts:
            assert invoke(*args, "--parallel", n).output == serial.output, (args, n)
    assert len(serial.output.splitlines()) - 1 == 2


def _scan_ds(output):
    return [int(line.split(",")[0]) for line in output.splitlines()[1:]]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


WINDOW = ("scan", "--level", "32", "--from", "-3", "--to", "-400", "--good-only")


def test_parent_computes_its_stride(monkeypatch):
    # the printing process is worker 0: of W workers it computes rows 0, W,
    # 2W, ... and reads the others from its children, whose spy records stay
    # in the child
    seen = []
    scan_row = cli._scan_row

    def spy(job):
        seen.append(job[1])
        return scan_row(job)
    monkeypatch.setattr(cli, "_scan_row", spy)
    serial = invoke(*WINDOW, "--parallel", "1")
    ds = _scan_ds(serial.stdout)
    assert serial.exit_code == 0 and seen == ds and len(ds) > 6
    for workers in (2, 3):
        seen.clear()
        r = invoke(*WINDOW, "--parallel", str(workers))
        assert r.exit_code == 0 and r.output == serial.output, workers
        assert seen == ds[0::workers], workers


def test_table_discs_runs_on_the_scan_workers(monkeypatch):
    # one job list, each level's valid m from 3 up in level order; of two
    # workers the printing process computes jobs 0, 2, 4, ...
    jobs = [(level, -m) for level, row in sorted(LEVELS.items())
            for m in range(3, max(row.noninvariant_m) + 1) if cli._valid_pair(-m, row.d0)]
    seen = []
    scan_row = cli._scan_row

    def spy(job):
        seen.append(job)
        return scan_row(job)
    monkeypatch.setattr(cli, "_scan_row", spy)
    serial = invoke("table", "discs", "--parallel", "1")
    assert serial.exit_code == 0 and seen == jobs
    seen.clear()
    r = invoke("table", "discs", "--parallel", "2")
    assert r.exit_code == 0 and r.output == serial.output
    assert seen == jobs[0::2]


def test_tables_stream_their_rows(monkeypatch):
    # each row prints when it is computed: a failure at the fifth row leaves
    # the two header lines and the four rows before it on stdout
    ds = [d for d, *_ in reference.rows_for("maincor")]
    scan_row = cli._scan_row

    def spy(job):
        if job[1] == ds[4]:
            raise RuntimeError("spy")
        return scan_row(job)
    monkeypatch.setattr(cli, "_scan_row", spy)
    r = invoke("table", "maincor", "--parallel", "1")
    assert r.exit_code == 1
    lines = r.stdout.splitlines()
    assert lines[0].startswith("table maincor (level 32") and lines[1].split()[0] == "D"
    assert [int(line.split()[0]) for line in lines[2:]] == ds[:4]


def test_scan_reaps_its_children(monkeypatch):
    assert invoke(*WINDOW, "--parallel", "3").exit_code == 0
    _assert_no_child_left()
    # child 1's first row fails while child 2 stalls in its first: the scan
    # exits internal at once, and no child is left
    ds = _scan_ds(invoke(*WINDOW, "--parallel", "1").stdout)
    scan_row = cli._scan_row

    def spy(job):
        if job[1] == ds[1]:
            raise RuntimeError("spy")
        if job[1] == ds[2]:
            time.sleep(60)
        return scan_row(job)
    monkeypatch.setattr(cli, "_scan_row", spy)
    start = time.perf_counter()
    r = invoke(*WINDOW, "--parallel", "3")
    assert time.perf_counter() - start < 30
    assert r.exit_code == 1
    assert "error: internal: RuntimeError: scan worker 1 ended before row 1" in r.stderr
    _assert_no_child_left()


# a scan whose _scan_row raises at one D
FAILING_ROW = """\
from lcrit import cli

scan_row = cli._scan_row

def spy(job):
    if job[1] == {d}:
        raise RuntimeError("spy")
    return scan_row(job)

cli._scan_row = spy
cli.main({args!r})
"""


def test_failing_worker_says_why(tmp_path):
    # in this process a forked child would write to its copy of the
    # redirected sys.stderr, so the scan runs in a subprocess; with two
    # workers, row 1 is child 1's
    d = _scan_ds(invoke(*WINDOW, "--parallel", "1").stdout)[1]
    args = [*WINDOW, "--parallel", "2"]
    proc = run_python(["-c", FAILING_ROW.format(d=d, args=args)], tmp_path, timeout=120)
    # the child reports before its pipe closes, so before the parent does
    assert proc.returncode == 1
    assert proc.stderr == ("error: internal: RuntimeError: spy\n"
                           "error: internal: RuntimeError: scan worker 1 ended before row 1\n")


def test_reader_leaving_mid_scan_leaves_no_child(tmp_path):
    # each row at |D| ~ 1e8 takes a while, so the children are mid-row when
    # the reader leaves after the first one
    args = ("scan", "--level", "32", "--from", "-100000003", "--to", "-100003000",
            "--good-only", "--parallel", "3")
    proc = subprocess.Popen([sys.executable, "-m", "lcrit.cli", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(), cwd=tmp_path)
    try:
        assert proc.stdout.readline() == b"D,f_x1,f_x2,count_x1,count_x2,verdict\n"
        assert proc.stdout.readline().startswith(b"-100000")
        proc.stdout.close()
        # stderr ends only once every process holding it has exited
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 0 and err == b"", err


def test_scan_oracle_builds_once_per_window(monkeypatch):
    # phi is built once per level and process, however many rows and scans
    built = []
    build = oracle._eigen_functional

    def counted(level):
        built.append(level)
        return build(level)
    monkeypatch.setattr(oracle, "_FUNCTIONALS", {})
    monkeypatch.setattr(oracle, "_eigen_functional", counted)
    # a window with no accepted D: header only, nothing built
    r = invoke("scan", "--level", "32", "--from", "-1", "--to", "-2", "--good-only",
               "--oracle", "--parallel", "1")
    assert r.exit_code == 0, r.output
    assert r.output.strip() == ("D,f_x1,f_x2,count_x1,count_x2,verdict,"
                                "oracle_verdict,oracle_value")
    assert built == []
    for _ in range(2):
        r = invoke("scan", "--level", "32", "--from", "-3", "--to", "-35", "--good-only",
                   "--oracle", "--parallel", "1")
        assert r.exit_code == 0
        assert [line.split(",")[0] for line in r.output.splitlines()[1:]] == ["-11", "-19", "-35"]
        assert built == [32]
    r = invoke("scan", "--level", "27", "--from", "-3", "--to", "-35", "--good-only",
               "--oracle", "--parallel", "1")
    assert r.exit_code == 0 and len(r.output.splitlines()) > 2
    assert built == [32, 27]


def test_scan_csv_and_json_rows_agree():
    # one field list: the CSV header is the NDJSON keys, and each CSV row is
    # its JSON row's values, the oracle value printed as .6g
    window = ("scan", "--level", "32", "--from", "-3", "--to", "-250", "--good-only",
              "--parallel", "1")
    for extra in ((), ("--oracle",)):
        csv_lines = invoke(*window, *extra).output.splitlines()
        objs = [json.loads(line) for line in invoke(*window, *extra, "--json").output.splitlines()]
        assert len(objs) == len(csv_lines) - 1 > 1
        header = csv_lines[0].split(",")
        assert header == ["D", "f_x1", "f_x2", "count_x1", "count_x2", "verdict",
                          *(["oracle_verdict", "oracle_value"] if extra else [])]
        for line, obj in zip(csv_lines[1:], objs):
            assert list(obj) == header
            cells = [f"{v:.6g}" if k == "oracle_value" else str(v) for k, v in obj.items()]
            assert line == ",".join(cells)


def test_scan_json_roundtrip():
    r = invoke("scan", "--level", "32", "--from", "-3", "--to", "-100",
               "--json", "--parallel", "1")
    assert r.exit_code == 0
    for line in r.output.strip().splitlines():
        obj = json.loads(line)
        assert set(obj) == {"D", "f_x1", "f_x2", "count_x1", "count_x2", "verdict"}
        assert obj["verdict"] == ("vanishes" if obj["f_x1"] == obj["f_x2"]
                                  else "nonzero")
        assert abs(obj["f_x1"]) <= obj["count_x1"]
        assert abs(obj["f_x2"]) <= obj["count_x2"]


def test_scan_range_validation():
    assert invoke("scan", "--level", "32", "--from", "-50", "--to", "-3",
                  "--parallel", "1").exit_code == 2
    assert invoke("scan", "--level", "32", "--from", "3", "--to", "-50",
                  "--parallel", "1").exit_code == 2
    assert invoke("scan", "--level", "13", "--from", "-3", "--to", "-50",
                  "--parallel", "1").exit_code == 2
    # an abbreviated option is refused, not run as --good-only
    assert invoke("scan", "--level", "32", "--from", "-3", "--to", "-20",
                  "--good").exit_code == 2


def test_scan_oracle_needs_fundamental_d():
    # without --good-only the window holds D = -16, which is not fundamental
    r = invoke("scan", "--level", "32", "--from", "-3", "--to", "-20",
               "--oracle", "--parallel", "1")
    assert r.exit_code == 2
    assert "D,f_x1" not in r.output
    assert "D = -16" in r.output and "--oracle needs fundamental D" in r.output


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops early (`lcrit scan ... | head`) is not an error
    scan = ("scan", "--level", "32", "--from", "-3", "--to", "-3000", "--good-only")
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is block-buffered by default
    for args in ((*scan, "--parallel", "1"), (*scan, "--parallel", "2"),
                 ("check", "--level", "32", "--disc", "-219"),
                 ("table", "maincor", "--parallel", "2"), ("congruent", "219")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "lcrit.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
        proc.stdout.close()  # the child has not started: its first write fails
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert err == b"", args


def test_unexpected_error_exits_internal(monkeypatch):
    def boom(level, d):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "vanishing_verdict", boom)
    r = invoke("check", "--level", "32", "--disc", "-11")
    assert r.exit_code == cli.EXIT_INTERNAL == 1
    assert "error: internal: RuntimeError: boom" in r.output


def test_negative_counts_rejected():
    # refused by the option's range, not as an unknown option
    for args in (("scan", "--level", "32", "--from", "-3", "--to", "-20", "--parallel", "-4"),
                 ("table", "maincor", "--parallel", "-4")):
        r = invoke(*args)
        assert r.exit_code == 2, args
        assert "is not in the range x>=0" in r.output, r.output


def test_tables_match_frozen_values():
    r = invoke("table", "maincor", "--parallel", "1")
    assert r.exit_code == 0
    assert "all 14 rows match" in r.output
    r = invoke("table", "primes", "--parallel", "2")
    assert r.exit_code == 0
    assert "all 14 rows match" in r.output
    r = invoke("table", "cubes", "--parallel", "1")
    assert r.exit_code == 0
    assert "all 16 rows match" in r.output


def test_table_discs_reproduces_lists():
    r = invoke("table", "discs")
    assert r.exit_code == 0
    assert "all listed non-invariant values reproduced" in r.output
    assert "MISMATCH" not in r.output


def test_table_mismatch_exit_code(monkeypatch):
    monkeypatch.setattr(reference, "MAINCOR_ROWS", ((-11, 99, 99, "x"),))
    r = invoke("table", "maincor", "--parallel", "1")
    assert r.exit_code == 3
    assert "MISMATCH" in r.output
    assert invoke("table", "bogus").exit_code == 2  # not a table name


def test_congruent_command():
    r = invoke("congruent", "219")
    assert r.exit_code == 0
    assert "congruent assuming BSD" in r.output
    r = invoke("congruent", "11")
    assert r.exit_code == 0
    assert "not congruent (unconditional)" in r.output
    assert invoke("congruent", "10").exit_code == 2


def test_cubes_command():
    r = invoke("cubes", "31")
    assert r.exit_code == 0
    assert "infinitely many rational points assuming BSD" in r.output
    r = invoke("cubes", "7")
    assert r.exit_code == 0
    assert "finitely many rational points (unconditional)" in r.output
    assert invoke("cubes", "5").exit_code == 2


def _readme_options():
    """--options named in README sections other than Install and Tests,
    which name pip's and pytest's options rather than lcrit's."""
    sections = re.split(r"^## ", README.read_text(), flags=re.M)
    return {opt for section in sections
            if section.split("\n", 1)[0].strip() not in ("Install", "Tests")
            for opt in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)}


def _cli_options():
    """Every option of the `lcrit` parser and of its commands, -h/--help left out."""
    top = cli.parser()
    commands = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for parser in (top, *commands.choices.values()) for action in parser._actions
            for opt in action.option_strings if opt not in ("-h", "--help")}


def test_readme_options_exist():
    named = _readme_options()
    assert "--good-only" in named
    unknown = named - _cli_options()
    assert not unknown, sorted(unknown)


def test_cli_options_are_documented():
    undocumented = _cli_options() - _readme_options()
    assert not undocumented, sorted(undocumented)


def test_readme_library_lines_hold():
    # each `expr  # value` line of README's Library block prints as its comment
    sections = re.split(r"^## ", README.read_text(), flags=re.M)
    block = next(re.search(r"```python\n(.*?)```", s, flags=re.S).group(1)
                 for s in sections if s.startswith("Library\n"))
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if not value:
            exec(code, namespace)  # the imports
            continue
        assert str(eval(code, namespace)) == value.strip(), code
        checked += 1
    assert checked == 6


def run_python(args, cwd, timeout):
    """Run this interpreter on `args` in `_child_env()`, so a subprocess never
    picks up another installed copy of lcrit."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, env=_child_env(), cwd=cwd)


def _child_env():
    """This environment with the imported lcrit package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    proc = run_python(["-m", "lcrit.cli", "table", "maincor", "--parallel", "1"],
                      tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all 14 rows match" in proc.stdout


def test_console_script_help(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["lcrit"]
    module, _, attr = target.partition(":")
    script = tmp_path / "lcrit"
    script.write_text(CONSOLE_SCRIPT.format(module=module, attr=attr))
    proc = run_python([str(script), "--help"], tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lcrit ")
    # argparse lists each command, indented four spaces, with its help
    commands = set(re.findall(r"^    (\w+) ", proc.stdout, flags=re.M))
    assert commands == {"check", "scan", "table", "congruent", "cubes"}


# Runs in a fresh interpreter and reports on stderr, after each step, the
# top-level modules loaded since startup that are neither the standard
# library's nor lcrit, and which of multiprocessing, dataclasses and json are
# loaded.  `--help` exits 0.  `_scan_row` runs through a spy that fails the
# row if numpy is mapped in a forked worker, one whose pid is not the probe's.
NUMPY_PROBE = """\
import os
import sys

startup = set(sys.modules)
probe_pid = os.getpid()

def report(step):
    new = {{name.partition(".")[0] for name in set(sys.modules) - startup}}
    foreign = new - set(sys.stdlib_module_names) - {{"lcrit"}}
    heavy = {{"multiprocessing", "dataclasses", "json"}} & set(sys.modules)
    print("loaded", repr([step, sorted(foreign), sorted(heavy)]), file=sys.stderr, flush=True)

import lcrit
report("import lcrit")
import lcrit.cli
report("import lcrit.cli")
from lcrit import cli

def worker_row(job):
    if os.getpid() != probe_pid and "numpy" in sys.modules:
        raise RuntimeError("numpy is loaded in a forked worker")
    return scan_row(job)

scan_row, cli._scan_row = cli._scan_row, worker_row
for args in {runs!r}:
    try:
        cli.main(args)
    except SystemExit as exc:
        assert exc.code == 0, args
    report(" ".join(args))
"""


def _numpy_probe(tmp_path, *runs):
    """(stdout, {step: modules outside the standard library and lcrit loaded
    by the end of it}, {step: which of multiprocessing, dataclasses and json
    are loaded}) of NUMPY_PROBE over the runs."""
    proc = run_python(["-c", NUMPY_PROBE.format(runs=[list(r) for r in runs])],
                      tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reports = [ast.literal_eval(line[len("loaded "):]) for line in proc.stderr.splitlines()
               if line.startswith("loaded ")]
    return (proc.stdout, {step: foreign for step, foreign, _ in reports},
            {step: heavy for step, _, heavy in reports})


def test_startup_and_exact_paths_load_no_numpy(tmp_path):
    scan = ("scan", "--level", "32", "--from", "-3", "--to", "-300", "--good-only")
    runs = [("--help",), (*scan, "--parallel", "1"), (*scan, "--parallel", "2"),
            ("table", "cubes", "--parallel", "2"), ("table", "discs"),
            ("congruent", "219"), ("cubes", "7"),
            ("check", "--level", "32", "--disc", "-219", "--json", "--dump-forms")]
    out, steps, heavy = _numpy_probe(tmp_path, *runs)
    assert "D,f_x1,f_x2,count_x1,count_x2,verdict" in out
    assert list(steps) == ["import lcrit", "import lcrit.cli", *(" ".join(r) for r in runs)]
    assert not any(steps.values()), steps  # numpy, click or any other
    # only the last run, check --json, may load json
    assert heavy.popitem()[1] in ([], ["json"])
    assert not any(heavy.values()), heavy


def test_oracle_paths_load_only_the_standard_library(tmp_path):
    out, steps, _ = _numpy_probe(tmp_path, ("check", "--level", "32", "--disc", "-219",
                                            "--oracle", "--json"))
    assert not any(steps.values()), steps
    est = estimate_l_value(32, -219)
    assert json.loads(out)["oracle"]["value"] == est.value
    scan = ("scan", "--level", "32", "--from", "-3", "--to", "-250", "--good-only",
            "--oracle", "--parallel", "2")
    out, steps, _ = _numpy_probe(tmp_path, scan)
    assert not any(steps.values()), steps
    lines = out.splitlines()
    assert len(lines) > 2
    for line in lines[1:]:
        d, *_, oracle_verdict, oracle_value = line.split(",")
        est = estimate_l_value(32, int(d))
        assert (oracle_verdict, oracle_value) == (est.verdict.value, f"{est.value:.6g}"), d
