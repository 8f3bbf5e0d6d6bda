"""In-process replay of a workload's rows, with optional per-layer tracing.

The replay computes, through the package's public functions, exactly what
each CLI invocation of a pass must print: scan rows (the `--good-only`
pre-filter over the window, then F at x1 and x2, then the oracle estimate
when the scan has `--oracle`), the frozen-table rows and the `discs`
recomputation.  It runs single-threaded in the benchmark's own process.

Tracing rebinds the names each package module looks up at call time (for
example `lcrit.quadforms.divisors` or `lcrit.criterion.genus_character`) to
timing wrappers, so no source file of the package changes.  Calls at a layer
boundary become spans with a parent and the invocation they serve; the hot
leaf calls (divisors, genus character, Kronecker symbol, fundamental-
discriminant test, table condition, a_p point counts) are aggregated as
counters only.  A name's self time is its total time minus the time of the
wrapped calls made inside it.  Per-row verdict latencies come from the
untraced replay, which times only the row boundary.
"""

import importlib
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from lcrit import arith, criterion, oracle, reference

# (module, attribute, metric name, leaf); a leaf is counted, not spanned
PATCHES = (
    ("lcrit.quadforms", "divisors", "arith.divisors", True),
    ("lcrit.criterion", "kronecker", "arith.kronecker", True),
    ("lcrit.genus", "kronecker", "arith.kronecker", True),
    ("lcrit.oracle", "kronecker", "arith.kronecker", True),
    ("lcrit.arith", "is_fundamental_discriminant", "arith.is_fundamental_discriminant", True),
    ("lcrit.criterion", "is_fundamental_discriminant", "arith.is_fundamental_discriminant",
     True),
    ("lcrit.genus", "is_fundamental_discriminant", "arith.is_fundamental_discriminant", True),
    ("lcrit.oracle", "is_fundamental_discriminant", "arith.is_fundamental_discriminant", True),
    ("lcrit.criterion", "enumerate_forms", "quadforms.enumerate_forms", False),
    ("lcrit.criterion", "genus_character", "genus.genus_character", True),
    ("lcrit.criterion", "f_sum", "criterion.f_sum", False),
    ("lcrit.criterion", "table_condition", "criterion.table_condition", True),
    ("lcrit.oracle", "estimate_l_value", "oracle.estimate_l_value", False),
    ("lcrit.oracle", "newform_coefficients", "oracle.newform_coefficients", False),
    ("lcrit.oracle", "eta_coefficients", "oracle.eta_coefficients", False),
    ("lcrit.oracle", "curve_ap", "oracle.curve_ap", True),
    ("lcrit.oracle", "extend_multiplicatively", "oracle.extend_multiplicatively", False),
    ("lcrit.oracle", "twisted_l_value", "oracle.twisted_l_value", False),
)


# work counters taken from a traced call's result
COUNTS = {
    "quadforms.enumerate_forms": ("forms_found", len),
    "oracle.newform_coefficients": ("coeffs_built", len),
    "oracle.twisted_l_value": ("terms", lambda est: est.terms_used),
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span and counter store for one traced replay; install() rebinds the
    PATCHES names, remove() restores them."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = Counter()
        self.spans = []
        self.request = None
        self._stack = []  # [child seconds, span id or None] per open call
        self._saved = []

    def _open(self, leaf):
        span_id = None if leaf else len(self.spans)
        if span_id is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append({"id": span_id, "name": None, "request": self.request,
                               "parent": parent, "start": 0.0, "end": 0.0})
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame, perf_counter()

    def _close(self, name, frame, start):
        end = perf_counter()
        self._stack.pop()
        elapsed = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if frame[1] is not None:
            self.spans[frame[1]].update(name=name, start=start, end=end)

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named name."""
        frame, start = self._open(False)
        try:
            return fn(*args)
        finally:
            self._close(name, frame, start)

    def _wrap(self, name, fn, leaf):
        counter, measure = COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            frame, start = self._open(leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)
            if counter:
                self.counts[counter] += measure(result)
            return result
        return traced

    def install(self):
        for module_name, attr, name, leaf in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, leaf))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class Replay:
    """Expected output per invocation, and where the replay's time went."""

    expected: list = field(default_factory=list)
    compute_s: list = field(default_factory=list)  # per invocation
    verdict_s: list = field(default_factory=list)  # per F(x1), F(x2) pair
    oracle: Counter = field(default_factory=Counter)
    wall_s: float = 0.0


def _f_pair(level, d, replay, tracer):
    row = criterion.LEVELS[level]

    def pair():
        return (criterion.f_sum(level, row.d0, d, row.x1),
                criterion.f_sum(level, row.d0, d, row.x2))

    start = perf_counter()
    e1, e2 = tracer.span("criterion.verdict", pair) if tracer else pair()
    replay.verdict_s.append(perf_counter() - start)
    return e1, e2


def scan_row(level, d, with_oracle, replay, tracer=None):
    """CSV fields `lcrit scan` prints for D, as strings."""
    e1, e2 = _f_pair(level, d, replay, tracer)
    verdict = "vanishes" if e1.value == e2.value else "nonzero"
    fields = [str(d), str(e1.value), str(e2.value), str(e1.count), str(e2.count), verdict]
    if with_oracle:
        est = oracle.estimate_l_value(level, d)
        fields += [est.verdict.value, f"{est.value:.6g}"]
        replay.oracle["attempts"] += 1
        if est.verdict is not oracle.OracleVerdict.INDETERMINATE:
            replay.oracle["decided"] += 1
            if (est.verdict is oracle.OracleVerdict.ZERO) != (verdict == "vanishes"):
                replay.oracle["disagreements"] += 1
    return fields


def _scan(inv, replay, tracer):
    d0 = criterion.LEVELS[inv.level].d0
    start, stop = int(inv.argv[4]), int(inv.argv[6])
    kept = [d for d in range(start, stop - 1, -1)
            if d % 4 in (0, 1) and not arith.is_square(d * d0)
            and arith.is_fundamental_discriminant(d) and criterion.table_condition(inv.level, d)]
    return [scan_row(inv.level, d, inv.oracle, replay, tracer) for d in kept]


def _value_table(name, replay, tracer):
    level = reference.TABLE_LEVEL[name]
    rows = []
    for d, _, _, _ in reference.rows_for(name):
        e1, e2 = _f_pair(level, d, replay, tracer)
        rows.append((d, e1.value, e2.value))
    return rows


def _discs(replay, tracer):
    recomputed = {}
    for level in sorted(criterion.LEVELS):
        row = criterion.LEVELS[level]
        recomputed[level] = []
        for m in range(3, max(row.noninvariant_m) + 1):
            if -m % 4 not in (0, 1) or arith.is_square(-m * row.d0):
                continue
            e1, e2 = _f_pair(level, -m, replay, tracer)
            if e1.value != e2.value:
                recomputed[level].append(m)
    return recomputed


def replay(invocations, tracer=None) -> Replay:
    """Recompute every invocation's output in-process, in pass order."""
    out = Replay()
    begin = perf_counter()
    for request, inv in enumerate(invocations):
        if tracer:
            tracer.request = request
        start = perf_counter()
        if inv.table == "discs":
            expected = _discs(out, tracer)
        elif inv.table:
            expected = _value_table(inv.table, out, tracer)
        else:
            expected = _scan(inv, out, tracer)
        out.compute_s.append(perf_counter() - start)
        out.expected.append(expected)
    out.wall_s = perf_counter() - begin
    return out


def layer_metrics(tracer: Tracer, untraced: Replay, traced: Replay) -> dict:
    """Per-layer metrics, as {name: (value, unit)}."""
    s = tracer.stats
    n = tracer.counts
    divisor_calls = s["arith.divisors"].calls
    verdict_ms = sorted(1000 * t for t in untraced.verdict_s)
    if len(verdict_ms) > 1:
        deciles = statistics.quantiles(verdict_ms, n=10)
        p50, p90 = statistics.median(verdict_ms), deciles[8]
    else:
        p50 = p90 = verdict_ms[0]
    attempts = traced.oracle["attempts"]
    return {
        "arith.divisors.calls": (divisor_calls, "count"),
        "arith.divisors.self_s": (s["arith.divisors"].self_s, "s"),
        "quadforms.enumerate_forms.calls": (s["quadforms.enumerate_forms"].calls, "count"),
        "quadforms.enumerate_forms.self_s": (s["quadforms.enumerate_forms"].self_s, "s"),
        "quadforms.enumerate_forms.forms_found": (n["forms_found"], "count"),
        "quadforms.forms_per_divisor_call": (n["forms_found"] / max(divisor_calls, 1), "ratio"),
        "genus.genus_character.calls": (s["genus.genus_character"].calls, "count"),
        "genus.genus_character.self_s": (s["genus.genus_character"].self_s, "s"),
        "arith.kronecker.calls": (s["arith.kronecker"].calls, "count"),
        "criterion.f_sum.self_s": (s["criterion.f_sum"].self_s, "s"),
        "criterion.verdict.p50_ms": (p50, "ms"),
        "criterion.verdict.p90_ms": (p90, "ms"),
        "criterion.table_condition.self_s": (s["criterion.table_condition"].self_s, "s"),
        "arith.is_fundamental_discriminant.self_s":
            (s["arith.is_fundamental_discriminant"].self_s, "s"),
        "oracle.newform_coefficients.calls": (s["oracle.newform_coefficients"].calls, "count"),
        "oracle.newform_coefficients.total_s": (s["oracle.newform_coefficients"].total_s, "s"),
        "oracle.newform_coefficients.coeffs_built": (n["coeffs_built"], "count"),
        "oracle.curve_ap.calls": (s["oracle.curve_ap"].calls, "count"),
        "oracle.curve_ap.total_s": (s["oracle.curve_ap"].total_s, "s"),
        "oracle.eta_coefficients.total_s": (s["oracle.eta_coefficients"].total_s, "s"),
        "oracle.extend_multiplicatively.total_s":
            (s["oracle.extend_multiplicatively"].total_s, "s"),
        "oracle.twisted_l_value.total_s": (s["oracle.twisted_l_value"].total_s, "s"),
        "oracle.twisted_l_value.terms": (n["terms"], "count"),
        "oracle.decided_ratio": (traced.oracle["decided"] / attempts if attempts else 0.0,
                                 "ratio"),
        "oracle.disagreements": (traced.oracle["disagreements"], "count"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }
