"""The benchmark's per-layer trace (bench/layers.py) rebinds module-global
names of the package; these checks fail when a refactor moves a call away
from the name the trace wraps."""

import importlib.util
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from lcrit import criterion, oracle, quadforms, series
from lcrit.arith import is_prime

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_resolve():
    for module_name, attr, _, _ in _layers().PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)


def _traced(call, series_names=False):
    """The per-name stats of call() under the trace.  With series_names the
    trace wraps the series' own module globals in place of the lcrit.oracle
    names that resolve to them, so calls inside lcrit.series are seen."""
    layers = _layers()
    if series_names:
        layers.PATCHES = tuple(
            ("lcrit.series", attr, *rest) if module == "lcrit.oracle" and hasattr(series, attr)
            else (module, attr, *rest) for module, attr, *rest in layers.PATCHES)
    tracer = layers.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.remove()
    return tracer.stats


def test_curve_route_calls_curve_ap_per_prime():
    stats = _traced(lambda: series.newform_coefficients(17, 500), series_names=True)
    primes = [p for p in range(2, 501) if is_prime(p)]  # 17, the bad prime, included
    assert stats["oracle.newform_coefficients"].calls == 1
    assert stats["oracle.curve_ap"].calls == len(primes)
    assert stats["oracle.extend_multiplicatively"].calls == 1


def test_estimate_goes_through_traced_layers():
    stats = _traced(lambda: series.estimate_l_value(32, -11), series_names=True)
    for name in ("oracle.estimate_l_value", "oracle.newform_coefficients",
                 "oracle.eta_coefficients", "oracle.twisted_l_value"):
        assert stats[name].calls == 1, name


def test_exact_oracle_goes_through_traced_names():
    # the exact oracle checks D and reads chi_D at primes through the names
    # the trace wraps, and builds no coefficient series
    d = -8059
    oracle._eigen_functional(32)  # built once per level, outside the traced call
    misses = oracle._eigen_functional.cache_info().misses
    stats = _traced(lambda: oracle.estimate_l_value(32, d))
    assert oracle._eigen_functional.cache_info().misses == misses
    assert stats["oracle.estimate_l_value"].calls == 1
    assert stats["arith.is_fundamental_discriminant"].calls == 1
    primes = [q for q in range(2, -d // 2 + 1) if is_prime(q)]
    assert stats["arith.kronecker"].calls == len(primes) + 1  # and w(E_D) = chi_D(-N)
    for name in ("oracle.newform_coefficients", "oracle.twisted_l_value"):
        assert stats[name].calls == 0, name


def test_f_sum_checks_d0_once_and_builds_no_form():
    # warm-up: splitting D0 checks it once and caches the split
    assert criterion.f_sum(32, -3, -4219, 0).count > 0
    for x in (0, Fraction(1, 3)):
        stats = _traced(lambda: criterion.f_sum(32, -3, -4219, x))
        assert criterion.f_sum(32, -3, -4219, x).count > 0
        # the character comes from the residue tables, never per form
        assert stats["genus.genus_character"].calls == 0
        # the cached split is f_sum's only check of D0; none per form
        assert stats["arith.is_fundamental_discriminant"].calls == 0


def test_f_sum_factorizes_once_per_admissible_t_up_to_sign(monkeypatch):
    level, d0, d = 32, -3, -4219

    def admissible(cap):
        return [t for t in range(math.isqrt(cap - 1) + 1) if (cap - t * t) % (4 * level) == 0]

    stats = _traced(lambda: criterion.f_sum(level, d0, d, Fraction(1, 3)))
    assert admissible(d * d0 * 9)
    assert stats["arith.divisors"].calls == len(admissible(d * d0 * 9))
    # at x = 0 the closed form needs each factorization, not its divisors
    calls = Counter()
    for name in ("factorize", "divisors"):
        def counted(n, name=name, original=getattr(quadforms, name)):
            calls[name] += 1
            return original(n)
        monkeypatch.setattr(quadforms, name, counted)
    assert criterion.f_sum(level, d0, d, 0).count > 0
    assert calls == Counter(factorize=len(admissible(d * d0)))
