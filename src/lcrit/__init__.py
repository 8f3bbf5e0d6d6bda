"""Exact vanishing criteria for central L-values of quadratic twists at the
dimension-one levels, with an independent exact modular-symbol cross-check.

The criterion compares two finite genus-character-weighted counts of binary
quadratic forms; equality decides vanishing.  The top level exports compare
(the one evaluation and comparison), vanishing_verdict (compare behind its
domain gates), f_sum, enumerate_forms and PreconditionError; every other
name is imported from its own module, and lcrit.cli is the command line.

The oracle (estimate_l_value, OracleVerdict, LValueEstimate) is imported
from lcrit.oracle, not from here, so importing lcrit, or running any command
without --oracle, does not load it.  It uses the standard library only.
lcrit.series, the truncated L-series that the tests use as the oracle's
numeric check, is the one module that needs numpy.
"""

from .criterion import compare, f_sum, vanishing_verdict
from .errors import PreconditionError
from .quadforms import enumerate_forms

__all__ = ["compare", "enumerate_forms", "f_sum", "vanishing_verdict", "PreconditionError"]
