"""Exact vanishing criteria for central L-values of quadratic twists at the
dimension-one levels, with an independent truncated-L-series cross-check.

The criterion compares two finite genus-character-weighted counts of binary
quadratic forms; equality decides vanishing.  See criterion.compare (the one
evaluation and comparison), criterion.vanishing_verdict (compare behind its
domain gates) and cli for the command line.

The numeric oracle (estimate_l_value, estimate_l_values, CurveModel, ...) is
imported from lcrit.oracle, not from here: it is the only module that needs
numpy, so importing lcrit, or running any command without --oracle, does not
load numpy.
"""

from .arith import divisors, is_fundamental_discriminant, is_prime, kronecker
from .criterion import (LEVELS, DerivedVerdict, FEvaluation, LevelData, ParityResult, Vanishing,
                        VanishingVerdict, compare, congruent_verdict, cubes_verdict, f_sum,
                        is_good, level_data, parity_test, table_condition, vanishing_verdict)
from .errors import PreconditionError
from .genus import genus_character
from .quadforms import Form, as_point, discriminant, enumerate_forms

__all__ = [name for name in dir() if not name.startswith("_")]
