"""The per-level newform coefficient sources.

Each dimension-one level carries an eta-quotient expansion, a Weierstrass
model, or both.  Every eta quotient has positive exponents and
sum(d*e) = 24, so its expansion is a holomorphic cusp form starting at q;
tests/test_oracle.py checks this on the table below.
"""

from typing import NamedTuple


class NewformSource(NamedTuple):
    """Coefficient source for one level: eta exponents and/or a curve model."""

    level: int
    eta: tuple  # ((d, e), ...) or ()
    weierstrass: tuple  # (a1, a2, a3, a4, a6) or ()


_SOURCES = {row[0]: NewformSource(*row) for row in (
    (11, ((1, 2), (11, 2)), (0, -1, 1, -10, -20)),
    (14, ((1, 1), (2, 1), (7, 1), (14, 1)), (1, 0, 1, 4, -6)),
    (15, ((1, 1), (3, 1), (5, 1), (15, 1)), (1, 1, 1, -10, -10)),
    (17, (), (1, -1, 1, -1, -14)),
    (19, (), (0, 1, 1, -9, -15)),
    (20, ((2, 2), (10, 2)), (0, 1, 0, 4, 4)),
    (21, (), (1, 0, 0, -4, -1)),
    (24, ((2, 1), (4, 1), (6, 1), (12, 1)), (0, -1, 0, -4, 4)),
    (27, ((3, 2), (9, 2)), (0, 0, 1, 0, -7)),
    (32, ((4, 2), (8, 2)), (0, 0, 0, -1, 0)),
    (36, ((6, 4),), (0, 0, 0, 0, 1)),
    (49, (), (1, -1, 0, -2, -1)),
)}


def load_newform_data() -> dict:
    """The registered sources, keyed by level."""
    return dict(_SOURCES)
