"""Loading and validation of the per-level newform coefficient sources.

Each dimension-one level carries an eta-quotient expansion, a Weierstrass
model, or both, stored as JSON (see data/newforms.json).  The file format is
a list of objects {"level": int, "eta": [[d, e], ...] | null,
"weierstrass": [a1, a2, a3, a4, a6] | null}.
"""

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .errors import DataError

_DEFAULT_DIR = Path(__file__).parent / "data"
_FILENAME = "newforms.json"


@dataclass(frozen=True)
class NewformSource:
    """Coefficient source for one level: eta exponents and/or a curve model."""

    level: int
    eta: tuple  # ((d, e), ...) or ()
    weierstrass: tuple  # (a1, a2, a3, a4, a6) or ()


def _validate_entry(entry) -> NewformSource:
    if not isinstance(entry, dict):
        raise DataError(f"newform entry must be an object, got {type(entry).__name__}")
    unknown = set(entry) - {"level", "eta", "weierstrass"}
    if unknown:
        raise DataError(f"unknown newform entry keys: {sorted(unknown)}")
    level = entry.get("level")
    # `type(v) is int`, not isinstance: JSON true/false load as bool, an int subclass
    if type(level) is not int or level < 1:
        raise DataError(f"bad level in newform entry: {level!r}")
    eta = entry.get("eta")
    if eta is None:
        eta = ()
    else:
        if not isinstance(eta, list) or not eta:
            raise DataError(f"level {level}: eta must be a nonempty list of [d, e] pairs")
        for pair in eta:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(type(v) is int for v in pair) or pair[0] < 1 or pair[1] == 0):
                raise DataError(f"level {level}: bad eta factor {pair!r}")
        eta = tuple((d, e) for d, e in eta)
        # the expansion starts at q^(sum d*e / 24): an integer >= 1, and every
        # exponent positive, for a holomorphic cusp form
        weight_sum = sum(d * e for d, e in eta)
        if weight_sum % 24:
            raise DataError(f"level {level}: eta exponents give fractional q-shift "
                            f"(sum d*e = {weight_sum})")
        if weight_sum < 24 or any(e < 0 for _, e in eta):
            raise DataError(f"level {level}: eta quotient is not a holomorphic cusp expansion")
    wm = entry.get("weierstrass")
    if wm is None:
        wm = ()
    else:
        if not isinstance(wm, list) or len(wm) != 5 or not all(type(v) is int for v in wm):
            raise DataError(f"level {level}: weierstrass must be 5 integers, got {wm!r}")
        wm = tuple(wm)
    if not eta and not wm:
        raise DataError(f"level {level}: needs an eta quotient or a Weierstrass model")
    return NewformSource(level, eta, wm)


def load_newform_data(data_dir=_DEFAULT_DIR) -> dict:
    """Read and validate newforms.json from data_dir (default: packaged data)."""
    path = Path(data_dir) / _FILENAME
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"newform data file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"newform data file {path} is not valid JSON: {exc}")
    if not isinstance(raw, list):
        raise DataError(f"{path}: top level must be a list of entries")
    sources = {}
    for entry in raw:
        src = _validate_entry(entry)
        if src.level in sources:
            raise DataError(f"duplicate entry for level {src.level}")
        sources[src.level] = src
    return sources


@cache
def default_sources() -> dict:
    """Packaged sources, loaded once."""
    return load_newform_data()
