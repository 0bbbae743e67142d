"""Exception hierarchy for the stlid package.

The CLI maps these onto exit codes: data-shaped problems (parsing,
consistency, non-finite values) exit with 2, configuration problems with 3.
Every number that comes from outside (a setting, a spec field, a flag, a
checkpoint array) is checked where it enters by ``require``.
"""

from functools import cache

import numpy as np


class StlidError(Exception):
    """Base class for all stlid errors."""


class DataError(StlidError):
    """A dataset violates an invariant (non-finite value, bad shape, ...)."""


class ParseError(DataError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ConsistencyError(DataError):
    """Two input files disagree (unknown ids, mismatched step ranges, ...)."""


class ConfigError(StlidError):
    """A configuration value violates its invariants or preconditions."""


class DegenerateInputError(StlidError):
    """Input carries no usable variation (all values identical)."""


class DegenerateNeighborhoodError(StlidError):
    """All retained neighbor distances are equal; the estimator is undefined."""


class InsufficientNeighborsError(StlidError):
    """Fewer than two strictly positive distances remain after the zero policy."""


@cache
def _bounds(interval: str) -> tuple:
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "[", interval[-1] == "]"


def require(name: str, value, interval: str = "(-inf, inf)", error=ConfigError):
    """``value`` if it, or every element of an array, lies in ``interval``
    ("(0, inf)", "[0, 1)", "[k, inf)" for the integers from k, ...); else
    ``error`` naming ``name`` and the first value outside. NaN fails every
    comparison and no bound is closed at infinity, so neither ever passes.
    """
    lo, hi, lo_closed, hi_closed = _bounds(interval)
    ok = (lo <= value if lo_closed else lo < value) & (value <= hi if hi_closed else value < hi)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = np.asarray(value)[~np.asarray(ok)][0]
        raise error(f"{name} must lie in {interval}, got {bad}")
    return value
