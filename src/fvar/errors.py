"""Exception types shared across the package, and the JSON reader that
turns malformed input into a ``DataError``."""

import json


class FvarError(Exception):
    """Base class for package errors."""


class ConfigError(FvarError, ValueError):
    """Invalid arguments, grids, or file formats supplied by the caller."""


class DataError(FvarError, ValueError):
    """Input data violates a precondition (e.g. nonpositive prices)."""


class NumericalError(FvarError, RuntimeError):
    """A numerical routine failed (rank deficiency, divergence, ...)."""


class NonstationaryError(NumericalError):
    """Spectral radius at or above one where stationarity is required."""


def parse_json(text: str, build, what: str):
    """``build(json.loads(text))``; invalid JSON, a missing key or a value
    of the wrong kind is a ``DataError`` naming ``what`` and the cause."""
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise DataError(f"{what} has no key {exc}") from None
    except FvarError:
        raise
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{what} is malformed: {exc}") from None
