"""Exception hierarchy shared across the pipeline.

``ConfigError`` is a bad INI config or firmware/route/pipeline setting,
``ValidationError`` malformed input data, ``NumericError`` a numerical
routine that failed; all derive from ``QuickroutesError``.
``require_finite`` is the NaN and infinity check that the settings
dataclasses run before their range checks.
"""

import math
from dataclasses import fields


class QuickroutesError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(QuickroutesError):
    """Bad line/route/pipeline configuration."""


class ValidationError(QuickroutesError):
    """Malformed or inconsistent input data (event files, labels, matrices)."""


class MissingClipError(ValidationError):
    """A climb lacks events from a position that features require."""

    def __init__(self, climb_id: int, position: int):
        self.climb_id = climb_id
        self.position = position
        super().__init__(
            f"climb {climb_id}: no events from position {position} "
            f"(positions 2..ie-1 must all be clipped)"
        )


class SequencingError(ValidationError):
    """Samples fed to a sensor out of time order."""


class NumericError(QuickroutesError):
    """A numerical routine failed beyond what regularization can absorb."""


def require_finite(settings, prefix: str = "") -> None:
    """Raise ``ConfigError`` for the first field of the dataclass
    ``settings`` that holds a NaN or an infinity, alone or in a tuple.

    Range checks such as ``noise_g < 0`` are false for NaN, so settings
    run this before them.
    """
    for f in fields(settings):
        value = getattr(settings, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{prefix}{f.name} must be finite, not {v}")
