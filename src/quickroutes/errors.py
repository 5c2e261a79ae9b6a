"""Exception hierarchy shared across the pipeline.

``ConfigError`` is a bad INI config or firmware/route/pipeline setting,
``ValidationError`` malformed input data, ``NumericError`` a numerical
routine that failed; all derive from ``QuickroutesError``.
"""


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
