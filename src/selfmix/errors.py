"""Exception types raised across the package.

Everything derives from :class:`SelfmixError` so callers can catch the whole
family at once (the CLI maps them to exit status 3).
"""


class SelfmixError(Exception):
    """Base class for all errors raised by this package."""


class NyquistViolation(SelfmixError, ValueError):
    """Sample rate too low for the requested signal content."""


class EmptyToneList(SelfmixError, ValueError):
    """An operation that needs at least one tone received none."""


class CutoffAboveNyquist(SelfmixError, ValueError):
    """Filter cutoff lies above the Nyquist frequency of the waveform."""


class TooFewSamples(SelfmixError, ValueError):
    """Waveform is too short for spectral analysis (fewer than 16 samples)."""


class DegenerateEqualFrequencies(SelfmixError, ValueError):
    """Two-tone operation received two identical frequencies."""


class NoInteriorMaximum(SelfmixError, ValueError):
    """Bias optimisation found no interior maximum (e.g. zero series resistance)."""


class NonPositiveInput(SelfmixError, ValueError):
    """An argument that must be positive was zero or negative."""


class EmptyInput(SelfmixError, ValueError):
    """A collection argument that must be non-empty was empty."""


class InvalidGrid(SelfmixError, ValueError):
    """Angular grid is malformed (not increasing, not uniform, out of range)."""


class GridMismatch(SelfmixError, ValueError):
    """Two pattern grids that must be identical differ."""


class InvalidParams(SelfmixError, ValueError):
    """Link-budget parameters violate their invariants."""


class ConfigError(SelfmixError, ValueError):
    """CLI configuration is malformed (unknown key, bad value, missing file)."""
