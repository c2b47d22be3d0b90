"""Exception types raised across the package.

The CLI tells two kinds of failure apart: :class:`ConfigError` (bad input,
exit status 2) and any other ``ValueError`` (a model or solver failure,
exit status 3; so is an ``OverflowError`` past the float range). Besides
:class:`ConfigError`, only :class:`InvalidParams` and
:class:`NoInteriorMaximum` have a class of their own, because a caller
catches each by name; every other failure raises plain ``ValueError``.
"""


class SelfmixError(Exception):
    """Base class for all errors raised by this package."""


class NoInteriorMaximum(SelfmixError, ValueError):
    """Bias optimisation found no interior maximum (e.g. zero series resistance)."""


class InvalidParams(SelfmixError, ValueError):
    """Link-budget parameters violate their invariants."""


class ConfigError(SelfmixError, ValueError):
    """CLI configuration is malformed (unknown key, bad value, missing file)."""
