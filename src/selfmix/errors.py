"""Exception types raised across the package.

The CLI tells two kinds of failure apart: :class:`ConfigError` (bad input,
exit status 2) and any other ``ValueError`` (a model or solver failure,
exit status 3; so is an ``OverflowError`` past the float range). Besides
:class:`ConfigError`, only :class:`NoInteriorMaximum` has a class of its
own, because ``diode-iv`` and the bias-optimum check catch it by name;
every other failure raises plain ``ValueError``.
"""


class NoInteriorMaximum(ValueError):
    """Bias optimisation found no interior maximum (e.g. zero series resistance)."""


class ConfigError(ValueError):
    """CLI configuration is malformed (unknown key, bad value, missing file)."""
