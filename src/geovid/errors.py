"""Exception hierarchy shared across the package.

CLI exit codes: DegenerateInputError -> 2, NumericError -> 3, anything
else -> 1.
"""


class GeovidError(Exception):
    """Base class for all package errors."""


class ShapeError(GeovidError):
    """Array dimensions do not line up."""


class ParameterError(GeovidError):
    """Invalid configuration or argument value."""


class DomainError(GeovidError):
    """Value outside the mathematical domain of an operation."""


class StateError(GeovidError):
    """Object is in the wrong state for this operation (role, scale kind)."""


class NumericError(GeovidError):
    """NaN/Inf encountered, or a numeric procedure failed."""


class DegenerateInputError(GeovidError):
    """Input is formally valid but carries no usable signal."""


def named(path, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a GeovidError it raises re-raised as a
    ParameterError that names `path`, the input the values came from."""
    try:
        return fn(*args, **kwargs)
    except GeovidError as exc:
        raise ParameterError(f"{path}: {exc}") from None
