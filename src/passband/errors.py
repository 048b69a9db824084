"""Exception taxonomy shared across the package, and its type checks.

Three failure classes are distinguished so callers can react precisely:
mathematical domain violations, broken interface contracts, and bad
configuration input. All are ValueError subclasses, so generic handling
still works.
"""

from dataclasses import fields
from functools import cache
from typing import get_type_hints

import numpy as np


class PassbandError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PassbandError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(PassbandError, ValueError):
    """A caller violated an interface contract (for example, a rerollout
    whose parent bucket is not controlled, or rollout lengths that do not
    match a step's groups)."""


class ConfigError(PassbandError, ValueError):
    """A configuration file or key is invalid; the message names the key."""


def is_int(value) -> bool:
    """An int or numpy integer; bools, floats and strings are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, what: str, low: int, high: int | None = None) -> None:
    """DomainError unless value is an int (is_int) in [low, high], or >= low
    when high is None; the message names what."""
    if not (is_int(value) and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{what} must be an int {bounds}, got {value!r}")


def int_array(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """values as an array; DomainError for a non-empty float, bool or object
    array, a bool in a list (numpy infers its dtype) and, if nonnegative, a value < 0.
    An object array of ints, as numpy makes of an int outside [-2**63, 2**64),
    is reported by its first int that does not fit in 64 bits."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        ints = array.dtype == object and all(map(is_int, array.flat))
        wide = [v for v in array.flat if not -(2**63) <= v < 2**64] if ints else []
        if wide:
            raise DomainError(f"{what} must be integers that fit in 64 bits, got {wide[0]}")
        raise DomainError(f"{what} must be integers, got dtype {array.dtype}")
    if nonnegative and array.size and array.min() < 0:
        raise DomainError(f"{what} must be >= 0, got {array.min()}")
    if listed_bool(values):
        raise DomainError(f"{what} must be integers, got a bool")
    return array


def listed_bool(values) -> bool:
    """Whether values, when not an array, hold a bool anywhere: numpy reads
    a list that mixes bools with ints, such as [True, 2], as an int array."""
    listed = () if isinstance(values, np.ndarray) else np.asarray(values, object).flat
    return any(isinstance(v, (bool, np.bool_)) for v in listed)


def int64_array(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """int_array(values, what, nonnegative) as int64; DomainError naming what
    and the value for a uint64 value above 2**63 - 1, which the cast would wrap."""
    array = int_array(values, what, nonnegative)
    if array.dtype == np.uint64 and array.size and array.max() >= 2**63:
        raise DomainError(f"{what} must be integers below 2**63, got {array.max()}")
    return array.astype(np.int64, copy=False)


def is_real(value) -> bool:
    """An int or float, numpy ones included; bools and strings are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# Field types whose check is not a plain isinstance: numpy numbers count,
# bools do not.
_TYPE_CHECKS = {int: is_int, float: is_real}


@cache
def _field_types(cls) -> tuple[tuple[str, type], ...]:
    # The annotations are the strings that `from __future__ import
    # annotations` leaves in place; get_type_hints resolves them in the
    # class's module.
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def check_field_types(holder) -> None:
    """DomainError naming the first field of a dataclass whose value does
    not have its annotated type: an int field takes an int, a float field an
    int or a float (numpy ones included, never a bool), and any other field
    only an instance of its class."""
    for name, kind in _field_types(type(holder)):
        value = getattr(holder, name)
        check = _TYPE_CHECKS.get(kind)
        if not (check(value) if check else isinstance(value, kind)):
            article = "an" if kind.__name__[0] in "aeiouAEIOU" else "a"
            raise DomainError(f"{name} must be {article} {kind.__name__}, got {value!r}")
