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
    """A caller violated an interface contract (for example, mixed group
    sizes in one batch, or requesting a prefix from a degenerate group)."""


class ConfigError(PassbandError, ValueError):
    """A configuration file or key is invalid; the message names the key."""


def is_int(value) -> bool:
    """An int or numpy integer; bools, floats and strings are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
