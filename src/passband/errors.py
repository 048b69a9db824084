"""Exception taxonomy shared across the package, and its integer checks.

Three failure classes are distinguished so callers can react precisely:
mathematical domain violations, broken interface contracts, and bad
configuration input. All are ValueError subclasses, so generic handling
still works.
"""

from dataclasses import fields

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


def check_int_fields(holder) -> None:
    """DomainError naming the first of a dataclass's int-annotated fields
    that does not hold an int. The annotations are read as the strings that
    `from __future__ import annotations` leaves in place."""
    for f in fields(holder):
        if f.type == "int" and not is_int(value := getattr(holder, f.name)):
            raise DomainError(f"{f.name} must be an int, got {value!r}")
