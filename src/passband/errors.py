"""Exception taxonomy shared across the package, and its integer checks.

Three failure classes are distinguished so callers can react precisely:
mathematical domain violations, broken interface contracts, and bad
configuration input. All are ValueError subclasses, so generic handling
still works.
"""

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


def check_int_fields(holder, *names: str) -> None:
    """DomainError naming the first of holder's named fields that is not an int."""
    for name in names:
        if not is_int(value := getattr(holder, name)):
            raise DomainError(f"{name} must be an int, got {value!r}")
