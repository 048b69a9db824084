"""Experiment configuration: flat dotted-key files, strict parsing.

The on-disk format is one `key = value` pair per line, with `#` comments
and blank lines ignored:

    arm = ps-ada
    steps = 300
    controller.alpha = 0.05
    population.preset = hard_skewed

Unknown keys, malformed values and files that are not UTF-8 are hard
errors that name the offending key or file; reproducibility beats
flexibility here. config_to_flat_dict gives every key back, and the
harness echoes it to meta.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

from .controller import SAVED_OUTCOME, ControllerParams
from .env import PopulationSpec
from .errors import ConfigError, DomainError, check_field_types
from .groups import BucketKind

__all__ = [
    "Arm",
    "LossOptions",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_to_flat_dict",
    "arm_controller_params",
    "SAVING_KINDS",
]


class Arm(Enum):
    BASELINE = "baseline"
    PS_FIX = "ps-fix"
    PS_ADA_HARD_ONLY = "ps-ada-hard-only"
    PS_ADA = "ps-ada"


@dataclass(frozen=True)
class LossOptions:
    """Switches of the audit surrogate; both default to the plain sum form."""

    length_normalized: bool = False
    group_reduction: str = "sum"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.group_reduction not in ("sum", "mean"):
            raise DomainError(
                f"group_reduction must be 'sum' or 'mean', "
                f"got {self.group_reduction!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated run depends on."""

    arm: Arm = Arm.PS_ADA
    group_size: int = 8
    batch_size: int = 64
    steps: int = 300
    seed: int = 0
    fixed_ratio: float = 0.5
    same_step_rerollout: bool = True
    controller: ControllerParams = field(default_factory=ControllerParams)
    loss: LossOptions = field(default_factory=LossOptions)
    population: PopulationSpec = field(default_factory=PopulationSpec)

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.group_size < 4 or self.group_size % 2 != 0:
            raise DomainError(
                f"group_size must be even and >= 4, got {self.group_size}"
            )
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        # Checked for every arm: compare runs every arm from one config.
        bounds = self.controller.ratio_min, self.controller.ratio_max
        if not bounds[0] <= self.fixed_ratio <= bounds[1]:
            raise DomainError(
                f"fixed_ratio {self.fixed_ratio} outside the controller's ratio "
                f"bounds [{bounds[0]}, {bounds[1]}]"
            )


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_arm(raw: str) -> Arm:
    try:
        return Arm(raw)
    except ValueError:
        choices = ", ".join(a.value for a in Arm)
        raise ValueError(f"must be one of {choices}") from None


# Value parser by field annotation (a string, under `from __future__ import
# annotations` in every module that defines a config dataclass).
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool, "Arm": _parse_arm}

# The config dataclasses are the schema. A field of ExperimentConfig with a
# parsed annotation is the key `name`; any other field is a section, whose
# class is the field's default_factory and whose fields are the keys
# `section.name`.
_SECTION_TYPES = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.type not in _PARSERS
}
# key -> (section, field name, value parser); "" is the top-level section.
_KEY_TABLE = {
    f.name: ("", f.name, _PARSERS[f.type])
    for f in fields(ExperimentConfig) if f.type in _PARSERS
} | {
    f"{section}.{f.name}": (section, f.name, _PARSERS[f.type])
    for section, cls in _SECTION_TYPES.items()
    for f in fields(cls)
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text into an ExperimentConfig.

    Raises ConfigError for unknown keys, unparsable values, duplicate
    keys, and values the config dataclasses reject.
    """
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTION_TYPES}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TABLE:
            raise ConfigError(f"unknown configuration key: {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate configuration key: {key!r}")
        seen.add(key)
        section, field_name, parser = _KEY_TABLE[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
        if section:
            sections[section][field_name] = value
        else:
            top[field_name] = value
    try:
        parts = {
            name: cls(**sections[name]) for name, cls in _SECTION_TYPES.items()
        }
        return ExperimentConfig(**top, **parts)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not UTF-8: {exc}") from None
    return parse_config(text)


def config_to_flat_dict(config: ExperimentConfig) -> dict[str, object]:
    """Flatten a config back to its dotted-key form, for metadata echoes.

    An int or float field echoes as the Python int or float its key parses
    to, so a numpy number, or an int in a float field, echoes as parse_config
    would have read it."""
    flat: dict[str, object] = {}
    for key, (section, field_name, parser) in _KEY_TABLE.items():
        holder = config if not section else getattr(config, section)
        value = getattr(holder, field_name)
        if parser in (int, float):
            value = parser(value)
        flat[key] = value.value if isinstance(value, Enum) else value
    return flat


def arm_controller_params(config: ExperimentConfig) -> ControllerParams:
    """Controller parameters after applying the arm's semantics.

    The fixed-ratio arm is the adaptive loop with a zero step size started
    at the fixed ratio, which makes its control path identical to the
    adaptive arm by construction while never moving the ratio.
    """
    if config.arm is Arm.PS_FIX:
        return replace(
            config.controller, step_size=0.0, initial_ratio=config.fixed_ratio
        )
    return config.controller


# Kinds of bucket whose fresh groups save a prefix for replay under each arm:
# the baseline replays nothing and the hard-only arm ignores easy buckets.
SAVING_KINDS = {
    Arm.BASELINE: (),
    Arm.PS_FIX: tuple(SAVED_OUTCOME),
    Arm.PS_ADA_HARD_ONLY: (BucketKind.HARD,),
    Arm.PS_ADA: tuple(SAVED_OUTCOME),
}
