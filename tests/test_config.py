"""Experiment configuration parsing, validation, and arm wiring."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from passband.config import (
    SAVING_KINDS,
    Arm,
    ExperimentConfig,
    LossOptions,
    arm_controller_params,
    config_to_flat_dict,
    load_config,
    parse_config,
)
from passband.controller import ControllerParams
from passband.env import MAX_POPULATION_SIZE, MAX_TRAJECTORY_LENGTH, PopulationSpec
from passband.errors import ConfigError, DomainError
from passband.groups import BucketKind


def as_text(config: ExperimentConfig) -> str:
    """The config written back as configuration-file text."""
    return "\n".join(f"{k} = {v}" for k, v in config_to_flat_dict(config).items())


def open_unit() -> st.SearchStrategy[float]:
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def controller_params(draw) -> ControllerParams:
    ratio_min = draw(open_unit())
    ratio_max = draw(st.floats(ratio_min, 1.0, exclude_max=True))
    return ControllerParams(
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        deadzone=draw(st.floats(0.0, 0.5, exclude_max=True)),
        step_size=draw(st.floats(min_value=0.0, allow_infinity=False)),
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        cooldown=draw(st.integers(0, 10**6)),
        initial_ratio=draw(st.floats(ratio_min, ratio_max)),
        target=draw(open_unit()),
    )


@st.composite
def population_specs(draw) -> PopulationSpec:
    p_min = draw(open_unit())
    sensitivity_min = draw(st.floats(min_value=0.0, allow_infinity=False))
    length_min = draw(st.integers(2, MAX_TRAJECTORY_LENGTH))
    return PopulationSpec(
        preset=draw(st.sampled_from(["single", "uniform", "hard_skewed"])),
        size=draw(st.integers(1, 10**9)),
        p0=draw(open_unit()),
        p_min=p_min,
        p_max=draw(st.floats(p_min, 1.0, exclude_max=True)),
        sensitivity_min=sensitivity_min,
        sensitivity_max=draw(st.floats(min_value=sensitivity_min, allow_infinity=False)),
        length_min=length_min,
        length_max=draw(st.integers(length_min, MAX_TRAJECTORY_LENGTH)),
        mirror=draw(st.booleans()),
    )


@st.composite
def experiment_configs(draw) -> ExperimentConfig:
    # fixed_ratio must lie within the controller's ratio bounds.
    controller = draw(controller_params())
    return ExperimentConfig(
        arm=draw(st.sampled_from(Arm)),
        group_size=2 * draw(st.integers(2, 10**4)),
        batch_size=draw(st.integers(1, 10**6)),
        steps=draw(st.integers(0, 10**9)),
        seed=draw(st.integers(0, 2**128)),
        fixed_ratio=draw(st.floats(controller.ratio_min, controller.ratio_max)),
        same_step_rerollout=draw(st.booleans()),
        controller=controller,
        loss=draw(st.builds(
            LossOptions,
            length_normalized=st.booleans(),
            group_reduction=st.sampled_from(["sum", "mean"]),
        )),
        population=draw(population_specs()),
    )


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        config = parse_config("")
        assert config == ExperimentConfig()
        assert config.arm is Arm.PS_ADA
        assert config.group_size == 8
        assert config.batch_size == 64
        assert config.steps == 300
        assert config.seed == 0
        assert config.fixed_ratio == 0.5
        assert config.same_step_rerollout is True
        assert config.controller.alpha == 0.05
        assert config.loss.group_reduction == "sum"
        assert config.population.preset == "hard_skewed"

    def test_readme_block_lists_every_key_at_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        keys = [
            line.split("=", 1)[0].strip()
            for line in (raw.split("#", 1)[0] for raw in block.splitlines())
            if line.strip()
        ]
        assert parse_config(block) == ExperimentConfig()
        assert keys == list(config_to_flat_dict(ExperimentConfig()))

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # full-line comment

        steps = 10  # trailing comment
        """
        assert parse_config(text).steps == 10


class TestParsing:
    def test_scalar_keys(self):
        config = parse_config(
            "arm = baseline\nsteps = 7\nseed = 3\nfixed_ratio = 0.25\n"
            "same_step_rerollout = false\n"
        )
        assert config.arm is Arm.BASELINE
        assert config.steps == 7
        assert config.seed == 3
        assert config.fixed_ratio == 0.25
        assert config.same_step_rerollout is False

    def test_dotted_keys(self):
        config = parse_config(
            "controller.alpha = 0.1\ncontroller.cooldown = 3\n"
            "loss.length_normalized = true\npopulation.preset = uniform\n"
            "population.size = 20\n"
        )
        assert config.controller.alpha == 0.1
        assert config.controller.cooldown == 3
        assert config.loss.length_normalized is True
        assert config.population.preset == "uniform"
        assert config.population.size == 20

    def test_roundtrip_through_flat_dict(self):
        original = parse_config(
            "arm = ps-fix\nsteps = 11\ncontroller.deadzone = 0.02\n"
            "population.p0 = 0.3\n"
        )
        assert parse_config(as_text(original)) == original

    @given(experiment_configs())
    def test_roundtrip_property(self, config):
        assert parse_config(as_text(config)) == config

    def test_all_arms_parse(self):
        for arm in Arm:
            assert parse_config(f"arm = {arm.value}").arm is arm


class TestErrors:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="controller.alhpa"):
            parse_config("controller.alhpa = 0.1")

    @pytest.mark.parametrize(
        "key",
        [
            "optimizer.clip_high",
            "optimizer.learning_rate",
            "optimizer.minibatch_size",
            "optimizer.compact_filtering",
        ],
    )
    def test_removed_optimizer_key_named(self, key):
        assert key not in config_to_flat_dict(ExperimentConfig())
        with pytest.raises(
            ConfigError, match=re.escape(f"unknown configuration key: {key!r}")
        ):
            parse_config(f"steps = 5\n{key} = 1\n")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config("steps = 5\nsteps = 6")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config("steps = soon")
        with pytest.raises(ConfigError, match="arm"):
            parse_config("arm = warmup")
        with pytest.raises(ConfigError, match="same_step_rerollout"):
            parse_config("same_step_rerollout = maybe")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("steps 5")

    def test_domain_violation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("controller.alpha = 0.0")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config("batch_size = 0")

    def test_length_max_bounded(self):
        assert (
            parse_config(f"population.length_max = {MAX_TRAJECTORY_LENGTH}")
            .population.length_max == MAX_TRAJECTORY_LENGTH
        )
        with pytest.raises(
            ConfigError,
            match=f"length_max must be <= {MAX_TRAJECTORY_LENGTH}, got 100000000000",
        ):
            parse_config("population.length_max = 100000000000")
        with pytest.raises(DomainError, match="length_max"):
            PopulationSpec(length_max=MAX_TRAJECTORY_LENGTH + 1)

    def test_population_size_bounded(self):
        # Task picks draw below the population size from 32 bits.
        assert (
            parse_config(f"population.size = {MAX_POPULATION_SIZE}")
            .population.size == MAX_POPULATION_SIZE
        )
        with pytest.raises(
            ConfigError,
            match=rf"population size must lie in \[1, {2**32}\], got {2**32 + 1}",
        ):
            parse_config(f"population.size = {2**32 + 1}")
        with pytest.raises(DomainError, match="population size"):
            PopulationSpec(size=MAX_POPULATION_SIZE + 1)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_step_size_rejected(self, value):
        with pytest.raises(ConfigError, match="step_size must be finite"):
            parse_config(f"controller.step_size = {value}")
        with pytest.raises(DomainError):
            ControllerParams(step_size=float(value))

    @pytest.mark.parametrize(
        "text",
        [
            "population.sensitivity_max = inf",
            "population.sensitivity_min = inf\npopulation.sensitivity_max = inf",
            "population.sensitivity_max = nan",
            "population.sensitivity_min = nan",
        ],
    )
    def test_non_finite_sensitivity_rejected(self, text):
        with pytest.raises(ConfigError, match="sensitivity_max"):
            parse_config(text)

    def test_direct_construction_domain_errors(self):
        with pytest.raises(DomainError):
            ExperimentConfig(group_size=7)
        with pytest.raises(DomainError):
            ExperimentConfig(steps=-1)
        with pytest.raises(DomainError):
            ExperimentConfig(fixed_ratio=1.5)

    @pytest.mark.parametrize("arm", [arm.value for arm in Arm])
    def test_fixed_ratio_outside_ratio_bounds(self, arm):
        # Every arm: compare runs every arm from one config, so a ps-fix run
        # must not fail after the others have written their traces.
        for text in (
            "fixed_ratio = 0.01",
            "fixed_ratio = 0.96",
            "fixed_ratio = 0.3\ncontroller.ratio_min = 0.4",
            "fixed_ratio = 0.7\ncontroller.ratio_max = 0.6",
        ):
            with pytest.raises(ConfigError, match=r"^fixed_ratio .* outside the controller's"):
                parse_config(f"arm = {arm}\n{text}")


    @pytest.mark.parametrize(
        "cls, field",
        [
            (ExperimentConfig, "group_size"),
            (ExperimentConfig, "batch_size"),
            (ExperimentConfig, "steps"),
            (ExperimentConfig, "seed"),
            (ControllerParams, "cooldown"),
            (PopulationSpec, "size"),
            (PopulationSpec, "length_min"),
            (PopulationSpec, "length_max"),
        ],
    )
    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8", None])
    def test_integer_fields_reject_non_ints(self, cls, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an int"):
            cls(**{field: value})

    def test_integer_fields_take_numpy_ints(self):
        assert ExperimentConfig(steps=np.int64(3)).steps == 3
        assert PopulationSpec(size=np.int32(7)).size == 7
        assert ControllerParams(cooldown=np.uint8(2)).cooldown == 2

    @pytest.mark.parametrize(
        "cls, kwargs, message",
        [
            # Ran as the hard-only arm while meta.json said ps-ada.
            (ExperimentConfig, {"arm": "ps-ada"}, "arm must be an Arm"),
            # A non-empty string is true, so p0 was mirrored to 0.875.
            (PopulationSpec, {"preset": "single", "p0": 0.125, "mirror": "false"},
             "mirror must be a bool"),
            (LossOptions, {"length_normalized": "false"}, "length_normalized must be a bool"),
            (ExperimentConfig, {"same_step_rerollout": "no"},
             "same_step_rerollout must be a bool"),
            # A bool is an int, so True was taken as 1.0.
            (ControllerParams, {"alpha": True}, "alpha must be a float"),
            # These two failed with a bare TypeError from a comparison.
            (ControllerParams, {"alpha": "0.1"}, "alpha must be a float"),
            (ExperimentConfig, {"fixed_ratio": "0.5"}, "fixed_ratio must be a float"),
        ],
    )
    def test_scalar_fields_reject_wrong_types(self, cls, kwargs, message):
        with pytest.raises(DomainError, match=message):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "cls, field, kind",
        [
            (cls, f.name, f.type)
            for cls in (ExperimentConfig, ControllerParams, LossOptions, PopulationSpec)
            for f in fields(cls)
            if f.type in ("float", "bool", "str", "Arm")
        ],
    )
    def test_every_scalar_field_is_type_checked(self, cls, field, kind):
        wrong = {
            "float": [True, "0.5", None],
            "bool": ["false", 1, np.True_, None],
            "str": [1, b"sum", None],
            "Arm": ["ps-ada", None],
        }[kind]
        for value in wrong:
            with pytest.raises(DomainError, match=f"{field} must be an? {kind}"):
                cls(**{field: value})

    def test_float_fields_take_ints_and_numpy_numbers(self):
        assert ControllerParams(step_size=0).step_size == 0
        assert ControllerParams(alpha=np.float32(0.25)).alpha == 0.25
        assert ControllerParams(alpha=np.int64(1)).alpha == 1
        assert ExperimentConfig(fixed_ratio=np.float64(0.3)).fixed_ratio == 0.3
        assert PopulationSpec(sensitivity_max=np.int8(5)).sensitivity_max == 5


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 4\narm = baseline\n")
        config = load_config(path)
        assert config.steps == 4
        assert config.arm is Arm.BASELINE

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"steps = 4\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path} is not UTF-8")):
            load_config(path)


class TestArmControllerParams:
    def test_ps_ada_uses_configured_params(self):
        config = parse_config("arm = ps-ada\ncontroller.step_size = 0.07")
        params = arm_controller_params(config)
        assert params.step_size == 0.07
        assert params.initial_ratio == config.controller.initial_ratio

    def test_ps_fix_freezes_ratio_at_fixed_value(self):
        config = parse_config("arm = ps-fix\nfixed_ratio = 0.3")
        params = arm_controller_params(config)
        assert params.step_size == 0.0
        assert params.initial_ratio == 0.3
        # Everything else passes through unchanged.
        assert params.alpha == config.controller.alpha
        assert params.cooldown == config.controller.cooldown

    def test_saving_kinds_of_each_arm(self):
        assert SAVING_KINDS == {
            Arm.BASELINE: (),
            Arm.PS_FIX: (BucketKind.HARD, BucketKind.EASY),
            Arm.PS_ADA_HARD_ONLY: (BucketKind.HARD,),
            Arm.PS_ADA: (BucketKind.HARD, BucketKind.EASY),
        }

    def test_hard_only_same_params_as_ada(self):
        ada = parse_config("arm = ps-ada")
        hard = parse_config("arm = ps-ada-hard-only")
        assert arm_controller_params(ada) == arm_controller_params(hard)
