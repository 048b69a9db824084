"""Command line interface: subcommands, outputs, and exit codes."""

import json

import pytest

from passband import cli
from passband.cli import build_parser, main
from passband.errors import ContractError

TINY_CONFIG = """
arm = ps-ada
steps = 3
batch_size = 8
population.size = 50
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestSignal:
    def test_default_group_size(self, capsys):
        assert main(["signal"]) == 0
        out = capsys.readouterr().out
        assert "group size N=8" in out
        # Balanced-group energy 16/49 at six decimals.
        assert "0.326531" in out
        assert "reference values:" in out
        # One row per pass count.
        assert sum(line.strip().startswith(("0 ", "8 ")) for line in out.splitlines())

    def test_custom_group_size(self, capsys):
        assert main(["signal", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "group size N=4" in out
        rows = [
            line for line in out.splitlines() if line.strip()[:1].isdigit()
        ]
        assert len(rows) == 5

    def test_invalid_group_size(self, capsys):
        # A group size below 2 is a usage error, reported before any output.
        for n in ("1", "0", "-2"):
            assert main(["signal", "--n", n]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "configuration error: --n must be >= 2" in captured.err


class TestSimulate:
    def test_writes_traces(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file), "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        for name in (
            "metrics.csv", "controller.csv", "transitions.csv", "run.jsonl",
            "meta.json",
        ):
            assert (out_dir / name).is_file()
            assert name in stdout
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["arm"] == "ps-ada"
        assert meta["steps"] == 3

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out",
             str(tmp_path / "o")]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("steps = soon\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_overlong_trajectories_rejected(self, tmp_path, capsys):
        bad = tmp_path / "long.cfg"
        bad.write_text(
            "steps = 2\nbatch_size = 2\npopulation.length_max = 100000000000\n"
        )
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "length_max" in err
        assert not (tmp_path / "o").exists()

    def test_fixed_ratio_outside_ratio_bounds(self, tmp_path, capsys):
        bad = tmp_path / "fix.cfg"
        bad.write_text("steps = 2\nbatch_size = 2\narm = ps-fix\nfixed_ratio = 0.01\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "fixed_ratio" in err
        assert not (tmp_path / "o").exists()

    def test_oversized_population_rejected(self, tmp_path, capsys):
        bad = tmp_path / "big.cfg"
        bad.write_text(f"steps = 2\nbatch_size = 2\npopulation.size = {2**32 + 1}\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "population size" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, key",
        [
            ("controller.step_size = inf", "step_size"),
            ("population.sensitivity_max = inf", "sensitivity_max"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, line, key):
        bad = tmp_path / "inf.cfg"
        bad.write_text(f"steps = 2\nbatch_size = 2\n{line}\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert key in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"steps = 3\n# caf\xe9 \xff\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "latin1.cfg" in err
        assert not (tmp_path / "o").exists()

    def test_output_under_a_regular_file_is_an_io_error(self, config_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["simulate", "--config", str(config_file), "--out", str(blocker / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ")
        assert captured.out == ""

    def test_broken_contract_exits_1(self, config_file, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise ContractError("rerollouts come only from controlled buckets")

        monkeypatch.setattr(cli, "run_experiment", broken)
        code = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rerollouts come only from controlled buckets\n"
        assert not (tmp_path / "o").exists()

    def test_repeat_is_byte_identical(self, config_file, tmp_path):
        main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "b")])
        for name in (
            "metrics.csv", "controller.csv", "transitions.csv", "run.jsonl",
            "meta.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


VERIFY_SEED_0_STDOUT = (
    "PASS landmark values: all reference values match\n"
    "PASS advantage oracles: max |closed form - enumeration| = 1.110e-16 over N <= 12\n"
    "PASS monte carlo survival and pair count: p=0.125: surv 0.65578, pairs 6.119; "
    "p=0.25: surv 0.89954, pairs 10.496; p=0.5: surv 0.99216, pairs 13.999\n"
    "PASS masking gradient contract: 50 randomized instances matched finite differences\n"
    "PASS controller unit behavior: half-crossing at update 14; "
    "10000 sequences per bucket clean\n"
    "PASS prefix pool memory bounds: (128, 2048, 16384) -> 8.60 MiB; "
    "(64, 4096, 32768) -> 8.60 MiB; (64, 4096, 65536) -> 16.20 MiB\n"
)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)
        # Pinned: every oracle's reported figure stays as it was.
        assert out == VERIFY_SEED_0_STDOUT

    def test_known_false_alarm_exits_1(self, capsys):
        # Seed 2101 is one of check_monte_carlo's documented false alarms.
        assert main(["verify", "--seed", "2101"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[2] == (
            "FAIL monte carlo survival and pair count: "
            "survival at p=0.125: |0.657848 - 0.656391| > 3se"
        )
        assert sum(line.startswith("PASS ") for line in lines) == 5

    def test_negative_seed(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0" in captured.err
        assert captured.out == ""


class TestCompare:
    def test_two_arms_two_seeds(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(config_file), "--arms",
             "baseline,ps-ada", "--seeds", "2", "--out", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "ps-ada" in out
        assert (out_dir / "summary.csv").is_file()
        for arm in ("baseline", "ps-ada"):
            for seed in (0, 1):
                assert (out_dir / f"{arm}-seed{seed}" / "metrics.csv").is_file()

    def test_unknown_arm(self, config_file, tmp_path, capsys):
        code = main(
            ["compare", "--config", str(config_file), "--arms", "warmup",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "unknown arm" in capsys.readouterr().err

    @pytest.mark.parametrize("arms", ["", ",", " , "])
    def test_empty_arm_name(self, config_file, tmp_path, capsys, arms):
        # split(",") always yields a part, so an empty list is an unknown arm.
        code = main(
            ["compare", "--config", str(config_file), "--arms", arms,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == "configuration error: unknown arm ''\n"
        assert not (tmp_path / "o").exists()

    def test_fixed_ratio_outside_ratio_bounds_writes_nothing(self, tmp_path, capsys):
        # The baseline arm runs first; a fixed ratio that ps-fix cannot use
        # fails before any arm writes its traces.
        bad = tmp_path / "fix.cfg"
        bad.write_text("steps = 2\nbatch_size = 2\nfixed_ratio = 0.01\n")
        code = main(
            ["compare", "--config", str(bad), "--arms", "baseline,ps-fix",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "fixed_ratio" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_arm_writes_nothing(self, config_file, tmp_path, capsys):
        # A repeated arm would run twice into the same directory and put two
        # identical rows in summary.csv.
        code = main(
            ["compare", "--config", str(config_file), "--arms", "ps-ada,baseline,ps-ada",
             "--seeds", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "arm 'ps-ada' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_seed_count(self, config_file, tmp_path, capsys):
        code = main(
            ["compare", "--config", str(config_file), "--seeds", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestParser:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["replay"])
        assert exc.value.code == 2

    def test_parser_lists_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("signal", "simulate", "verify", "compare"):
            assert name in text
