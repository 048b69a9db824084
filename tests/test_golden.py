"""Golden digests of the byte-stable trace files.

The same config must give the same trace bytes on every run (criterion 10),
and also across refactors of the sampling and loss code. These tests pin
the sha256 of every byte-stable trace file for six configs:

* the criterion-10 config, which exercises the adaptive closed loop;
* an adaptive run with long trajectories and the non-default loss options
  (group mean, length normalization), which exercises the audit loss's
  masking, reduction and normalization on every group;
* the baseline arm, which samples fresh groups only;
* the hard-only arm with rerollouts deferred to the next step;
* the fixed-ratio arm with a three-word seed (2**64 + 5), N = 16 and the
  uniform population;
* a population whose length range is a single value, where the length draw
  still consumes the rollout's first random word.

Every random draw behind these files (rollouts, the population, task
picks and the audit policy) comes from passband's keyed SplitMix64
counter generator in env.py, computed in uint64 array arithmetic; no
numpy Generator is involved. A change to that generator, to the keying of its
streams, or to the arithmetic order of the audit loss, fails these tests
on purpose: such a change alters the traces, so it must be deliberate,
update the digests here and be recorded in CHANGES.md.
"""

import hashlib

import pytest

from passband.config import parse_config
from passband.harness import emit_traces, run_experiment

CRITERION_10 = "steps = 50\nseed = 9\n"
LONG_MEAN_NORMALIZED = (
    "arm = ps-ada\n"
    "steps = 20\n"
    "seed = 3\n"
    "population.length_min = 32\n"
    "population.length_max = 64\n"
    "loss.group_reduction = mean\n"
    "loss.length_normalized = true\n"
)
BASELINE = "arm = baseline\nsteps = 30\nseed = 4\n"
HARD_ONLY_NEXT_STEP = (
    "arm = ps-ada-hard-only\nsame_step_rerollout = false\nsteps = 30\nseed = 6\n"
)
FIX_WIDE_SEED_UNIFORM = (
    "arm = ps-fix\n"
    "steps = 20\n"
    "seed = 18446744073709551621\n"
    "group_size = 16\n"
    "population.preset = uniform\n"
)
FIXED_LENGTH = (
    "steps = 30\nseed = 8\npopulation.length_min = 2\npopulation.length_max = 2\n"
)

GOLDEN = {
    "criterion-10": (
        CRITERION_10,
        {
            "metrics.csv": "7233a569a942445c65f207994fadbd352f5c67e41095580d73f4109f8dc2d8d3",
            "controller.csv": "c0085e300ae03d29bebb265ad50f1df2b82b81ccb55ea6948d075fbf883291d6",
            "transitions.csv": "7306e9f1417b9211af059dfa752880f1f069803f6a44cdc29cb5f650ea2d33f1",
            "run.jsonl": "8262597b733148df46c8af83f6e4a799a88a8206c3ba055fa311f1b9fa567fb1",
        },
    ),
    "long-mean-normalized": (
        LONG_MEAN_NORMALIZED,
        {
            "metrics.csv": "f0cd365ec1924a08a200ebbbc4d0eb1c22700c0d14bea78907ab6d0ca5af469d",
            "controller.csv": "5fcb1a3b4ea684706bfa9c37e2fc38b76ce6933777c15d1b8a82c2984bd0fc56",
            "transitions.csv": "88fdf65c65e264d80d541d5dd7e0ff9f2f34c5b655bf0ba614b5ce3a4cb22eb1",
            "run.jsonl": "7f713c043b3c45ce786c4155159fdeac2502065ee9bcac8a6ad0b8c84336c78c",
        },
    ),
    "baseline": (
        BASELINE,
        {
            "metrics.csv": "640d90ed896f3361e8f64fe3c3a13dfc04bf73a3d80be613477b16d4e69c30ff",
            "controller.csv": "2196d9d5624a86dfec94b5d3db8ba78cefd3b34115cc420165c0a3a688963477",
            "transitions.csv": "aeb020f9e7147a6224e500770f5251e08d2c4dcfb7e1a8f87d2ac7121bd09cc4",
            "run.jsonl": "7b43095f104c60aa6b8173c22f2d6b5090e84e7c566b9404f49bb1917b74ca44",
        },
    ),
    "hard-only-next-step": (
        HARD_ONLY_NEXT_STEP,
        {
            "metrics.csv": "289f9b2e599fa0b3f86b9209e69737b2af77d6a49518dfdd7fbe586276ef5b0d",
            "controller.csv": "eb66adbac03b574cc55fb617a18393bf4c92e6ea0295c8b0265ceb507e481444",
            "transitions.csv": "95585304db33c1d2cf5a0b0d0133e0b731a40cb6dc0c860f90d2a6d86f062020",
            "run.jsonl": "5bb1c4f13664967284596c5732bc7939047eff25c4f15dccd124630d5145694f",
        },
    ),
    "fix-wide-seed-uniform": (
        FIX_WIDE_SEED_UNIFORM,
        {
            "metrics.csv": "e50e0b44a22f24c490539e00a4f74419c2b3a7400e6136a1820514f9ac621d7c",
            "controller.csv": "97c0d9ba301d404e4b31aca054797f5d46a04ae0dae21dd669978d0b6ab1e4b6",
            "transitions.csv": "b0b312b3971a84d16e85f293ea8d5e587fa4f9301774a3599611a20494d0caeb",
            "run.jsonl": "5ad9d3cdb7b3b2463bc81de20ca6067f7b4540c4d0501a0e814f5395db1b64be",
        },
    ),
    "fixed-length": (
        FIXED_LENGTH,
        {
            "metrics.csv": "cd5471f7ca787b90b92536e5cc6595ad75f7eda9eeda227d1b6c6c36a901ff06",
            "controller.csv": "b199108623b0972012f022fcaec431b745bcf8c5fd46d4a853522f18bbecee4b",
            "transitions.csv": "a23f8bad1b068580de23501b3053455888e78b4dab7d0e5047ea42e9d42b1ca6",
            "run.jsonl": "a6e26a95ab55390867c3a0d2e1c1461b92629e893a0fcb326a452bf3aeb8c21f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digests_are_pinned(name, tmp_path):
    text, expected = GOLDEN[name]
    emit_traces(run_experiment(parse_config(text)), tmp_path)
    actual = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in expected
    }
    assert actual == expected
