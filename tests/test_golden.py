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
  consumes no random word.

Rollout streams are computed by passband's own array kernel, which
reproduces numpy's SeedSequence -> PCG64 stream word for word; task picks,
the population and the audit policy still come from numpy's Generator.
A change to either stream, or to the arithmetic order of the audit loss,
fails these tests on purpose: such a change alters the traces, so it must
be deliberate, update the digests here and be recorded in CHANGES.md.
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
            "metrics.csv": "70a93537dc4b4c9a834a269c0843d829c24cf4b0356650c1fe8eebf11ce0f015",
            "controller.csv": "aa2d4879ed29cfe0b85f5eda62e7b773421575e482636a3d048815640c017e60",
            "transitions.csv": "32a90fad076af77e70991348ebff9417cfb88879cee95b92af3572407da0785e",
            "run.jsonl": "9ed8a359a44f20bed1a95e57705a41073d79d358ac7475a6bb15f91ed6474946",
        },
    ),
    "long-mean-normalized": (
        LONG_MEAN_NORMALIZED,
        {
            "metrics.csv": "451eba39fa4bfc18bd8259711a621e643eca3058e113e2ddc6e57b37888423bf",
            "controller.csv": "79aa9237d2d759fcf54f64803400e2f27d23a66f5e626b2bd8b99c47b164de56",
            "transitions.csv": "23bc2b21af2471d31219c50ba875689e7897554c5d9b524d506f7258c7f90472",
            "run.jsonl": "e2714dcd79c2dd49b6359aa310c69f614290675e865a62e89bdfdc28d2a79688",
        },
    ),
    "baseline": (
        BASELINE,
        {
            "metrics.csv": "4e34c096cc6d005a5be28a458aca67a0b6f89a93cbe0b7a47f01e1fa6b9301de",
            "controller.csv": "2196d9d5624a86dfec94b5d3db8ba78cefd3b34115cc420165c0a3a688963477",
            "transitions.csv": "aeb020f9e7147a6224e500770f5251e08d2c4dcfb7e1a8f87d2ac7121bd09cc4",
            "run.jsonl": "5b6d673f9312997e555749f86843d48a76c91459b46f8b23fb0ceed39cdf795e",
        },
    ),
    "hard-only-next-step": (
        HARD_ONLY_NEXT_STEP,
        {
            "metrics.csv": "bc0f187c2ea7e4618aed92335e7851a8f0412da04aca3613a86bcc00f4134e0e",
            "controller.csv": "4404bd470fcb385f18f14bf7e6e9ec0cd66318ed7419331c1a882319765d58bc",
            "transitions.csv": "036ac575cb6fffd7b74ec5830317ad1999952d0e13782c02160e12077fc31039",
            "run.jsonl": "3bdf6ae6bb11fe7de74524d59f465870172ceae46885841fcae9eb43fe199972",
        },
    ),
    "fix-wide-seed-uniform": (
        FIX_WIDE_SEED_UNIFORM,
        {
            "metrics.csv": "d77013daa1829fcd86493c7edd49bfe184376d0e5ee813024935cf892eefd018",
            "controller.csv": "56dbeeda4c25881411b628be73bff6882be4b280b9875150a32c9ca93aad1f5f",
            "transitions.csv": "994b33ae35c53214fd55c9e67d4804f5c8e547e0ae34d318076b810b74bce9ee",
            "run.jsonl": "d0043b193c566180ade94355980d24f6ff130a07b2cf82cffe59f5ce85000ac8",
        },
    ),
    "fixed-length": (
        FIXED_LENGTH,
        {
            "metrics.csv": "c51e7919bf99fe0306f1e9689c5bec85ce09f38479d0da8bf93721718276aa86",
            "controller.csv": "a4101a8ebf3c675ebe286c1c51fbd0fb044f24f8ef600013da14408a5e17ad5f",
            "transitions.csv": "e51027f3fb127bc29559025f4afa83e6710aacdebed6a820878739c21b6135ae",
            "run.jsonl": "d095f5ade67a6ea87d31ad57b8189db68aa6057bdfbd91208651bd2b3e82aef3",
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
