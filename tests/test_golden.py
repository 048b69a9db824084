"""Golden digests of the byte-stable trace files.

The same config must give the same trace bytes on every run (criterion 10),
and also across refactors of the sampling and loss code. These tests pin
the sha256 of every byte-stable trace file for two configs:

* the criterion-10 config, which exercises the adaptive closed loop;
* an adaptive run with long trajectories and the non-default loss options
  (group mean, length normalization), which exercises the audit loss's
  masking, reduction and normalization on every group.

A change to numpy's random stream, or to the arithmetic order of the audit
loss, fails them on purpose: such a change alters the traces, so it must
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
