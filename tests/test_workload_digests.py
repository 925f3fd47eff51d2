"""Every benchmark workload's seed-0 plan (`hallbench/workloads.py`), run
in-process from a cold memo, gives the digest `hallbench/manifest.json`
records for it: the report values the benchmark checks are unchanged."""

import json
import sys
from pathlib import Path

import pytest

from hallchar import memo

HALLBENCH = Path(__file__).resolve().parent.parent / "hallbench"
sys.path.insert(0, str(HALLBENCH))

import workloads  # noqa: E402

DIGESTS = json.loads((HALLBENCH / "manifest.json").read_text())["digests"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_plan_gives_the_manifest_digest(name):
    memo.clear()
    plan = workloads.WORKLOADS[name](0)
    lines = [line for _, _, run in plan.calls for line in run()]
    memo.clear()
    assert len(lines) == plan.expected_instances
    stored = DIGESTS[name]
    assert workloads.digest(lines) == stored.get("any", stored.get("0"))
