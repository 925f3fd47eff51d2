"""Record the reference digests in manifest.json.

    python3 hallbench/record_digests.py [WORKLOAD ...]

Runs one untraced child per workload and seed and stores its digest.  A
workload marked exhaustive in the manifest gets one digest under "any"
(its seed is unused); the others get seeds 0..DIGEST_SEEDS-1.  Every
stored run must be error-free.  Re-record only when a workload's pool
changes, never to make a failing run pass.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import MANIFEST, run_child  # noqa: E402

DIGEST_SEEDS = 20


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()
    digests = MANIFEST["digests"]
    for name in args.workloads or MANIFEST["workloads"]:
        entry = MANIFEST["workloads"][name]
        exhaustive = entry.get("exhaustive", False)
        seeds = [0] if exhaustive else range(DIGEST_SEEDS)
        table = {}
        for seed in seeds:
            c = run_child(name, seed, 0)
            if c["errors"] or c["instances"] != c["expected_instances"]:
                raise SystemExit(f"{name} seed {seed}: {c['errors']}, {c['instances']} results")
            table["any" if exhaustive else str(seed)] = c["digest"]
            print(name, seed, c["digest"], flush=True)
        digests[name] = table
    (HERE / "manifest.json").write_text(json.dumps(MANIFEST, indent=2) + "\n")


if __name__ == "__main__":
    main()
