"""Record the reference detections digest of every workload for a seed range.

    python3 perfbench/reference.py FIRST LAST

Runs each workload once per seed in FIRST..LAST (one untraced worker
process each) and merges the digests of `results.csv` and every method's
flagged dates into `perfbench/reference.json`, which `run.py` compares
every run against.  Re-record only when a change is meant to alter the
pipeline's detections or a workload's inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    work = run.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for name, spec in workloads.WORKLOADS.items():
        for seed in range(first, last + 1):
            sample = run.run_sample("plain", spec, seed, work)
            if sample is None or sample["problems"]:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = sample["detections_sha256"]
            print(f"{name} seed {seed}: {sample['detections_sha256'][:16]}", flush=True)
    ordered = {
        name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        for name, seeds in sorted(reference.items())
    }
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
