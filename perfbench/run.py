"""flagcrash benchmark: end-to-end pipeline runs on generated panels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.log CHANGE.log

A run is a closed loop with one client: each sample is a fresh worker
process (`worker.py`) that sets up and calls `run_pipeline` once with
jobs=1 and BLAS pinned to one thread; the next sample starts when it has
ended.  Samples start while they are expected to end within `--seconds`
(at least two are taken).  With
`--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics from traced samples, which alternate
with untraced ones so the tracing overhead is measured in the same run.
The line before it is the full record (`{"perfbench": ...}`): every
sample, the spreads, the correctness checks and the machine stamp.
`--compare` classifies each workload's end-to-end metrics between two
files of such output; see `compare`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes per run, after one warm-up
# The host's speed drifts by up to 1.5x in phases of seconds to minutes,
# alike for the pipeline and for worker.calibrate(), which every worker
# process runs once after set-up.  Time metrics are wall times scaled by
# CALIBRATION_REF_S / (median calibration of the run): seconds at a fixed
# reference speed, comparable between runs made at different times.
CALIBRATION_REF_S = 0.12
MIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 170
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def src_digest() -> str:
    """Identity of the program under test; the checkout need not be a git repo."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flagcrash").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not its own git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_sample(mode: str, spec: dict, seed: int, work: Path) -> dict | None:
    """One worker process; None if it failed."""
    workdir = Path(tempfile.mkdtemp(dir=work))
    env = dict(os.environ, **WORKER_ENV)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(seed), repr(spawn), str(workdir)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        _log(f"{mode} sample timed out after {SAMPLE_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        _log(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return None
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["mode"] = mode
    sample["wall_s"] = time.monotonic() - spawn
    return sample


class StateStore:
    """Digests and counts of earlier runs in this checkout, per program version.

    Repeated runs of one program on one input must give identical outputs
    and identical layer counts, across processes as well as within one.
    """

    def __init__(self, path: Path, version: str):
        self.path = path
        self.version = version
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, field: str, value) -> bool:
        entry = self.data.setdefault(self.version, {}).setdefault(key, {})
        if field not in entry:
            entry[field] = value
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return True
        return entry[field] == value


def check_samples(samples, name: str, spec: dict, seed: int, store: StateStore) -> tuple[list, dict]:
    """Mark each sample ok or not; return (ok flags, details for the record)."""
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get(name, {}).get(str(seed))
    spec_id = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    key = f"{name}/seed{seed}/{spec_id}"
    details = {"reference_detections_sha256": expected, "problems": []}
    ok = []
    for s in samples:
        problems = list(s["problems"])
        if s["windows"] != workloads.n_windows(spec):
            problems.append(f"{s['windows']} windows, expected {workloads.n_windows(spec)}")
        if expected is not None and s["detections_sha256"] != expected:
            problems.append("results.csv or flagged dates differ from the recorded reference")
        if not store.check(key, "detections_sha256", s["detections_sha256"]):
            problems.append("results.csv or flagged dates differ from an earlier run of this program")
        if not store.check(key, "outputs_sha256", s["outputs_sha256"]):
            problems.append("manifest output hashes differ from an earlier run of this program")
        if "counts" in s and not store.check(key, "counts", s["counts"]):
            problems.append("layer counts differ from an earlier run of this program")
        details["problems"].extend(f"{s['mode']} sample: {p}" for p in problems)
        ok.append(not problems)
    return ok, details


def bench(
    name: str, spec: dict, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES
) -> tuple[dict, dict]:
    """Measure one workload; return (record, final result line)."""
    units = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if trace else "end_to_end"
        ]
    }
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    version = src_digest()
    store = StateStore(work / "state.json", version)

    if run_sample("setup", spec, seed, work) is None:  # warm-up: bytecode, page cache
        raise SystemExit("set-up failed; is this a flagcrash checkout?")
    # set-up time is an end-to-end metric, so traced runs skip the probes
    setups = [run_sample("setup", spec, seed, work) for _ in range(0 if trace else setup_probes)]
    cycle = ["plain", "spans"] if trace else ["plain"]
    samples, attempted = [], 0
    start = time.monotonic()
    # start another sample while it is expected to end within `seconds`
    while attempted < MIN_SAMPLES or (
        time.monotonic() - start
    ) * (attempted + 1) / attempted <= seconds:
        s = run_sample(cycle[attempted % len(cycle)], spec, seed, work)
        attempted += 1
        if s is not None:
            samples.append(s)
        _log(f"{name} seed {seed}: {cycle[(attempted - 1) % len(cycle)]} sample {attempted} "
             + (f"run_s {s['run_s']:.3f}" if s else "failed"))
    if trace:
        s = run_sample("alloc", spec, seed, work)
        attempted += 1
        if s is not None:
            samples.append(s)

    ok, details = check_samples(samples, name, spec, seed, store)
    good = [s for s, k in zip(samples, ok) if k]
    failed = attempted - len(good)
    if not any(s["mode"] == "plain" for s in good):
        raise SystemExit("no sample succeeded")

    plain = [s for s in good if s["mode"] == "plain"]
    processes = [s for s in setups + samples if s is not None]
    calibration_s = statistics.median(s["calibration_s"] for s in processes)
    scale = CALIBRATION_REF_S / calibration_s
    stats = {
        "run_s": _quartiles([s["run_s"] * scale for s in plain]),
        "windows_per_s": _quartiles([s["windows"] / (s["run_s"] * scale) for s in plain]),
        "peak_rss_mb": _quartiles([s["peak_rss_mb"] for s in plain]),
        "setup_s": _quartiles([s["setup_s"] * scale for s in setups + plain if s is not None]),
        "run_wall_s": _quartiles([s["run_s"] for s in plain]),
        "calibration_s": _quartiles([s["calibration_s"] for s in processes]),
    }
    if trace:
        spans = [s for s in good if s["mode"] == "spans"]
        alloc = [s for s in good if s["mode"] == "alloc"]
        if not spans:
            raise SystemExit("no traced sample succeeded")
        timed = {m for m, unit in units.items() if unit in ("s", "ms")}
        values = {
            m: statistics.median(s["layers"][m] for s in spans) * (scale if m in timed else 1.0)
            for m in spans[0]["layers"]
        }
        plain_run = stats["run_s"]["median"]
        if alloc:
            values.update({m: v for m, v in alloc[0]["layers"].items() if m.endswith("peak_alloc_mb")})
            values["trace.alloc_overhead_s"] = alloc[0]["run_s"] * scale - plain_run
        values["trace.overhead_s"] = statistics.median(s["run_s"] for s in spans) * scale - plain_run
    else:
        values = {m: stats[m]["median"] for m in units if m in stats}
        values["best_f"] = plain[0]["best_f"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_frac": failed / attempted,
        "stamp": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **samples[0]["environment"],
            "git_sha": git_sha(),
            "src_sha256": version,
            "seed": seed,
        },
        "stats": stats,
        "metrics": values,
        "counts": good[-1].get("counts") if trace and good else None,
        "checks": details,
        "samples": [
            {k: v for k, v in s.items() if k not in ("environment", "layers", "counts")}
            for s in samples
        ],
    }
    return record, result


def _read_records(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith('{"perfbench"'):
                record = json.loads(line)["perfbench"]
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def classify(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """better / unchanged / worse / unresolved for one metric on one workload.

    Runs are paired in file order, so make them alternating which side goes
    first.  A gain needs at least ten pairs, the change winning 9/10 of them
    (ties count for neither), and a median gap larger than the parent's
    quartile spread.  No regression means the change's median is not worse
    than the parent's by more than `bound` of it; where the parent's own
    spread is wider than the bound that is unresolved, unless every change
    run beats every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q = _quartiles(parent)
    spread = q["q3"] - q["q1"]
    gain = sign * (med_c - med_p)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(med_p) and not all_better:
        return "unresolved"
    return "worse" if gain < -bound * abs(med_p) else "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _read_records(parent_path), _read_records(change_path)
    status = 0
    for name in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(name, []), change.get(name, [])
        n = min(len(p_runs), len(c_runs))
        p_failed = sum(r["failed_frac"] > 0 for r in p_runs[:n])
        c_failed = sum(r["failed_frac"] > 0 for r in c_runs[:n])
        cells = [f"runs_with_failures={p_failed}->{c_failed}"]
        for m in spec["end_to_end"]:
            if n == 0:
                cells.append(f"{m['name']}=unresolved")
                continue
            p = [r["metrics"][m["name"]] for r in p_runs[:n]]
            c = [r["metrics"][m["name"]] for r in c_runs[:n]]
            verdict = classify(p, c, m["better"], m["bound"])
            if verdict == "better" and c_failed > p_failed:
                verdict = "unresolved"  # no gain counts while more runs fail
            med_p, med_c = statistics.median(p), statistics.median(c)
            rel = (med_c - med_p) / med_p * 100 if med_p else 0.0
            cells.append(f"{m['name']}={verdict}({med_p:.4g}->{med_c:.4g}, {rel:+.1f}%)")
            if verdict == "worse":
                status = 1
        print(f"{name}\tpairs={n}\t" + "\t".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "flagcrash" / "pipeline.py").is_file():
        _log(f"no flagcrash sources under {ROOT / 'src'}")
        return 2
    record, result = bench(
        args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
