"""One benchmark sample in a fresh process: set up, run the pipeline, report.

    python3 perfbench/worker.py MODE SEED SPAWN_TIME WORKDIR < workload.json

MODE is `setup` (set up only), `plain` (one untraced `run_pipeline`),
`spans` (traced) or `alloc` (traced with tracemalloc peaks).  SPAWN_TIME
is the harness's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` runs from process start to ready: interpreter start,
imports, panel generation, the input files and `load_config`.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now: the
    host's current speed, measured without any flagcrash code."""
    import numpy as np

    start = time.perf_counter()
    for _ in range(6):
        evens, thirds = set(range(0, 60000, 2)), set(range(0, 60000, 3))
        table = {}
        for i in range(40000):
            table[(i & 2047, i % 7)] = i
        total = len(evens & thirds) + sum(sorted(table.values())[:10])
        a = np.linspace(0.0, 1.0, 40000).reshape(200, 200)
        for _ in range(4):
            a = np.tanh(a @ a / 200.0)
        total += float(np.abs(a - a.mean(axis=0)).sum())
    return time.perf_counter() - start


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process loaded (Linux only)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": _blas_threads(),
    }


def detections_digest(run_dir: Path) -> str:
    """Digest of what the run detected: `results.csv` plus every method's
    flagged dates.  Flags depend on the scores, so this tells seeds apart
    where every method scores f = 1, yet it ignores last-bit score changes."""
    h = hashlib.sha256((run_dir / "results.csv").read_bytes())
    for report in sorted(run_dir.glob("report_*.json")):
        flags = json.loads(report.read_text(encoding="utf-8"))["anomalous_dates"]
        h.update(f"\0{report.name}:{','.join(flags)}".encode())
    return h.hexdigest()


def check_run_dir(run_dir: Path) -> list[str]:
    """Problems with a finished run's outputs; empty when they are sound."""
    problems = []
    if (run_dir / "FAILED").exists():
        problems.append("FAILED marker present")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    for name, digest in manifest["outputs"].items():
        if _sha256(run_dir / name) != digest:
            problems.append(f"manifest hash of {name} does not match the file")
    rows = [
        line.split(",")
        for line in (run_dir / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    ]
    best: dict[str, float] = {}
    for method, family, *prf in rows:
        p, r, f = (float(v) for v in prf)
        if not all(0.0 <= v <= 1.0 for v in (p, r, f)):
            problems.append(f"{method}: precision/recall/f outside [0, 1]")
        expected_f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        if abs(f - expected_f) > 2e-6:
            problems.append(f"{method}: f_score {f} is not the harmonic mean")
        best[family] = max(best.get(family, -1.0), f)
    for line in (run_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]:
        family, _, _, _, f = line.split(",")
        if best.pop(family, None) != float(f):
            problems.append(f"summary row for {family} is not its best result")
    if best:
        problems.append(f"summary lacks families {sorted(best)}")
    return problems


def main() -> int:
    mode, seed, spawn_time, workdir = sys.argv[1:5]
    spec = json.loads(sys.stdin.read())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy  # noqa: F401  (imports are part of set-up)
    import scipy  # noqa: F401

    import tracing
    import workloads
    from flagcrash.pipeline import load_config, run_pipeline

    config = load_config(workloads.write_inputs(spec, int(seed), Path(workdir)))
    out: dict = {"setup_s": time.monotonic() - float(spawn_time), "calibration_s": calibrate()}
    if mode != "setup":
        tracer = None
        if mode in ("spans", "alloc"):
            tracer = tracing.Tracer(track_alloc=mode == "alloc")
            tracer.install()
        start = time.perf_counter()
        run_dir = run_pipeline(config, jobs=1)
        out["run_s"] = time.perf_counter() - start
        if tracer is not None:
            out["layers"], out["counts"] = tracer.report(out["run_s"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(run_dir / "graphs.bin", "rb") as f:
            out["windows"] = int.from_bytes(f.read(16)[8:16], "little")
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        out["outputs_sha256"] = hashlib.sha256(
            json.dumps(manifest["outputs"], sort_keys=True).encode()
        ).hexdigest()
        out["detections_sha256"] = detections_digest(run_dir)
        out["best_f"] = max(
            float(line.rsplit(",", 1)[1])
            for line in (run_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        out["problems"] = check_run_dir(run_dir)
    out["environment"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
