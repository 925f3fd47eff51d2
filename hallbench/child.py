"""One measured run of one workload in a fresh interpreter.

    python3 hallbench/child.py --workload NAME --seed N --trace 0|1 --spawned-at T [--setup-only]

`T` is the parent's `time.monotonic()` just before it started this
process, so set-up time includes interpreter start.  The child imports
hallchar from the checkout's `src/`, builds the workload (and, with
`--trace 1`, installs the layer tracer first), runs its calls, and prints
one JSON object as its last line of standard output.  With `--trace 1` it
also writes its spans to `.hallbench/` in the checkout.  With
`--setup-only` it stops after set-up and reports only `setup_s` and the
reference loop's time (`ref_ms`, from SETUP_REF_SAMPLES samples).

Before every timed call the child also times a fixed reference loop (see
`Reference`); its time is left out of `wall_s` and `call_ms`.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def environment(loadavg_at_start):
    import importlib.util

    import numpy

    from hallchar import linalg

    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "linalg.PURE_NUMPY": bool(linalg.PURE_NUMPY),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_at_start": loadavg_at_start,
    }


REFERENCE_LOOPS = 4000
SETUP_REF_SAMPLES = 100


class Reference:
    """Times a fixed pure-Python loop that does not touch hallchar.

    This machine's speed for interpreted code swings by a third for minutes
    at a time; the loop slows with it, so latencies divided by the child's
    median loop time stay comparable between runs.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(REFERENCE_LOOPS):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)


def _probe(store, fn, reference):
    """Time each call of `fn` into `store`, sampling `reference` (when
    given) before it."""

    def timed(*args, **kwargs):
        if reference is not None:
            reference.sample()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            store.append((time.perf_counter() - t0) * 1000.0)

    return timed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    loadavg = os.getloadavg()[0]

    import hallchar

    if not Path(hallchar.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hallchar imported from {hallchar.__file__}, not from this checkout")
    from hallchar import ComputationError, qpoly, verify

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    plan = workloads.WORKLOADS[args.workload](args.seed)
    latencies, reference = [], Reference()
    probe = plan.latency_probe
    if probe:
        # a traced child samples only outside every span: between plan
        # calls, and here, since the probe runs inside the caller's span
        inner = None if tracer else reference
        setattr(verify, probe, _probe(latencies, getattr(verify, probe), inner))
        while tracer and len(reference.samples) < 20:
            reference.sample()
    fits_before = qpoly.VERIFIED_FITS

    first = time.monotonic()
    if args.setup_only:
        for _ in range(SETUP_REF_SAMPLES):
            reference.sample()
        print(json.dumps({
            "setup_s": first - args.spawned_at,
            "ref_ms": statistics.median(reference.samples) * 1000.0,
        }))
        return
    t0, cpu0 = time.perf_counter(), time.process_time()
    untimed = len(reference.samples)
    lines, errors = [], {}
    for name, label, run in plan.calls:
        reference.sample()
        c0 = time.perf_counter()
        try:
            lines.extend(run())
        except (ComputationError, AssertionError, workloads.NotEqual) as exc:
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            print(f"{name} {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if not probe:
            latencies.append((time.perf_counter() - c0) * 1000.0)
    in_region = sum(reference.samples[untimed:])
    wall = time.perf_counter() - t0 - in_region
    cpu = time.process_time() - cpu0 - in_region

    out = {
        "setup_s": first - args.spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "call_ms": latencies,
        "ref_ms": statistics.median(reference.samples) * 1000.0,
        "instances": len(lines),
        "expected_instances": plan.expected_instances,
        "errors": errors,
        "digest": workloads.digest(lines),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(loadavg),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "layers": tracer.layer_table(),
            "calls": tracer.calls,
            "counts": tracer.counts,
            "aliases": tracer.aliases,
            "fits_verified": qpoly.VERIFIED_FITS - fits_before,
        }
        spans_dir = ROOT / ".hallbench"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
