"""hallchar benchmark: run one workload for a fixed time and report metrics.

    python3 hallbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/hallchar`).
Each measurement is a fresh single-threaded child process
(`hallbench/child.py`) with cold memo caches.  A run starts SETUP_PROBES
set-up-only children, then runs full children one at a time (at least
MIN_UNTRACED) until the next one would end more than half a child past
`--seconds`.  End-to-end figures are medians over the untraced children
(see `end_to_end`).  The gated times are in units of a reference loop the
children time between calls, because the machine's own speed drifts; the
gated `setup_s` is scaled the same way, to seconds at a reference loop time
of REF_NOMINAL_MS.  The table also prints every time as measured.

With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` untraced and traced children alternate and the result carries
the per-layer metrics of the traced ones (see `tracer.py`).

A run is correct when every child finished, every report was EQUAL, the
instance counts match the pool's, every child produced the same digest and
that digest matches the one stored in `manifest.json` for the workload and
seed, when one is stored.  The last line of standard output is the JSON
result; the exit code is 0 only for a correct run.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "manifest.json").read_text())
CHILD_TIMEOUT_S = 170.0  # per child
SETUP_PROBES = 16  # extra set-up-only children per run, for a steady setup_s median
REF_NOMINAL_MS = 0.33  # the reference loop's median time on the 2-vCPU machine the bounds were set on
MIN_UNTRACED = 3  # fewest children whose per-call medians make the end-to-end figures
TAIL_MIN_BEYOND = 10


def child_env():
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload, seed, trace, setup_only=False):
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ] + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - spawned
    out["stderr"] = proc.stderr
    return out


def tail(values):
    """Highest order statistic with at least TAIL_MIN_BEYOND values above
    it, and its percentile."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"{n} calls: too few for a tail with {TAIL_MIN_BEYOND} beyond it")
    return xs[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def _sweep(children, unit):
    """(total, per-call latencies) in the children's times divided by
    unit(child).  Every child makes the same calls in the same order, so
    each call's latency is its median over the children, and a slow spell
    that hits one child drops out; the total adds the median time spent
    outside the calls."""
    scaled = [[ms / unit(c) for ms in c["call_ms"]] for c in children]
    per_call = [statistics.median(lat) for lat in zip(*scaled)]
    outside = statistics.median(
        (c["wall_s"] * 1000.0 - sum(c["call_ms"])) / unit(c) for c in children
    )
    return sum(per_call) + outside, per_call


def end_to_end(children, setups):
    """Measured metrics (seconds) and the gated ones, whose times are in
    `ref`, the median time of the child's reference loop (see child.py).
    `setup_s` is the median over the set-up-only and the full children;
    its gated value scales each child's by REF_NOMINAL_MS / its ref_ms.
    Returns (measured, gated, tail percentile, calls per child)."""
    wall_ms, per_call_ms = _sweep(children, lambda c: 1.0)
    wall_ref, per_call_ref = _sweep(children, lambda c: c["ref_ms"])
    tail_ms, tail_pct = tail(per_call_ms)
    tail_ref, _ = tail(per_call_ref)
    instances = children[0]["instances"]
    started = setups + children
    peak_rss = (statistics.median(c["peak_rss_mb"] for c in children), "MB")
    measured = {
        "wall_s": (wall_ms / 1000.0, "s"),
        "instances_per_s": (instances * 1000.0 / wall_ms, "1/s"),
        "call_ms.p50": (statistics.median(per_call_ms), "ms"),
        "call_ms.tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(c["setup_s"] for c in started), "s"),
        "peak_rss_mb": peak_rss,
        "ref_ms": (statistics.median(c["ref_ms"] for c in children), "ms"),
    }
    gated = {
        "wall_ref": (wall_ref, "ref"),
        "instances_per_kref": (instances * 1000.0 / wall_ref, "1/kref"),
        "call_ref.p50": (statistics.median(per_call_ref), "ref"),
        "call_ref.tail": (tail_ref, "ref"),
        "setup_s": (statistics.median(
            c["setup_s"] * REF_NOMINAL_MS / c["ref_ms"] for c in started), "s"),
        "peak_rss_mb": peak_rss,
    }
    return measured, gated, tail_pct, len(per_call_ms)


def per_layer(traced, untraced):
    def one(c):
        t = c["trace"]
        calls, counts = t["calls"], t["counts"]
        out = {}
        for layer in LAYERS:
            self_s, n = t["layers"][layer]
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.calls"] = (n, "count")
        matrix_calls = counts.get("linalg.matrix_calls", 0)
        census_calls = calls.get("subspaces.hall_census", 0)
        enumerations = counts.get("subspaces.subrep_bases.started_in.subspaces.hall_census", 0)
        out.update({
            "linalg.cells_per_call": (counts.get("linalg.cells", 0) / max(matrix_calls, 1), "cells"),
            "linalg.small_frac": (counts.get("linalg.small_calls", 0) / max(matrix_calls, 1), "ratio"),
            "rep.hom_dim.calls": (calls.get("rep.hom_dim", 0), "count"),
            "catalog.decompose.calls": (calls.get("catalog.decompose", 0), "count"),
            "catalog.module_from_class.calls": (calls.get("catalog.module_from_class", 0), "count"),
            "quiver.is_dynkin.calls": (calls.get("quiver.Quiver.is_dynkin", 0), "count"),
            "subspaces.hall_census.calls": (census_calls, "count"),
            "subspaces.grassmannian_count.calls": (calls.get("subspaces.grassmannian_count", 0), "count"),
            "subspaces.subreps_enumerated": (counts.get("subspaces.subrep_bases.yields", 0), "count"),
            "subspaces.census_hit_ratio": (
                1.0 - enumerations / census_calls if census_calls else 0.0, "ratio"),
            "qpoly.primes_counted": (counts.get("qpoly.primes_counted", 0), "count"),
            "qpoly.fits_verified": (t["fits_verified"], "count"),
            "cluster.chi.calls": (calls.get("cluster.chi_grassmannian", 0), "count"),
            "cluster.char.calls": (calls.get("cluster.CharTable.char", 0), "count"),
        })
        return out

    rows = [one(c) for c in traced]
    metrics = {
        key: (statistics.median(r[key][0] for r in rows), unit)
        for key, (_, unit) in rows[0].items()
    }
    in_ref = lambda c: c["wall_s"] * 1000.0 / c["ref_ms"]
    overhead = (
        statistics.median(in_ref(c) for c in traced)
        / statistics.median(in_ref(c) for c in untraced) - 1.0
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def stored_digest(workload, seed):
    table = MANIFEST["digests"].get(workload, {})
    return table.get("any", table.get(str(seed)))


def check(workload, seed, children):
    """Problems that make the run incorrect (an empty list when correct)."""
    problems = []
    for c in children:
        if c["errors"]:
            problems.append(f"errors {c['errors']}")
        if c["instances"] != c["expected_instances"]:
            problems.append(f"{c['instances']} results, expected {c['expected_instances']}")
    want = MANIFEST["workloads"][workload]["instances"]
    if children[0]["expected_instances"] != want:
        problems.append(f"pool has {children[0]['expected_instances']} instances, manifest says {want}")
    digests = {c["digest"] for c in children}
    if len(digests) != 1:
        problems.append(f"children disagree on the digest: {sorted(digests)}")
    stored = stored_digest(workload, seed)
    if stored is not None and digests != {stored}:
        problems.append(f"digest {sorted(digests)} != stored {stored}")
    return problems


def measure(workload, seed, seconds, trace):
    """Set-up probes, then children one at a time until the next one would
    end more than half a child past --seconds (alternating untraced and
    traced ones with --trace 1)."""
    start = time.monotonic()
    setups = [run_child(workload, seed, 0, setup_only=True) for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    longest = {0: 0.0, 1: 0.0}
    while True:
        kind = int(trace and len(traced) < len(untraced))
        done = len(untraced) >= (1 if trace else MIN_UNTRACED) and (traced or not trace)
        if done and time.monotonic() - start + longest[kind] / 2 > seconds:
            return setups, untraced, traced
        c = run_child(workload, seed, kind)
        longest[kind] = max(longest[kind], c["elapsed_s"])
        (traced if kind else untraced).append(c)


def run_workload(workload, seed, seconds, trace):
    """Measure one workload, print its report; returns the exit code."""
    start = time.monotonic()
    try:
        setups, untraced, traced = measure(workload, seed, seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"child failed: {exc}", file=sys.stderr)
        return 1

    children = untraced + traced
    problems = check(workload, seed, children)
    attempted = sum(c["expected_instances"] for c in children)
    failed = sum(c["expected_instances"] - c["instances"] for c in children)
    errors = {}
    for c in children:
        for kind, n in c["errors"].items():
            errors[kind] = errors.get(kind, 0) + n
    measured, gated, tail_pct, calls_per_child = end_to_end(untraced, setups)

    env = untraced[0]["environment"]
    print(f"workload {workload}  seed {seed}  children {len(untraced)} untraced"
          f" + {len(traced)} traced  measured {time.monotonic() - start:.1f} s")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("children wall_s " + " ".join(f"{c['wall_s']:.3f}" for c in untraced)
          + "  cpu_s " + " ".join(f"{c['cpu_s']:.3f}" for c in untraced)
          + "  setup_s " + " ".join(f"{c['setup_s']:.3f}" for c in setups + untraced))
    print("measured")
    for name, (value, unit) in measured.items():
        print(f"  {name:<22} {value:12.6g} {unit}")
    print(f"  error_frac             {failed / attempted:12.6g} ratio  by type {errors}")
    print("gated (times in ref = the reference loop's median time in the same child;"
          f" setup_s scaled to a {REF_NOMINAL_MS} ms reference loop)")
    for name, (value, unit) in gated.items():
        print(f"  {name:<22} {value:12.6g} {unit}")
    print(f"  the tails are p{tail_pct:.1f} of {calls_per_child} calls ({TAIL_MIN_BEYOND} beyond"
          " it); each call's latency is its median over children")
    stored = stored_digest(workload, seed)
    print(f"digest {untraced[0]['digest']}  stored {'none for this seed' if stored is None else stored}")

    if trace:
        metrics = per_layer(traced, untraced)
        total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        print("per layer (traced from import to last result; calls are calls into the layer"
              " from outside it; linalg cells are computed from the argument shapes of those calls)")
        for layer in LAYERS:
            s, n = metrics[f"{layer}.self_s"][0], metrics[f"{layer}.calls"][0]
            print(f"  {layer:<10} self {s:9.4f} s  {100 * s / total:5.1f}%  calls {n:10.0f}")
        for name, (value, unit) in metrics.items():
            if not name.endswith((".self_s", ".calls")) or name.count(".") > 1:
                print(f"  {name:<36} {value:12.6g} {unit}")
        print("aliases rebound (from-imports module patching cannot see): "
              + ", ".join(traced[0]["trace"]["aliases"]))
    else:
        metrics = gated
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)
    if problems:
        print("".join(c["stderr"] for c in children), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MANIFEST["workloads"]) + ["all"],
                    help="a workload, or all of them in turn (exit code 1 if any fails)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hallchar" / "__init__.py").is_file():
        print(f"no hallchar sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "hallchar", quiet=1)
    names = sorted(MANIFEST["workloads"]) if args.workload == "all" else [args.workload]
    return max([run_workload(name, args.seed, args.seconds, args.trace) for name in names])


if __name__ == "__main__":
    sys.exit(main())
