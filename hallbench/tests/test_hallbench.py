"""Tests of the benchmark's tracer and workload determinism.

    python3 -m pytest hallbench/tests
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_times_sum_to_traced_total():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()
        clock.advance(0.5)

    def top():
        clock.advance(4.0)
        middle()
        leaf()

    leaf = t.wrap_function("linalg.leaf", "linalg", leaf)
    middle = t.wrap_function("rep.middle", "rep", middle)
    top = t.wrap_function("verify.top", "verify", top)
    top()
    clock.advance(3.0)  # between root spans: not traced
    middle()

    assert t.self_s == {"linalg.leaf": 5.0, "rep.middle": 5.0, "verify.top": 4.0}
    assert t.calls == {"linalg.leaf": 5, "rep.middle": 2, "verify.top": 1}
    assert t.root_s == 14.0
    assert sum(t.self_s.values()) == t.root_s
    layers = t.layer_table()
    assert layers["linalg"] == (5.0, 5) and layers["cli"] == (0.0, 0)
    # every span has its parent recorded before it ends
    ids = {span[0] for span in t.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in t.spans)


def test_generator_is_timed_per_next_not_at_creation():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.advance(1.0)  # work done to produce item i
            yield i
        clock.advance(0.25)  # work after the last item

    gen = t.wrap_generator("subspaces.gen", "subspaces", gen)

    def consumer():
        it = gen()
        clock.advance(10.0)  # creation did no work; this is the consumer's
        out = []
        for x in it:
            clock.advance(2.0)  # consumer's own work between items
            out.append(x)
        return out

    consumer = t.wrap_function("verify.consumer", "verify", consumer)
    assert consumer() == [0, 1, 2]
    assert t.self_s["subspaces.gen"] == 3.25
    assert t.self_s["verify.consumer"] == 16.0
    assert t.calls["subspaces.gen"] == 4  # three items and the final StopIteration
    assert t.counts["subspaces.gen.yields"] == 3
    assert t.counts["subspaces.gen.started_in.verify.consumer"] == 1
    assert sum(t.self_s.values()) == t.root_s == 19.25


def test_exceptions_close_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    boom = t.wrap_function("rep.boom", "rep", boom)
    with pytest.raises(ValueError):
        boom()
    assert t.calls == {"rep.boom": 1} and t.root_s == 1.0 and not t._stack


def test_layer_calls_and_cells_count_only_calls_into_the_layer():
    from hallchar import linalg

    t = tracer.Tracer().install()
    try:
        linalg.rank_mod(np.array([[1, 2], [3, 4]], dtype=np.int64), 5)  # calls rref_mod
    finally:
        t.uninstall()
    assert t.calls["linalg.rank_mod"] == t.calls["linalg.rref_mod"] == 1
    assert t.layer_table()["linalg"][1] == 1
    assert t.counts["linalg.matrix_calls"] == 1 and t.counts["linalg.cells"] == 4


def test_install_patches_classes_and_aliases_then_restores():
    from hallchar import cluster, qpoly, quiver, subspaces

    originals = (
        quiver.Quiver.is_dynkin,
        cluster.CharTable.char,
        subspaces.gaussian_binomial,
        qpoly.gaussian_binomial,
    )
    t = tracer.Tracer().install()
    try:
        assert quiver.Quiver.is_dynkin is not originals[0]
        assert cluster.CharTable.char is not originals[1]
        # the alias and the defining attribute share one wrapper
        assert subspaces.gaussian_binomial is qpoly.gaussian_binomial
        assert "hallchar.subspaces.gaussian_binomial -> qpoly.gaussian_binomial" in t.aliases
        assert "hallchar.qpoly.primes_from -> catalog.primes_from" in t.aliases

        q = quiver.linear_quiver(2)
        sym = workloads.catalog.parse_symbol("S1+S2", q)
        cluster.CharTable(q).char(sym)
        assert t.calls["quiver.Quiver.is_dynkin"] >= 1
        assert t.calls["cluster.CharTable.char"] >= 3  # the symbol and its two summands
        assert t.counts["qpoly.primes_counted"] >= 1
        layers = t.layer_table()
        assert abs(sum(s for s, _ in layers.values()) - t.root_s) < 1e-9
        assert layers["cluster"][1] > 0 and layers["subspaces"][1] > 0
    finally:
        t.uninstall()
    restored = (
        quiver.Quiver.is_dynkin,
        cluster.CharTable.char,
        subspaces.gaussian_binomial,
        qpoly.gaussian_binomial,
    )
    assert all(a is b for a, b in zip(originals, restored))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_pool(name):
    build = workloads.WORKLOADS[name]
    first, again = build(7), build(7)
    labels = [label for _, label, _ in first.calls]
    assert labels == [label for _, label, _ in again.calls]
    assert first.expected_instances == again.expected_instances


def test_seed_samples_the_a3_groups():
    a, b = workloads.green_degenerate_a3(1), workloads.green_degenerate_a3(2)
    assert sorted(label for _, label, _ in a.calls) != sorted(label for _, label, _ in b.calls)
    assert a.expected_instances == b.expected_instances  # one group per total module


def _child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_gives_same_digest_twice():
    first, again = _child("characters-a", 5), _child("characters-a", 5)
    assert first["errors"] == {} and first["instances"] == first["expected_instances"]
    assert first["digest"] == again["digest"]
    manifest = json.loads((HERE / "manifest.json").read_text())
    stored = manifest["digests"]["characters-a"]
    assert stored.get("any", stored.get("5")) == first["digest"]


def test_end_to_end_drops_a_slow_spell_in_one_child():
    import run

    base = [float(i % 7 + 1) for i in range(40)]
    slow = [x * 3 if 10 <= i < 20 else x for i, x in enumerate(base)]

    def child(calls, ref_ms):
        return {"call_ms": calls, "wall_s": sum(calls) / 1000 + 0.5, "instances": 80,
                "setup_s": 0.2, "peak_rss_mb": 35.0, "ref_ms": ref_ms}

    children = [child(base, 0.5), child(slow, 0.5), child(base, 0.5)]
    setups = [{"setup_s": 0.1, "ref_ms": 0.5}, {"setup_s": 0.3, "ref_ms": 0.5}]
    measured, gated, pct, n = run.end_to_end(children, setups)
    assert measured["wall_s"][0] == pytest.approx(sum(base) / 1000 + 0.5)
    assert measured["call_ms.p50"][0] == statistics.median(base)
    assert measured["call_ms.tail"][0] == sorted(base)[40 - 11] and pct == 75.0 and n == 40
    assert measured["setup_s"][0] == 0.2
    assert gated["setup_s"][0] == pytest.approx(0.2 * run.REF_NOMINAL_MS / 0.5)
    # gated times are in units of the reference loop's time
    assert gated["wall_ref"][0] == pytest.approx(measured["wall_s"][0] * 1000 / 0.5)
    assert gated["call_ref.p50"][0] == pytest.approx(statistics.median(base) / 0.5)


def test_reference_units_cancel_a_uniformly_slower_machine():
    import run

    calls = [float(i % 5 + 1) for i in range(30)]

    def child(scale):
        return {"call_ms": [x * scale for x in calls], "wall_s": scale * (sum(calls) / 1000 + 0.1),
                "instances": 30, "setup_s": 0.2 * scale, "peak_rss_mb": 35.0,
                "ref_ms": 0.3 * scale}

    def setup(scale):
        return {"setup_s": 0.15 * scale, "ref_ms": 0.3 * scale}

    _, fast, _, _ = run.end_to_end([child(1.0)] * 3, [setup(1.0)] * 8)
    _, slow, _, _ = run.end_to_end([child(1.4)] * 3, [setup(1.4)] * 8)
    for key in ("wall_ref", "instances_per_kref", "call_ref.p50", "call_ref.tail", "setup_s"):
        assert slow[key][0] == pytest.approx(fast[key][0])
