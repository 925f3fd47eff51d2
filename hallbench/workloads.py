"""The benchmark's workloads, built only from hallchar's public API.

Each workload function takes a seed and returns a `Plan`: a list of calls,
each of which runs one verifier (or character) call and returns the result
lines it checked.  A result line is "label | lhs | rhs" for an identity instance
and "label | character" for a character; the digest of a run is the
SHA-256 of its sorted lines.  A call raises `NotEqual` when a report is
not EQUAL, so the child counts it like any other failure.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random

from hallchar import catalog, cli, cluster, symspace, verify
from hallchar import quiver as quivers


class NotEqual(Exception):
    """A report came back NOT EQUAL."""


@dataclasses.dataclass
class Plan:
    calls: list  # [(name, label, callable returning [result line, ...])]
    expected_instances: int  # result lines the calls must produce
    latency_probe: str = None  # verify function timed for call_ms instead of the calls


def digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _checked(report, label):
    if not report.equal:
        raise NotEqual(f"{label}: {report.lhs} != {report.rhs}")
    return report


def _degenerate_groups(quiver, cap):
    """Criterion 3's grouping: per total dims, the fingerprint-distinct
    (xi, eta) splits; every split is also a group (xi', eta')."""
    out = []
    for dims in itertools.product(*[range(c + 1) for c in cap]):
        seen = {}
        for xi, eta in symspace.split_pairs(quiver, dims):
            seen.setdefault((xi.fingerprint(), eta.fingerprint()), (xi, eta))
        pairs = list(seen.values())
        out.extend((xi2, eta2, pairs) for xi2, eta2 in pairs)
    return out


def _degenerate_call(xi2, eta2, pairs):
    label = f"{xi2} ; {eta2}"

    def run():
        r = _checked(verify.verify_green_degenerate_all(xi2, eta2, pairs), label)
        if len(r.terms) != len(pairs):
            raise NotEqual(f"{label}: {len(r.terms)} terms for {len(pairs)} pairs")
        return [f"{label} ; {t['xi']} ; {t['eta']} | {t['lhs']} | {t['rhs']}" for t in r.terms]

    return ("verify_green_degenerate_all", label, run)


def _char_call(table, sym):
    def run():
        return [f"{sym} | {table.char(sym)}"]

    return ("CharTable.char", str(sym), run)


def _report_call(name, label, fn):
    def run():
        r = _checked(fn(), label)
        return [f"{label} | {r.lhs} | {r.rhs}"]

    return (name, label, run)


# ---------------------------------------------------------------------------


A3_BOX = (2, 2, 2)
A3_BOX_GROUPS, A3_BOX_INSTANCES = 585, 38505
A3_MAX_TOTAL = 4


def green_degenerate_a3(seed):
    """One seed-sampled (xi', eta') group per total module of total
    dimension <= A3_MAX_TOTAL in the A_3 box, in pool order."""
    quiver = quivers.linear_quiver(3)
    groups = _degenerate_groups(quiver, A3_BOX)
    if len(groups) != A3_BOX_GROUPS or sum(len(g[2]) for g in groups) != A3_BOX_INSTANCES:
        raise RuntimeError("A_3 box pool does not match criterion 3's totals")
    by_total = {}
    for xi2, eta2, pairs in groups:
        if sum(xi2.dims) + sum(eta2.dims) <= A3_MAX_TOTAL:
            by_total.setdefault(xi2.direct_sum(eta2).fingerprint(), []).append(
                (xi2, eta2, pairs)
            )
    rng = random.Random(seed)
    picked = [rng.choice(options) for options in by_total.values()]
    return Plan(
        [_degenerate_call(*g) for g in picked], sum(len(g[2]) for g in picked)
    )


KRONECKER_DEGENERATE_INSTANCES = 1375


def kronecker(seed):
    """Criterion 3's Kronecker sweep, criterion 4's Kronecker projective
    part and all Kronecker characters within (2,2).  The pool is exhaustive
    and the seed is unused (see the note above WORKLOADS)."""
    quiver = quivers.kronecker_quiver()
    sym = lambda text: catalog.parse_symbol(text, quiver)
    groups = _degenerate_groups(quiver, (2, 2))
    if sum(len(g[2]) for g in groups) != KRONECKER_DEGENERATE_INSTANCES:
        raise RuntimeError("Kronecker pool does not match criterion 3's total")
    calls = [_degenerate_call(*g) for g in groups]
    pairs = symspace.split_pairs(quiver, (1, 1))
    s1, s2 = sym("S1"), sym("S2")
    for xi, eta in pairs:
        calls.append(_report_call(
            "verify_green_projective", f"S1 ; S2 ; {xi} ; {eta}",
            lambda xi=xi, eta=eta: verify.verify_green_projective(s1, s2, xi, eta),
        ))
    table = cluster.CharTable(quiver)
    symbols = symspace.all_symbols_up_to(quiver, (2, 2))
    calls.extend(_char_call(table, s) for s in symbols)
    calls.append(_report_call(
        "verify_cc1", "S1 ; S2", lambda: verify.verify_cc1(s1, s2, table=table)
    ))
    expected = KRONECKER_DEGENERATE_INSTANCES + len(pairs) + len(symbols) + 1
    if (len(pairs), len(symbols)) != (6, 20):
        raise RuntimeError("Kronecker pool does not match criterion 4's and 1's sizes")
    return Plan(calls, expected)


CHAR_POOLS = ((2, (3, 3), 4), (3, (2, 2, 2), 3))  # (A_n, box, max total dimension)


def characters_a(seed):
    """CharTable characters of every symbol of the capped A_2 and A_3
    pools, then cc1 and cc2 over the A_3 indecomposables.  The pool is
    exhaustive and the seed is unused (see the note above WORKLOADS)."""
    calls = []
    for n, cap, max_total in CHAR_POOLS:
        quiver = quivers.linear_quiver(n)
        table = cluster.CharTable(quiver)
        symbols = [
            s for s in symspace.all_symbols_up_to(quiver, cap) if sum(s.dims) <= max_total
        ]
        calls.extend(_char_call(table, s) for s in symbols)
    quiver = quivers.linear_quiver(3)
    table = cluster.CharTable(quiver)
    indecs = symspace.indecomposable_symbols(quiver, (2, 2, 2))
    for xi2, eta2 in itertools.permutations(indecs, 2):
        calls.append(_report_call(
            "verify_cc1", f"{xi2} ; {eta2}",
            lambda a=xi2, b=eta2: verify.verify_cc1(a, b, table=table),
        ))
    for xi2 in indecs:
        for v in catalog.simple_projective_vertices(quiver):
            rho = tuple(int(i == v) for i in range(quiver.n))
            calls.append(_report_call(
                "verify_cc2", f"{xi2} ; {rho}",
                lambda a=xi2, r=rho: verify.verify_cc2(a, r, table=table),
            ))
    return Plan(calls, len(calls))


CLI_SAMPLE = 1000  # of the 1470 instances, so the work hardly depends on the seed


def green_ff_cli_a3(seed):
    """`hallchar verify green-ff --quiver a3 --all --max-dim 2,1,1
    --sample CLI_SAMPLE --seed <seed> --json`, through `cli.main`.

    Per-call latency is taken by a timing shim around
    `verify.verify_green_ff`, which the CLI looks up at call time.
    """
    argv = [
        "verify", "green-ff", "--quiver", "a3", "--all", "--max-dim", "2,1,1",
        "--sample", str(CLI_SAMPLE), "--seed", str(seed), "--json",
    ]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        doc = json.loads(out.getvalue().strip().splitlines()[-1])
        if code != 0 or not doc.get("all_equal") or doc.get("total") != CLI_SAMPLE:
            raise NotEqual(f"hallchar exit {code}: {json.dumps(doc)[:300]}")
        return [
            f"{d['xi']} ; {d['eta']} ; {d['xi_prime']} ; {d['eta_prime']} | {d['lhs']} | {d['rhs']}"
            for d in doc["instances"]
        ]

    return Plan([("cli.main", " ".join(argv), run)], CLI_SAMPLE, "verify_green_ff")


# Exhaustive pools (kronecker, characters-a) run in pool order whatever the
# seed: shuffling them moved which call pays for the shared census caches,
# and with it call_ms.p50 by a third between seeds, while the work done
# stayed the same.  For the same reason green-degenerate-a3 keeps pool order.

WORKLOADS = {
    "green-degenerate-a3": green_degenerate_a3,
    "kronecker": kronecker,
    "characters-a": characters_a,
    "green-ff-cli-a3": green_ff_cli_a3,
}
