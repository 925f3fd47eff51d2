"""Command-line driver: characters, Hall numbers, censuses, verification.

Commands
--------
char    --quiver Q --module SYM
        Print the cluster character of SYM as an exact Laurent polynomial,
        checked against the prime-free coefficient-quiver count where that
        covers SYM (type-A quivers; Kronecker P_n, I_n, R(m)).
hall    --quiver Q --module L --quot SYM --sub SYM
        Print the Hall counting polynomial g(q) = #{U <= L : U iso sub,
        L/U iso quot} and its evaluation at q = 1.
census  --quiver Q --module L [-p 2,3]
        Print every (sub, quotient) stratum of L with its count, per prime.
verify  THEOREM --quiver Q ...
        Check one identity instance, or sweep --all instances bounded by
        --max-dim (optionally subsampled with --sample/--seed).

THEOREM is one of green-ff, green-degenerate, green-projective, assoc,
cc1, cc2.  Instance operands: the Green identities take --xi --eta
--xi-prime --eta-prime; cc1 takes --xi --eta; cc2 takes --xi --rho;
assoc takes --x --y1 --y2 --l1 --l2.  Module symbols use the text
grammar of the catalog ("S1", "M[1,1]", "2*P[1,2]+R(1,1)@0", "0").

--quiver accepts a preset name (kronecker, a2, a3, a4) or a path to a
quiver file ("vertices <n>" then "arrow <id> <src> <dst>" lines,
1-based).  -p/--primes selects the exact-check primes for the per-prime
verifiers (green-ff, assoc) and the census.  --verify-primes lists extra
primes: per-prime verifiers check them exactly; interpolating commands
hold out that many primes beyond the fitting window (the engine always
fits and checks at consecutive primes above each symbol's minimum).

Exit status: 0 when every report is EQUAL, 1 when some report is not,
2 on usage or computation errors.  With --json all results — errors
included — are emitted as structured objects on stdout.
"""

import argparse
import itertools
import json
import sys
import types

from . import catalog, cluster, qpoly, subspaces, symspace, verify
from .errors import ComputationError
from .quiver import load_quiver
from .subspaces import DEFAULT_SUBSPACE_BUDGET

__all__ = ["main"]

_GREEN = ("green-ff", "green-degenerate", "green-projective")
_THEOREMS = _GREEN + ("assoc", "cc1", "cc2")


class _CliError(ValueError):
    """Usage error raised after argument parsing."""


def _ints(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checked_primes(primes, floor):
    """The sorted distinct `primes`, each checked by `catalog.check_primes`
    to be a prime >= `floor`, the smallest prime that keeps the operands'
    tube points distinct."""
    catalog.check_primes(primes, floor)
    return sorted(set(primes))


def _exact_primes(args, floor):
    """Prime list for the per-prime verifiers (green-ff, assoc) on operands
    whose smallest admissible prime is `floor`."""
    primes = list(args.primes or catalog.primes_from(floor, 2))
    primes += args.verify_primes or ()
    return _checked_primes(primes, floor)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", required=True, help="preset name or quiver file path")
    common.add_argument("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET,
                        help="enumeration budget per subspace census")
    common.add_argument("--verify-primes", type=_ints, default=None, metavar="P,P",
                        help="extra held-out primes (see module help)")
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")

    parser = argparse.ArgumentParser(
        prog="hallchar",
        description="Exact Hall numbers and cluster characters for acyclic quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", parents=[common], help="cluster character of a module symbol")
    p_char.add_argument("--module", required=True, help="module symbol")

    p_hall = sub.add_parser("hall", parents=[common], help="Hall counting polynomial")
    p_hall.add_argument("--module", required=True, help="ambient module symbol L")
    p_hall.add_argument("--quot", required=True, help="quotient iso-class symbol")
    p_hall.add_argument("--sub", required=True, help="submodule iso-class symbol")

    p_census = sub.add_parser("census", parents=[common], help="full submodule census")
    p_census.add_argument("--module", required=True, help="module symbol")
    p_census.add_argument("-p", "--primes", type=_ints, default=None, metavar="P,P",
                          help="primes to census at (default: smallest admissible)")

    p_verify = sub.add_parser("verify", parents=[common], help="verify an identity")
    p_verify.add_argument("theorem", choices=_THEOREMS)
    p_verify.add_argument("-p", "--primes", type=_ints, default=None, metavar="P,P",
                          help="exact-check primes (green-ff, assoc)")
    for flag in ("--xi", "--eta", "--xi-prime", "--eta-prime",
                 "--x", "--y1", "--y2", "--l1", "--l2"):
        p_verify.add_argument(flag, help="module symbol operand")
    p_verify.add_argument("--rho", type=_ints, default=None, metavar="R,R",
                          help="projective multiplicity vector (cc2)")
    p_verify.add_argument("--all", action="store_true",
                          help="sweep all instances with total dims <= --max-dim")
    p_verify.add_argument("--max-dim", type=_ints, default=None, metavar="D,D",
                          help="componentwise cap on total dimension vectors")
    p_verify.add_argument("--sample", type=int, default=None, metavar="N",
                          help="verify a random subsample of N instances")
    p_verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_char(args, quiver):
    sym = catalog.parse_symbol(args.module, quiver)
    nverify = len(args.verify_primes) if args.verify_primes else 2
    poly = cluster.char_of_symbol(sym, budget=args.budget, verify=nverify)
    cluster.check_by_coefficient_quivers(sym, poly)
    if args.json:
        print(json.dumps({"command": "char", "quiver": quiver.name,
                          "module": str(sym), "character": str(poly)}))
    else:
        print(f"X[{sym}] = {poly}")
    return 0


def _cmd_hall(args, quiver):
    L = catalog.parse_symbol(args.module, quiver)
    quot = catalog.parse_symbol(args.quot, quiver)
    sub = catalog.parse_symbol(args.sub, quiver)
    e, d = sub.dims, L.dims
    bound = sum(ei * (di - ei) for ei, di in zip(e, d) if di >= ei)

    def count(p):
        return subspaces.hall_number(
            L.instantiate(p), quot.concrete_classes(p), sub.concrete_classes(p),
            budget=args.budget,
        )

    nverify = len(args.verify_primes) if args.verify_primes else 2
    min_p = catalog.min_prime_for_symbols((L, quot, sub))
    poly = qpoly.counting_polynomial(count, bound, min_p, nverify)
    if args.json:
        print(json.dumps({"command": "hall", "quiver": quiver.name,
                          "module": str(L), "quot": str(quot), "sub": str(sub),
                          "polynomial": str(poly), "at_one": poly.at_one()}))
    else:
        print(f"g[{L}; quot={quot}, sub={sub}] = {poly}")
        print(f"  at q=1: {poly.at_one()}")
    return 0


def _cmd_census(args, quiver):
    L = catalog.parse_symbol(args.module, quiver)
    floor = L.min_prime()
    primes = _checked_primes(args.primes or catalog.primes_from(floor, 1), floor)
    blocks = []
    for p in primes:
        M = L.instantiate(p)
        rows = []
        for e in itertools.product(*[range(d + 1) for d in L.dims]):
            census = subspaces.hall_census(M, e, budget=args.budget)
            for (quot_cls, sub_cls), n in census.items():
                rows.append({
                    "sub_dims": list(e),
                    "sub": str(catalog.symbol_from_classes(quiver, sub_cls)),
                    "quot": str(catalog.symbol_from_classes(quiver, quot_cls)),
                    "count": n,
                })
        rows.sort(key=lambda r: (r["sub_dims"], r["sub"], r["quot"]))
        blocks.append({"prime": p, "entries": rows})
    if args.json:
        print(json.dumps({"command": "census", "quiver": quiver.name,
                          "module": str(L), "censuses": blocks}))
    else:
        for block in blocks:
            print(f"p={block['prime']}: {len(block['entries'])} strata of {L}")
            for r in block["entries"]:
                print(f"  e={tuple(r['sub_dims'])}  sub={r['sub']}  "
                      f"quot={r['quot']}  count={r['count']}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _need(args, *names):
    vals = []
    for name in names:
        val = getattr(args, name.replace("-", "_"))
        if val is None:
            raise _CliError(f"verify {args.theorem} requires --{name}")
        vals.append(val)
    return vals


def _single_report(args, quiver, table=None):
    theorem = args.theorem
    nverify = len(args.verify_primes) if args.verify_primes else 2
    parse = lambda text: catalog.parse_symbol(text, quiver)
    if theorem in _GREEN:
        xi, eta, xi2, eta2 = map(parse, _need(args, "xi", "eta", "xi-prime", "eta-prime"))
        if theorem == "green-ff":
            floor = catalog.min_prime_for_symbols((xi, eta, xi2, eta2))
            primes = _exact_primes(args, floor)
            return verify.verify_green_ff(xi, eta, xi2, eta2, primes=primes,
                                          budget=args.budget)
        if theorem == "green-degenerate":
            return verify.verify_green_degenerate(xi, eta, xi2, eta2,
                                                  budget=args.budget, verify=nverify)
        return verify.verify_green_projective(xi2, eta2, xi, eta,
                                              budget=args.budget, verify=nverify)
    if theorem == "cc1":
        xi2, eta2 = map(parse, _need(args, "xi", "eta"))
        return verify.verify_cc1(xi2, eta2, table=table, budget=args.budget,
                                 verify=nverify)
    if theorem == "cc2":
        (xi2,) = map(parse, _need(args, "xi"))
        (rho,) = _need(args, "rho")
        return verify.verify_cc2(xi2, tuple(rho), table=table,
                                 budget=args.budget, verify=nverify)
    x, y1, y2, l1, l2 = map(parse, _need(args, "x", "y1", "y2", "l1", "l2"))
    floor = catalog.min_prime_for_symbols((x, y1, y2, l1, l2))
    primes = _exact_primes(args, floor)
    return verify.verify_assoc(x, y1, y2, l1, l2, primes=primes, budget=args.budget)


def _green_instances(quiver, cap):
    out = []
    for dims in itertools.product(*[range(c + 1) for c in cap]):
        pairs = symspace.split_pairs(quiver, dims)
        out.extend(
            (xi, eta, xi2, eta2) for xi, eta in pairs for xi2, eta2 in pairs
        )
    return out


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_words(seed):
    """The four 64-bit words numpy's SeedSequence(seed) generates to seed
    PCG64: the seed's 32-bit words hashed into a pool of four, the pool
    mixed, then cycled through a second hash."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * 0x931E8875 & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ const) * (const := const * 0x58F38DED & _M32) & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """numpy's PCG64 bit generator (128-bit LCG, XSL-RR output) as seeded
    by `default_rng(seed)`, with the 32-bit draw that halves a 64-bit
    output and keeps the high half for the next call."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # from state 0: one step, add the seed, one more step
        self.state = ((self.inc + (s0 << 64 | s1)) * self._MULT + self.inc) & _M128
        self.spare = None

    def next32(self):
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        s = self.state = (self.state * self._MULT + self.inc) & _M128
        rot, x = s >> 122, (s >> 64 ^ s) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        self.spare = x >> 32
        return x & _M32

    def bounded(self, high):
        """A uniform integer in [0, high], high < 2^32, by Lemire's
        multiply-and-reject on 32-bit draws, as numpy draws it."""
        if high == 0:
            return 0
        if high == _M32:
            return self.next32()
        span = high + 1
        m = self.next32() * span
        if m & _M32 < span:
            threshold = (_M32 - high) % span
            while m & _M32 < threshold:
                m = self.next32() * span
        return m >> 32


def _sample_indices(seed, n, k):
    """The set of indices numpy's `default_rng(seed).choice(n, size=k,
    replace=False)` returns, for n < 2^32, with its errors.  Floyd's
    algorithm, or where n > 10000 and k > n // 50 the tail of a partial
    Fisher-Yates shuffle; the shuffle numpy applies to the result after
    Floyd's algorithm does not change the set, and is left out."""
    gen = _PCG64(seed)
    if n == 0 and k:
        raise ValueError("a must be a positive integer unless no samples are taken")
    if k < 0:
        raise ValueError("negative dimensions are not allowed")
    if n > 10000 and k > n // 50:
        idx = list(range(n))
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = gen.bounded(i)
            idx[i], idx[j] = idx[j], idx[i]
        return set(idx[n - k:])
    out = set()
    for j in range(n - k, n):
        v = gen.bounded(j)
        out.add(j if v in out else v)
    return out


def _sampled(args, pool):
    """The pool, or its --sample subsample in pool order: the instances
    numpy's `default_rng(--seed).choice` would pick."""
    if args.sample is None or args.sample >= len(pool):
        return pool
    return [pool[i] for i in sorted(_sample_indices(args.seed, len(pool), args.sample))]


def _degenerate_runners(instances, budget, nverify):
    """One runner per (xi, eta, xi', eta') instance; the instances sharing
    (xi', eta') share one verify_green_degenerate_all call, made when the
    first of them runs."""
    groups, slots, reports = {}, [], {}
    for xi, eta, xi2, eta2 in instances:
        pairs = groups.setdefault((xi2, eta2), [])
        slots.append(((xi2, eta2), len(pairs)))
        pairs.append((xi, eta))

    def run(group, i):
        if group not in reports:
            reports[group] = verify.verify_green_degenerate_all(
                *group, groups[group], budget=budget, verify=nverify
            )
        term = reports[group].terms[i]
        return types.SimpleNamespace(
            lhs=str(term["lhs"]), rhs=str(term["rhs"]), equal=term["equal"]
        )

    return [lambda g=group, i=i: run(g, i) for group, i in slots]


def _sweep_instances(args, quiver):
    """(label, runner) pairs for the instances of the --all sweep that
    --sample keeps; labels and runners are built for those alone."""
    theorem = args.theorem
    if args.max_dim is None:
        raise _CliError("--all requires --max-dim")
    cap = args.max_dim
    if len(cap) != quiver.n or min(cap) < 0:
        raise _CliError(f"--max-dim needs {quiver.n} entries >= 0, got {','.join(map(str, cap))}")
    nverify = len(args.verify_primes) if args.verify_primes else 2
    if theorem in _GREEN:
        kept = _sampled(args, _green_instances(quiver, cap))
        # each distinct symbol's text and tube tags are derived once
        symbols = {s.id: s for ops in kept for s in ops}
        text = {i: str(s) for i, s in symbols.items()}
        if theorem == "green-degenerate":
            runs = _degenerate_runners(kept, args.budget, nverify)
        elif theorem == "green-ff":
            tags = {i: tuple(s.tags()) for i, s in symbols.items()}
            primes, runs = {}, []
            for ops in kept:
                # the floor depends on the operands' tube tags alone
                key = tuple(tags[s.id] for s in ops)
                if key not in primes:
                    primes[key] = _exact_primes(
                        args, catalog.min_prime_for_tags(set().union(*key))
                    )
                runs.append(lambda ops=ops, ps=primes[key]: verify.verify_green_ff(
                    *ops, primes=ps, budget=args.budget))
        else:
            runs = [lambda a=xi, b=eta, c=xi2, d=eta2: verify.verify_green_projective(
                        c, d, a, b, budget=args.budget, verify=nverify)
                    for xi, eta, xi2, eta2 in kept]
        labels = [
            {"xi": text[xi.id], "eta": text[eta.id],
             "xi_prime": text[xi2.id], "eta_prime": text[eta2.id]}
            for xi, eta, xi2, eta2 in kept
        ]
        return list(zip(labels, runs))
    if theorem not in ("cc1", "cc2"):
        raise _CliError("--all is not supported for assoc (five free operands); "
                        "pass the tuple explicitly")
    table = cluster.CharTable(quiver, budget=args.budget, verify=nverify)
    indecs = symspace.indecomposable_symbols(quiver, cap)
    if theorem == "cc1":
        return [({"xi_prime": str(a), "eta_prime": str(b)},
                 lambda a=a, b=b: verify.verify_cc1(
                     a, b, table=table, budget=args.budget, verify=nverify))
                for a, b in _sampled(args, list(itertools.permutations(indecs, 2)))]
    pool = [(xi2, tuple(int(i == v) for i in range(quiver.n)))
            for xi2 in indecs for v in catalog.simple_projective_vertices(quiver)]
    return [({"xi_prime": str(a), "rho": list(r)},
             lambda a=a, r=r: verify.verify_cc2(
                 a, r, table=table, budget=args.budget, verify=nverify))
            for a, r in _sampled(args, pool)]


def _cmd_verify(args, quiver):
    if not args.all:
        report = _single_report(args, quiver)
        print(report.to_json(indent=2) if args.json else str(report))
        return 0 if report.equal else 1
    results = []
    for label, run in _sweep_instances(args, quiver):
        report = run()
        results.append((label, report))
        if not args.json:
            verdict = "EQUAL    " if report.equal else "NOT EQUAL"
            detail = " ".join(f"{k}={v}" for k, v in label.items())
            print(f"{verdict}  {detail}")
    n_equal = sum(1 for _, r in results if r.equal)
    all_equal = n_equal == len(results)
    if args.json:
        print(json.dumps({
            "command": "verify",
            "theorem": args.theorem,
            "quiver": quiver.name,
            "total": len(results),
            "equal_count": n_equal,
            "all_equal": all_equal,
            "instances": [
                {**label, "lhs": r.lhs, "rhs": r.rhs, "equal": r.equal}
                for label, r in results
            ],
        }))
    else:
        print(f"{args.theorem}: {n_equal}/{len(results)} EQUAL")
    return 0 if all_equal else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "char": _cmd_char,
    "hall": _cmd_hall,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        quiver = load_quiver(args.quiver)
        return _COMMANDS[args.command](args, quiver)
    except (ComputationError, ValueError) as exc:
        if args.json:
            print(json.dumps({"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
