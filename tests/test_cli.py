"""CLI driver: command output, JSON schema, exit codes, error objects."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hallchar

from hallchar import catalog, cli, cluster, memo, rep, strata, verify
from hallchar.cli import main
from hallchar.laurent import LaurentPoly
from hallchar.quiver import kronecker_quiver, linear_quiver
from hallchar.verify import VerificationReport
from test_verify import green_degenerate_oracle


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_char_plain(capsys):
    rc, out, _ = run(capsys, "char", "--quiver", "kronecker", "--module", "R(1,1)")
    assert rc == 0
    assert out.strip() == "X[R(1,1)@0] = x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1"


def test_char_json(capsys):
    rc, out, _ = run(capsys, "char", "--quiver", "a2", "--module", "S1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["command"] == "char"
    assert data["module"] == "M[1,0]"
    assert data["character"] == "x1^-1 + x1^-1*x2"


def test_char_closes_at_the_source_in_closed_form(capsys):
    """5*S1 at the source of A_2 is zero at the sink, so each Gr_(k,0) is
    counted in closed form at vertex 1 and charged 1: the character is
    x1^-5 (1 + x2)^5, as the coefficient-quiver count gives it."""
    rc, out, _ = run(capsys, "char", "--quiver", "a2", "--module", "5*S1")
    assert rc == 0
    sym = catalog.parse_symbol("5*S1", linear_quiver(2))
    want = sum(
        (LaurentPoly.monomial((-5, k), math.comb(5, k)) for k in range(6)), LaurentPoly.zero(2)
    )
    assert cluster.char_by_coefficient_quivers(sym) == want
    assert out == f"X[5*M[1,0]] = {want}\n"
    assert str(want) == (
        "x1^-5 + 5*x1^-5*x2 + 10*x1^-5*x2^2 + 10*x1^-5*x2^3 + 5*x1^-5*x2^4 + x1^-5*x2^5"
    )


def test_hall_number(capsys):
    # rad P(1) = S_2 is the unique proper nonzero submodule of M[1,1].
    rc, out, _ = run(
        capsys, "hall", "--quiver", "a2", "--module", "M[1,1]",
        "--quot", "S1", "--sub", "S2",
    )
    assert rc == 0
    assert "= 1" in out and "at q=1: 1" in out


def test_census_regular(capsys):
    # u_lambda on the Kronecker quiver has exactly three submodules:
    # 0, the socle S_2, and itself.
    rc, out, _ = run(
        capsys, "census", "--quiver", "kronecker", "--module", "R(1,1)", "-p", "3"
    )
    assert rc == 0
    assert "3 strata" in out
    assert "sub=P[0,1]  quot=I[1,0]  count=1" in out
    assert "sub=R(1,1)@lam=0  quot=0  count=1" in out


def test_census_json(capsys):
    rc, out, _ = run(
        capsys, "census", "--quiver", "a2", "--module", "S1", "--json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["command"] == "census"
    assert data["censuses"][0]["prime"] == 2
    assert len(data["censuses"][0]["entries"]) == 2


def test_verify_single_equal(capsys):
    rc, out, _ = run(
        capsys, "verify", "cc1", "--quiver", "kronecker",
        "--xi", "S1", "--eta", "S2",
    )
    assert rc == 0
    assert "[cc1] EQUAL" in out


def test_verify_single_json_schema(capsys):
    rc, out, _ = run(
        capsys, "verify", "green-degenerate", "--quiver", "a2",
        "--xi", "S1", "--eta", "S2", "--xi-prime", "S2", "--eta-prime", "S1",
        "--json",
    )
    assert rc == 0
    data = json.loads(out)
    assert set(data) == {
        "theorem", "inputs", "lhs", "rhs", "equal", "terms",
        "polynomials", "timing_ms",
    }
    assert data["equal"] is True


@pytest.mark.parametrize("theorem, operands, sides", [
    ("green-degenerate", ("--xi", "R(1,1)@0", "--eta", "R(1,1)@3",
                          "--xi-prime", "R(1,1)@0", "--eta-prime", "R(1,1)@3"), ("2", "2")),
    ("cc1", ("--xi", "R(1,1)@0", "--eta", "R(1,1)@3"), ("0", "0")),
])
def test_verify_counts_from_the_operands_floor(capsys, theorem, operands, sides):
    """Tube tags 0 and 3 collide mod 2, so the counts start at p = 3;
    the sides are derived in
    tests/test_verify.py::test_interpolating_verifiers_start_at_the_operands_floor."""
    rc, out, _ = run(capsys, "verify", theorem, "--quiver", "kronecker", *operands, "--json")
    data = json.loads(out)
    assert rc == 0 and data["equal"] is True
    assert (data["lhs"], data["rhs"]) == sides


def test_verify_green_ff_sweep(capsys):
    # totals <= (1,1) on A_2: 1 + 2 + 2 + 6 ordered splits, squared per
    # total: 1 + 4 + 4 + 36 = 45 instances.
    rc, out, _ = run(
        capsys, "verify", "green-ff", "--quiver", "a2",
        "--all", "--max-dim", "1,1", "-p", "2",
    )
    assert rc == 0
    assert "green-ff: 45/45 EQUAL" in out


D4_SINK_FILE = "vertices 4\narrow a 1 4\narrow b 2 4\narrow c 3 4\n"

# SHA-256 over the SHA-256 of each `verify_green_ff` report (sorted-key
# JSON without timing_ms, one hex digest per line, in sweep order) of the
# D_4 sweep below, recorded before Green's sides were factored
D4_GREEN_FF_REPORTS_SHA256 = "dcb79eccc4100dfef04ea62073d3435d7e2cbe833923ac14710b9d8136e2caec"


def test_d4_green_ff_sweep_reports_are_pinned(capsys, monkeypatch, tmp_path):
    """Every report of `verify green-ff --all --max-dim 1,1,1,1` on D_4 with
    three arrows into vertex 4 is unchanged, apart from its timing."""
    quiver_file = tmp_path / "d4_sink.txt"
    quiver_file.write_text(D4_SINK_FILE)
    digests = []
    real = verify.verify_green_ff

    def recorded(*args, **kwargs):
        report = real(*args, **kwargs)
        data = report.to_dict()
        del data["timing_ms"]
        digests.append(hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest())
        return report

    monkeypatch.setattr(verify, "verify_green_ff", recorded)
    memo.clear()
    rc, out, _ = run(
        capsys, "verify", "green-ff", "--quiver", str(quiver_file),
        "--all", "--max-dim", "1,1,1,1", "--json",
    )
    assert rc == 0
    assert json.loads(out)["total"] == len(digests) == 4125
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == D4_GREEN_FF_REPORTS_SHA256


def test_verify_green_degenerate_sweep(capsys):
    # the same 45 instances as the green-ff sweep above
    rc, out, _ = run(
        capsys, "verify", "green-degenerate", "--quiver", "a2",
        "--all", "--max-dim", "1,1",
    )
    assert rc == 0
    assert "green-degenerate: 45/45 EQUAL" in out


@pytest.mark.parametrize("max_dim", [(1, 2), (2, 2)])
def test_verify_green_degenerate_sweep_json_matches_oracle(capsys, max_dim):
    # Every instance, in _green_instances order, against the per-tuple
    # oracle.  At (2,2) the raw splits (R@0, R@0), (R@1, R@0) and
    # (R@0, R@1) share fingerprints, so the three read one table key.
    rc, out, _ = run(
        capsys, "verify", "green-degenerate", "--quiver", "kronecker",
        "--all", "--max-dim", ",".join(map(str, max_dim)), "--json",
    )
    assert rc == 0
    data = json.loads(out)
    pool = cli._green_instances(kronecker_quiver(), max_dim)
    assert data["total"] == data["equal_count"] == len(pool) == {(1, 2): 198, (2, 2): 1507}[max_dim]
    for inst, tup in zip(data["instances"], pool):
        assert (inst["xi"], inst["eta"], inst["xi_prime"], inst["eta_prime"]) == tuple(map(str, tup))
        assert (inst["lhs"], inst["rhs"]) == tuple(map(str, green_degenerate_oracle(*tup)))


def test_green_degenerate_sweep_reads_the_bulk_table(monkeypatch, capsys):
    def refuse(*a, **k):
        raise AssertionError("the sweep called the single-tuple verifier")

    groups = []
    bulk = verify.verify_green_degenerate_all

    def counted(xi2, eta2, pairs, **k):
        groups.append((xi2, eta2))
        return bulk(xi2, eta2, pairs, **k)

    monkeypatch.setattr(verify, "verify_green_degenerate", refuse)
    monkeypatch.setattr(verify, "verify_green_degenerate_all", counted)
    rc, out, _ = run(
        capsys, "verify", "green-degenerate", "--quiver", "a2",
        "--all", "--max-dim", "1,1",
    )
    assert rc == 0 and "45/45 EQUAL" in out
    pool = cli._green_instances(linear_quiver(2), (1, 1))
    expected = list(dict.fromkeys((xi2, eta2) for _, _, xi2, eta2 in pool))
    assert len(expected) == 11 and groups == expected


def test_verify_cc1_sweep(capsys):
    # 3 indecomposables up to (2,2) on A_2, both orders of each pair.
    rc, out, _ = run(
        capsys, "verify", "cc1", "--quiver", "a2", "--all", "--max-dim", "2,2"
    )
    assert rc == 0
    assert "cc1: 6/6 EQUAL" in out


def test_verify_cc2_sweep_json(capsys):
    # 3 indecomposables up to (1,1) on A_2 x 1 sink vertex.
    rc, out, _ = run(
        capsys, "verify", "cc2", "--quiver", "a2",
        "--all", "--max-dim", "1,1", "--json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["all_equal"] is True and data["total"] == 3
    assert all(inst["equal"] for inst in data["instances"])


def test_sampled_sweep_deterministic(capsys):
    argv = ("verify", "green-projective", "--quiver", "kronecker",
            "--all", "--max-dim", "1,1", "--sample", "3", "--seed", "7")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "3/3 EQUAL" in out1


def _sampler_cases():
    """(seed, n, k) cases for the sampler: small and 32-, 64- and
    200-bit seeds; k = 0, k = n - 1 and k on either side of n // 50; both
    of numpy's branches (Floyd, and the tail shuffle where n > 10000 and
    k > n // 50); and the 1470/1000 pool of the A_3 green-ff sweep."""
    rng = random.Random(23)
    cases = [(s, 1470, 1000) for s in range(10)]
    cases += [(2**70 + 5, 20000, 19999), (3, 20000, 401), (3, 20000, 400), (0, 1, 0)]
    for _ in range(400):
        seed = rng.choice([
            rng.randrange(100), rng.randrange(2**32, 2**33),
            rng.randrange(2**64, 2**66), rng.randrange(2**70, 2**200),
        ])
        n = rng.choice([rng.randrange(1, 50)] * 2 + [rng.randrange(1, 3000)] * 2 + [rng.randrange(10001, 15000)])
        k = rng.choice([0, n - 1, rng.randrange(n), min(n - 1, n // 50 + 1)])
        cases.append((seed, n, k))
    return cases


def test_sampler_picks_numpy_choice():
    """The pure-Python sampler picks the set numpy's
    `default_rng(seed).choice(n, size=k, replace=False)` picks, and its
    seed words are those of numpy's SeedSequence."""
    cases = _sampler_cases()
    assert len(cases) >= 400
    assert any(n > 10000 and k > n // 50 for _, n, k in cases)
    assert any(n > 10000 and 0 < k <= n // 50 for _, n, k in cases)
    assert {k for _, _, k in cases if k == 0} and any(k == n - 1 for _, n, k in cases)
    assert any(s >= 2**64 for s, _, _ in cases) and any(2**32 <= s < 2**64 for s, _, _ in cases)
    for seed, n, k in cases:
        want = np.random.default_rng(seed).choice(n, size=k, replace=False)
        assert cli._sample_indices(seed, n, k) == set(want.tolist()), (seed, n, k)
        assert cli._seed_words(seed) == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("seed, sample, max_dim, pool, message", [
    (-1, 2, "1,1", 6, "expected non-negative integer"),
    (0, -1, "1,1", 6, "negative dimensions are not allowed"),
    (-1, -1, "1,1", 6, "expected non-negative integer"),
    (0, -1, "0,0", 0, "a must be a positive integer unless no samples are taken"),
], ids=["seed", "sample", "both", "empty-pool"])
def test_sample_errors_keep_numpys_messages(capsys, seed, sample, max_dim, pool, message):
    """A negative --seed or --sample exits 2 with the ValueError numpy's
    generator raises, the seed's first; an empty pool (cc1 at max-dim 0)
    keeps numpy's message for it."""
    with pytest.raises(ValueError, match=message):
        np.random.default_rng(seed).choice(pool, size=sample, replace=False)
    rc, out, _ = run(capsys, "verify", "cc1", "--quiver", "a2", "--all", "--max-dim", max_dim,
                     "--seed", str(seed), "--sample", str(sample), "--json")
    assert rc == 2
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}


def test_numpy_stays_unimported():
    """A fresh interpreter that imports every hallchar module and runs a
    sampled green-ff sweep through `cli.main` never imports numpy."""
    src = str(Path(hallchar.__file__).resolve().parent.parent)
    code = (
        "import importlib, pkgutil, sys\n"
        "import hallchar\n"
        "for m in pkgutil.iter_modules(hallchar.__path__):\n"
        "    importlib.import_module('hallchar.' + m.name)\n"
        "from hallchar import cli\n"
        "rc = cli.main(['verify', 'green-ff', '--quiver', 'a3', '--all',\n"
        "              '--max-dim', '1,1,1', '--sample', '5', '--seed', '3', '--json'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert '"total": 5' in done.stdout


def test_error_json_object(capsys):
    rc, out, _ = run(
        capsys, "verify", "green-ff", "--quiver", "kronecker",
        "--xi", "S1", "--eta", "S2", "--xi-prime", "S2", "--eta-prime", "S1",
        "--json",
    )
    assert rc == 2
    data = json.loads(out)
    assert data["error"]["type"] == "UnsupportedQuiver"


def test_error_plain_stderr(capsys):
    rc, out, err = run(
        capsys, "verify", "cc1", "--quiver", "kronecker", "--xi", "S1"
    )
    assert rc == 2 and out == ""
    assert "requires --eta" in err


def test_nonprime_rejected(capsys):
    rc, _, err = run(
        capsys, "verify", "green-ff", "--quiver", "a2",
        "--xi", "S1", "--eta", "S2", "--xi-prime", "S2", "--eta-prime", "S1",
        "-p", "4",
    )
    assert rc == 2
    assert "not prime" in err


def test_prime_below_the_floor_rejected(capsys):
    """R(1,1)@0 and R(1,1)@3 meet mod 2, so -p 2 exits 2 with the message
    `verify.verify_assoc` raises for it."""
    rc, out, err = run(
        capsys, "verify", "assoc", "--quiver", "kronecker", "--x", "R(1,1)@0",
        "--y1", "0", "--y2", "0", "--l1", "R(1,1)@3", "--l2", "R(1,1)@0", "-p", "2",
    )
    assert (rc, out) == (2, "")
    assert err == (
        "error: prime 2 is below the smallest prime (3) that keeps the given "
        "symbols' tube points distinct\n"
    )


def test_all_requires_max_dim(capsys):
    rc, _, err = run(capsys, "verify", "cc1", "--quiver", "a2", "--all")
    assert rc == 2
    assert "--max-dim" in err


@pytest.mark.parametrize("argv, want", [
    (["cc1", "--quiver", "a3", "--max-dim", "1,1"], "3 entries >= 0, got 1,1"),
    (["cc1", "--quiver", "a3", "--max-dim=-1,1,1"], "3 entries >= 0, got -1,1,1"),
    (["cc2", "--quiver", "kronecker", "--max-dim", "1,1,1"], "2 entries >= 0, got 1,1,1"),
], ids=["short", "negative", "long"])
def test_bad_max_dim_is_usage_error(capsys, argv, want):
    """A cap that is not one nonnegative entry per vertex exits 2 before
    any instance runs, and the message names --max-dim."""
    rc, out, err = run(capsys, "verify", *argv, "--all")
    assert rc == 2
    assert out == ""
    assert err == f"error: --max-dim needs {want}\n"


def test_unknown_theorem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "green-fast", "--quiver", "a2"])
    assert exc.value.code == 2


def test_quiver_file_loading(tmp_path, capsys):
    qfile = tmp_path / "a2.q"
    qfile.write_text("# two vertices, one arrow\nvertices 2\narrow a 1 2\n")
    rc, out, _ = run(capsys, "char", "--quiver", str(qfile), "--module", "S2")
    assert rc == 0
    assert "x2^-1 + x1*x2^-1" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_quiver_path_that_cannot_be_read_is_an_error(tmp_path, capsys, json_flag):
    """A --quiver path that exists but cannot be read as a file (here a
    directory) exits 2 with a message naming the path, not a traceback."""
    rc, out, err = run(capsys, "char", "--quiver", str(tmp_path), "--module", "S1", *json_flag)
    assert rc == 2
    message = f"cannot read quiver file {str(tmp_path)!r}: Is a directory"
    if json_flag:
        assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}
    else:
        assert (out, err) == ("", f"error: {message}\n")


def test_char_on_three_arrow_kronecker_file(tmp_path, capsys):
    """Outside the catalogue the character of S1 still comes from
    Grassmannian counts: Gr_(0,0) and Gr_(1,0) of S1 are points, so
    X[S1] = x1^-1 (1 + x2^3) over three arrows 1 -> 2."""
    qfile = tmp_path / "k3.q"
    qfile.write_text("vertices 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n")
    rc, out, _ = run(capsys, "char", "--quiver", str(qfile), "--module", "S1")
    assert rc == 0
    assert out == "X[S1] = x1^-1 + x1^-1*x2^3\n"


def test_e6_quiver_file_at_p2(tmp_path, capsys):
    """E_6 as 1 -> 2 -> 3 -> 4 -> 5, 3 -> 6: decompositions over F_2 read
    every root's indecomposable, among them (1, 2, 3, 2, 1, 2)."""
    qfile = tmp_path / "e6.txt"
    qfile.write_text(
        "vertices 6\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\narrow e 3 6\n"
    )
    rc, out, _ = run(
        capsys, "hall", "--quiver", str(qfile), "--module", "S1+S2", "--quot", "S1", "--sub", "S2"
    )
    assert rc == 0
    assert "= 1\n" in out
    rc, out, _ = run(capsys, "verify", "cc1", "--quiver", str(qfile), "--xi", "S1", "--eta", "S2")
    assert rc == 0
    assert out.startswith("[cc1] EQUAL")


def test_not_equal_exit_code(monkeypatch, capsys):
    fake = VerificationReport(
        theorem="cc1", inputs={}, lhs="1", rhs="2", equal=False,
        terms=[], polynomials=[], timing_ms=0.0,
    )
    monkeypatch.setattr(verify, "verify_cc1", lambda *a, **k: fake)
    rc, out, _ = run(
        capsys, "verify", "cc1", "--quiver", "a2", "--xi", "S1", "--eta", "S2"
    )
    assert rc == 1
    assert "NOT EQUAL" in out


def test_char_table_cross_check_failure_exits_2(monkeypatch, capsys, tmp_path):
    """A CharTable cross-check that disagrees exits 2: the coefficient-quiver
    check on Kronecker, and the stratified check on D_4, which the
    coefficient quivers do not cover."""
    d4 = tmp_path / "d4_sink.txt"
    d4.write_text(D4_SINK_FILE)
    for quiver, n, check in [
        ("kronecker", 2, "char_by_coefficient_quivers"),
        (str(d4), 4, "char_by_strata"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(cluster, check, lambda *a, n=n, **k: LaurentPoly.zero(n))
            rc, out, _ = run(
                capsys, "verify", "cc1", "--quiver", quiver,
                "--xi", "S1", "--eta", "S2", "--json",
            )
        assert rc == 2
        data = json.loads(out)
        assert data["error"]["type"] == "VerificationMismatch"
        rc, _, _ = run(
            capsys, "verify", "cc1", "--quiver", quiver, "--xi", "S1", "--eta", "S2",
        )
        assert rc == 0


def test_char_is_checked_against_coefficient_quivers(monkeypatch, capsys):
    """`hallchar char` compares its character with the coefficient-quiver
    count where that covers the module: a disagreement exits 2, and a
    module it does not cover prints as before."""
    monkeypatch.setattr(cluster, "_atom_subset_counts", lambda *a: {(0, 0): 1})
    rc, out, _ = run(capsys, "char", "--quiver", "kronecker", "--module", "R(1,1)", "--json")
    assert rc == 2
    data = json.loads(out)
    assert data["error"]["type"] == "VerificationMismatch"
    assert data["error"]["message"].startswith(
        "coefficient-quiver character x1*x2^-1 disagrees with x1^-1*x2^-1"
    )
    monkeypatch.setattr(cluster, "_atom_subset_counts", lambda *a: None)
    rc, out, _ = run(capsys, "char", "--quiver", "kronecker", "--module", "R(1,1)")
    assert rc == 0
    assert out.strip() == "X[R(1,1)@0] = x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1"


def test_ext_dimension_check_failure_exits_2(monkeypatch, capsys):
    # the cocycle complement no longer matches dim Ext^1 from the Euler form;
    # the cross-check runs on a miss of the Ext census memo, so start cold
    memo.clear()
    ext1_dim = rep.ext1_dim
    monkeypatch.setattr(rep, "ext1_dim", lambda X, Y: ext1_dim(X, Y) + 1)
    rc, out, _ = run(
        capsys, "verify", "green-ff", "--quiver", "a2",
        "--xi", "S1", "--eta", "S2", "--xi-prime", "S1", "--eta-prime", "S2",
        "--json",
    )
    assert rc == 2
    data = json.loads(out)
    assert data["error"]["type"] == "VerificationMismatch"
    assert "dim Ext^1" in data["error"]["message"]


def test_projective_stratum_remainder_exits_2(monkeypatch, capsys):
    # an injected Hom stratum count that p - 1 = 2 does not divide
    hom_census = strata.hom_census
    monkeypatch.setattr(
        strata,
        "hom_census",
        lambda *a, **k: {key: c + 1 for key, c in hom_census(*a, **k).items()},
    )
    rc, out, _ = run(
        capsys, "verify", "assoc", "--quiver", "kronecker",
        "--x", "S1", "--y1", "0", "--y2", "0", "--l1", "S2", "--l2", "R(1,1)@0",
        "-p", "3", "--json",
    )
    assert rc == 2
    data = json.loads(out)
    assert data["error"]["type"] == "VerificationMismatch"
    assert "not divisible by p - 1 = 2" in data["error"]["message"]


def test_green_ff_sweep_second_pass_derives_no_symbol_data(capsys, monkeypatch):
    """Per-symbol data is derived once: a second identical green-ff sweep
    computes no fingerprint, no concrete classes and no symbol text."""
    calls = []
    for owner, name in (
        (catalog, "fingerprint_of_classes"),
        (catalog, "_atom_str"),
        (catalog.ModuleSymbol, "admissible_prime"),  # read only on a concrete-classes miss
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    argv = ["verify", "green-ff", "--quiver", "a3", "--all", "--max-dim", "1,1,1", "--json"]
    memo.clear()
    rc, first, _ = run(capsys, *argv)
    assert rc == 0
    assert set(calls) == {"fingerprint_of_classes", "_atom_str", "admissible_prime"}
    calls.clear()
    rc, second, _ = run(capsys, *argv)
    assert rc == 0 and second == first
    assert calls == []


def test_prime_lists_are_shared_and_never_written(capsys):
    """`catalog.primes_from` is memoized and returns a tuple: an explicit
    prime passes `_checked_primes`, and `--verify-primes` extends a copy,
    never the shared default list."""
    memo.clear()
    floor_primes = catalog.primes_from(2, 2)
    assert floor_primes == (2, 3) and catalog.primes_from(2, 2) is floor_primes
    argv = (
        "verify", "green-ff", "--quiver", "a2",
        "--xi", "S1", "--eta", "S2", "--xi-prime", "S2", "--eta-prime", "S1", "--json",
    )
    for extra in (("-p", "5"), ("--verify-primes", "7"), ("--verify-primes", "7")):
        rc, out, _ = run(capsys, *argv, *extra)
        assert rc == 0
        assert json.loads(out)["inputs"]["primes"] == ([5] if extra[0] == "-p" else [2, 3, 7])
    assert catalog.primes_from(2, 2) == (2, 3)


def test_kronecker_projective_sweep_reaches_total_one_two(capsys):
    """The projective Green sweep over Kronecker up to total (1, 2), whose
    Ext censuses walk one torus orbit per class, and its slowest tuple
    (I[1,0], 2*P[0,1]; P[0,1], P[0,1]+I[1,0]) are EQUAL."""
    rc, out, _ = run(
        capsys, "verify", "green-projective", "--quiver", "kronecker",
        "--all", "--max-dim", "1,2", "--json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["total"] == data["equal_count"] == 198
    rc, out, _ = run(
        capsys, "verify", "green-projective", "--quiver", "kronecker",
        "--xi", "P[0,1]", "--eta", "P[0,1]+I[1,0]",
        "--xi-prime", "I[1,0]", "--eta-prime", "2*P[0,1]", "--json",
    )
    assert rc == 0 and json.loads(out)["equal"]
