"""CLI driver: command output, JSON schema, exit codes, error objects."""

import json

import pytest

from hallchar import cli, cluster, rep, strata, subspaces, verify
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


def test_verify_green_ff_sweep(capsys):
    # totals <= (1,1) on A_2: 1 + 2 + 2 + 6 ordered splits, squared per
    # total: 1 + 4 + 4 + 36 = 45 instances.
    rc, out, _ = run(
        capsys, "verify", "green-ff", "--quiver", "a2",
        "--all", "--max-dim", "1,1", "-p", "2",
    )
    assert rc == 0
    assert "green-ff: 45/45 EQUAL" in out


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


def test_all_requires_max_dim(capsys):
    rc, _, err = run(capsys, "verify", "cc1", "--quiver", "a2", "--all")
    assert rc == 2
    assert "--max-dim" in err


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


def test_char_table_cross_check_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cluster, "char_by_strata", lambda *a, **k: LaurentPoly.zero(2))
    rc, out, _ = run(
        capsys, "verify", "cc1", "--quiver", "kronecker",
        "--xi", "S1", "--eta", "S2", "--json",
    )
    assert rc == 2
    data = json.loads(out)
    assert data["error"]["type"] == "VerificationMismatch"


def test_ext_dimension_check_failure_exits_2(monkeypatch, capsys):
    # the cocycle complement no longer matches dim Ext^1 from the Euler form;
    # the cross-check runs on a miss of the Ext census memo, so start cold
    subspaces.clear_census_cache()
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
