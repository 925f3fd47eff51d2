"""The memo contract: one decorator, one clear, and no stored failures."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import hallchar
from hallchar import catalog, cluster, memo, rep, strata, subspaces, symspace, verify
from hallchar.errors import BudgetExceeded, OutsideCatalog, VerificationMismatch
from hallchar.quiver import kronecker_quiver, linear_quiver

A2 = linear_quiver(2)
K = kronecker_quiver()

TABLES = {
    "catalog._coxeter_walk",
    "catalog.module_from_class",
    "catalog.decompose",
    "catalog.module_from_classes",
    "catalog.aut_count_of_classes",
    "catalog._fingerprint_id",
    "catalog.fingerprint_id",
    "catalog._symbol_id",
    "catalog._symbol_text",
    "catalog._symbol_fingerprint",
    "catalog._symbol_fingerprint_id",
    "catalog._symbol_tags",
    "catalog._symbol_min_prime",
    "catalog._concrete_classes",
    "catalog._instantiate",
    "catalog._symbol_aut_count",
    "catalog.primes_from",
    "catalog.check_primes",
    "quiver._positive_roots",
    "subspaces._echelon_table",
    "subspaces._rank_distribution",
    "subspaces._class_census",
    "subspaces._census_view",
    "strata._ext_census",
    "cluster.chi_grassmannian",
    "cluster._atom_subset_counts",
    "symspace._symbol_pool",
    "verify._merge_fp",
    "verify._green_ff_lhs",
    "verify._green_ff_middles",
    "verify._green_ff_factors",
    "verify._green_ff_splits",
}


def _fill_every_table():
    p = 2
    S1, S2 = rep.Rep.simple(A2, p, 0), rep.Rep.simple(A2, p, 1)
    M = rep.direct_sum(S1, S2)
    classes = catalog.decompose(M)
    catalog.aut_count_of_classes(A2, classes, p)
    subspaces.hall_census(M, (1, 0))
    subspaces._rank_distribution(M, (1,))
    subspaces._echelon_table(2, 1, p)
    strata.ext_middle_census(S1, S2)
    cluster.chi_grassmannian(catalog.parse_symbol("S1", A2), (1, 0))
    cluster.char_by_coefficient_quivers(catalog.parse_symbol("S1", A2))
    symspace.random_symbol(A2, np.random.default_rng(0), (1, 1))
    verify._merge_fp(classes, classes)
    S1_sym = catalog.parse_symbol("S1", A2)
    S2_sym = catalog.parse_symbol("S2", A2)
    verify.verify_green_ff(S1_sym, S2_sym, S1_sym, S2_sym, primes=[p])
    S1_sym.min_prime()


def test_clear_empties_every_table(monkeypatch):
    memo.clear()
    _fill_every_table()
    assert set(memo.TABLES) == TABLES
    assert all(memo.TABLES.values())
    memo.clear()
    assert not any(memo.TABLES.values())
    # the work is done again after a clear
    calls = []
    real = catalog._decompose_dynkin
    monkeypatch.setattr(catalog, "_decompose_dynkin", lambda *args: calls.append(1) or real(*args))
    _fill_every_table()
    assert calls


OUTSIDE_CATALOG = rep.Rep(K, 2, (2, 2), [np.eye(2, dtype=np.int64), [[0, 1], [1, 1]]])


def _ext_hit_over_budget(monkeypatch):
    X, Y = rep.Rep.simple(K, 3, 0), rep.Rep.simple(K, 3, 1)  # 3^2 classes
    strata.ext_middle_census(X, Y)
    return BudgetExceeded, lambda: strata.ext_middle_census(X, Y, budget=8)


def _ext_dim_mismatch(monkeypatch):
    ext1_dim = rep.ext1_dim
    monkeypatch.setattr(rep, "ext1_dim", lambda X, Y: ext1_dim(X, Y) + 1)
    X, Y = rep.Rep.simple(A2, 2, 0), rep.Rep.simple(A2, 2, 1)
    return VerificationMismatch, lambda: strata.ext_middle_census(X, Y)


def _outside_catalog(monkeypatch):
    return OutsideCatalog, lambda: catalog.decompose(OUTSIDE_CATALOG)


@pytest.mark.parametrize("case", [_outside_catalog, _ext_hit_over_budget, _ext_dim_mismatch])
def test_failed_calls_raise_every_time_and_store_nothing(case, monkeypatch):
    memo.clear()
    error, call = case(monkeypatch)
    sizes = {name: len(table) for name, table in memo.TABLES.items()}
    for _ in range(2):
        with pytest.raises(error):
            call()
    assert {name: len(table) for name, table in memo.TABLES.items()} == sizes
    memo.clear()


def test_no_module_level_cache_dicts():
    for info in pkgutil.iter_modules(hallchar.__path__):
        module = importlib.import_module(f"hallchar.{info.name}")
        assert [name for name in vars(module) if name.endswith("_CACHE")] == []


def test_only_catalog_computes_fingerprints():
    """The isomorphism-class key is decided in `catalog`: every other module
    compares and groups classes by `catalog.fingerprint_id`."""
    for info in pkgutil.iter_modules(hallchar.__path__):
        if info.name != "catalog":
            source = inspect.getsource(importlib.import_module(f"hallchar.{info.name}"))
            assert "fingerprint_of_classes" not in source, info.name


@pytest.mark.parametrize(
    "module, name",
    [
        (catalog, "decompose"),
        (catalog, "module_from_class"),
        (catalog, "module_from_classes"),
        (subspaces, "hall_census"),
        (cluster, "chi_grassmannian"),
    ],
)
def test_memoized_functions_are_plain_functions_of_their_module(module, name):
    """hallbench's tracer wraps exactly these: plain functions whose
    `__module__` is the module they are looked up in."""
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


def _report_without_timing(report):
    out = report.to_dict()
    del out["timing_ms"]
    return out


def test_symbols_survive_clear():
    """A symbol keeps its interned id across `memo.clear()`; the ids are
    never handed out again, so its per-id data is derived afresh and the
    reports do not change."""
    A3 = linear_quiver(3)
    xi, eta, xi2, eta2 = (catalog.parse_symbol(t, A3) for t in ("M[1,1,0]", "S3", "S1", "M[0,1,1]"))
    pairs = symspace.split_pairs(A3, (1, 1, 1))
    ids = [s.id for s in (xi, eta, xi2, eta2)]
    runs = []
    for _ in range(2):
        runs.append((
            _report_without_timing(verify.verify_green_ff(xi, eta, xi2, eta2)),
            _report_without_timing(verify.verify_green_degenerate_all(xi2, eta2, pairs)),
        ))
        memo.clear()
    assert runs[0] == runs[1]
    assert runs[0][0]["equal"] and runs[0][1]["equal"]
    assert [s.id for s in (xi, eta, xi2, eta2)] == ids
    # an equal symbol built after the clear gets a fresh id and the same data
    again = catalog.parse_symbol("M[1,1,0]", A3)
    assert again == xi and again.id not in ids
    assert (str(again), again.fingerprint_id()) == (str(xi), xi.fingerprint_id())
