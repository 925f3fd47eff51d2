"""The one memo mechanism: keyed result tables behind a decorator.

Checking Green's formula and the cluster multiplication formulas reads the
same Hall and Ext censuses, decompositions, automorphism counts and
fingerprints again and again, across primes and tuples, so memoization is
part of the design.  Every memoized function in hallchar is written as

    @memo.memoized(lambda M, k: (M.key, k))
    def f(M, k): ...

and stores its result under `key(*args, **kwargs)` in a table of its own,
listed in `TABLES` as "layer.function" (e.g. "catalog.decompose").  The
key function decides what identifies a result; arguments such as
`budget` and `verify`, which bound or check the work but do not change a
correct result, are left out of it.  Where a hit would skip a check or a
`BudgetExceeded` that a fresh call makes, the key holds them
(`cluster.chi_grassmannian`), the entry stores its charge and every hit
checks it again (the Hall census, which `hall_census` and `census_view`
read from one entry, and the Ext census), or the caller checks first
(`subspaces.grassmannian_count`).  A call that
raises stores nothing, so it raises again on every call.  Results are
shared between callers, who must not mutate them.

`clear()` empties every table.  The interned ids of module symbols and
fingerprints (`catalog.ModuleSymbol.id`, `catalog.fingerprint_id`) come
from one counter that `clear()` does not reset: an id is never handed out
twice, so a symbol built before a clear keeps a valid id, and its per-id
data is derived again on the next read.
"""

import functools

TABLES = {}


def memoized(key):
    """Decorator: memoize a function on `key(*args, **kwargs)`.

    The wrapper is a plain function with the name, docstring and module of
    the function it wraps, so it is patched and traced like that function.
    """

    def decorate(fn):
        table = TABLES[f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            try:
                return table[k]
            except KeyError:
                pass
            out = table[k] = fn(*args, **kwargs)
            return out

        return wrapper

    return decorate


def clear():
    """Forget every memoized result."""
    for table in TABLES.values():
        table.clear()
