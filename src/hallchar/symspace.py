"""Enumeration and sampling of module iso-classes by dimension vector.

Over a Dynkin quiver the iso classes with dimension vector d are exactly
the multisets of positive roots summing to d.  Over the Kronecker quiver
they are multisets of preprojectives P_n (dims (n, n+1)) and preinjectives
I_n (dims (n+1, n)) together with a regular part supported on finitely
many homogeneous tubes indexed by points of P^1, each tube carrying a
partition.  Up to renaming the tube points — which is what the abstract
tube tags quotient out — a regular part of total size r is a multiset of
nonempty partitions with sizes summing to r.

The tube points are the rational points of P^1; regular modules supported
at closed points of higher degree (residue field F_{p^k}, k > 1, smallest
dimension vector (2,2)) exist over F_p but are outside this symbol
language on purpose — every workload in this package keeps proper
subquotients below that threshold.  With that convention
`symbols_with_dims` is complete by fingerprint: every F_p-module with
split regular part and the given dimension vector decomposes with the
fingerprint of exactly one listed symbol.  The test suite certifies this
with a mass count: summing GL-orbit sizes over all concrete realizations
of the listed fingerprints (plus the hand-counted higher-degree classes
where they exist) recovers the exact point count
p^(sum over arrows of d_s d_t) of the representation space.
"""

import itertools

from . import catalog
from .catalog import ModuleSymbol

__all__ = [
    "symbols_with_dims",
    "all_symbols_up_to",
    "split_pairs",
    "indecomposable_symbols",
]


def _box(cap):
    return itertools.product(*[range(int(c) + 1) for c in cap])


def _multisets_with_dims(part_dims, target, i=0):
    """Multisets ((index, mult), ...) with sum mult * part_dims[index] = target."""
    if i == len(part_dims):
        if all(t == 0 for t in target):
            yield ()
        return
    d = part_dims[i]
    top = min(t // di for t, di in zip(target, d) if di)
    for m in range(top, -1, -1):
        rem = tuple(t - m * di for t, di in zip(target, d))
        for rest in _multisets_with_dims(part_dims, rem, i + 1):
            yield (((i, m),) + rest) if m else rest


def _partitions(r, maxpart=None):
    """Partitions of r as non-increasing tuples."""
    if r == 0:
        yield ()
        return
    if maxpart is None:
        maxpart = r
    for first in range(min(r, maxpart), 0, -1):
        for rest in _partitions(r - first, first):
            yield (first,) + rest


def _partition_multisets(r, bound=None):
    """Multisets of nonempty partitions with total size r.

    Emitted as sequences non-increasing in tuple order, so each multiset
    appears exactly once.
    """
    if r == 0:
        yield ()
        return
    for s in range(r, 0, -1):
        for pi in _partitions(s):
            if bound is not None and pi > bound:
                continue
            for rest in _partition_multisets(r - s, pi):
                yield (pi,) + rest


def _regular_atoms(partitions):
    """Atoms of a regular part: tube #t carries partition partitions[t]."""
    atoms = []
    for tag, pi in enumerate(partitions):
        for m in sorted(set(pi), reverse=True):
            atoms.append((("R", tag, m), pi.count(m)))
    return atoms


def symbols_with_dims(quiver, dims):
    """All iso-classes (one ModuleSymbol per fingerprint) of dimension `dims`."""
    dims = tuple(int(x) for x in dims)
    if len(dims) != quiver.n or any(d < 0 for d in dims):
        raise ValueError(f"bad dimension vector {dims}")
    out = []
    if quiver.is_dynkin():
        roots = quiver.positive_roots()
        for ms in _multisets_with_dims(roots, dims):
            out.append(
                ModuleSymbol(quiver, [(("root", roots[i]), m) for i, m in ms])
            )
    elif quiver.is_kronecker():
        a, b = dims
        rigid = [("P", n) for n in range(min(a, b - 1) + 1 if b else 0)]
        rigid += [("I", n) for n in range(min(b, a - 1) + 1 if a else 0)]
        rigid_dims = [catalog.class_dims(quiver, c) for c in rigid]
        # split off a regular part of size (r, r); the rest is rigid
        for r in range(min(a, b) + 1):
            target = (a - r, b - r)
            for ms in _multisets_with_dims(rigid_dims, target):
                rigid_atoms = [(rigid[i], m) for i, m in ms]
                for partitions in _partition_multisets(r):
                    out.append(
                        ModuleSymbol(
                            quiver, rigid_atoms + _regular_atoms(partitions)
                        )
                    )
    else:
        raise catalog.UnsupportedQuiver(
            "iso-class enumeration needs a Dynkin or Kronecker quiver"
        )
    return out


def all_symbols_up_to(quiver, cap):
    """All iso-classes with dimension vector componentwise <= cap."""
    out = []
    for dims in _box(cap):
        out.extend(symbols_with_dims(quiver, dims))
    return out


def split_pairs(quiver, dims):
    """All ordered pairs (A, B) with A + B ranging over symbols_with_dims.

    Every pair is produced as a two-coloring of the atoms of a total
    symbol, so the two halves keep a CONSISTENT tube-tag assignment: on
    the Kronecker quiver this yields both (R@t0, R@t0-in-the-same-tube)
    from 2*R and (R@t0, R@t1) from R + R', which products of
    independently enumerated symbols cannot express.  Each pair appears
    once (its direct sum reconstructs a unique total symbol).
    """
    out = []
    for total in symbols_with_dims(quiver, dims):
        atoms = total.atoms
        for take in itertools.product(*[range(m + 1) for _, m in atoms]):
            first = [(cls, k) for (cls, _), k in zip(atoms, take) if k]
            second = [
                (cls, m - k) for (cls, m), k in zip(atoms, take) if m - k
            ]
            out.append(
                (ModuleSymbol(quiver, first), ModuleSymbol(quiver, second))
            )
    return out


def indecomposable_symbols(quiver, cap):
    """All indecomposable iso-classes with dimensions <= cap."""
    cap = tuple(int(c) for c in cap)
    if len(cap) != quiver.n or any(c < 0 for c in cap):
        raise ValueError(f"bad dimension cap {cap}")
    out = []
    if quiver.is_dynkin():
        for r in quiver.positive_roots():
            if all(x <= c for x, c in zip(r, cap)):
                out.append(ModuleSymbol(quiver, [(("root", r), 1)]))
    elif quiver.is_kronecker():
        a, b = cap
        for n in range(min(a, b - 1) + 1 if b else 0):
            out.append(ModuleSymbol(quiver, [(("P", n), 1)]))
        for m in range(1, min(a, b) + 1):
            out.append(ModuleSymbol(quiver, [(("R", 0, m), 1)]))
        for n in range(min(b, a - 1) + 1 if a else 0):
            out.append(ModuleSymbol(quiver, [(("I", n), 1)]))
    else:
        raise catalog.UnsupportedQuiver(
            "iso-class enumeration needs a Dynkin or Kronecker quiver"
        )
    return out
