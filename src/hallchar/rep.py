"""Representations of an acyclic quiver over a prime field F_p.

A representation M assigns to each vertex i a space F_p^{d_i} and to each
arrow a: s -> t a matrix M_a with d_t rows and d_s columns.  `Rep` keeps
each matrix as a tuple of rows, each row a tuple of Python ints in
[0, p), so a `Rep` is immutable and this module alone decides the matrix
format: every kernel reads the rows as they are, and `Rep.key_of` turns
rows into the module's memo key.  A morphism f: M -> N is a tuple of
matrices f_i (shape (e_i, d_i)) with

    f_t M_a = N_a f_s            for every arrow a: s -> t.

Hom spaces are computed exactly as the kernel of the linear system above;
dim Ext^1(M, N) then follows from dim Hom(M, N) - <dim M, dim N> because
the path algebra of an acyclic quiver is hereditary.

|Aut M| is computed from a Krull-Schmidt decomposition
M = X_1^{m_1} + ... + X_k^{m_k} with pairwise non-isomorphic X_i whose
endomorphism rings have residue field F_p (the tests check it against a
brute-force enumeration of End(M)):

    |Aut M| = p^{dim rad End M} * prod_i |GL_{m_i}(F_p)|,
    dim rad End M = dim End M - sum_i m_i^2.
"""

from itertools import chain

from . import linalg


class Rep:
    """A representation: dims per vertex plus one matrix per arrow, each a
    tuple of rows of Python ints in [0, p)."""

    def __init__(self, quiver, p, dims, mats):
        self.quiver = quiver
        self.p = p = int(p)
        self.dims = dims = tuple(int(x) for x in dims)
        if len(dims) != quiver.n:
            raise ValueError("dimension vector length != number of vertices")
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension")
        # any nested sequence of integers, numpy arrays included
        mats = tuple(tuple(tuple(int(x) % p for x in row) for row in m) for m in mats)
        if len(mats) != len(quiver.arrows):
            raise ValueError("need one matrix per arrow")
        for (s, t), m in zip(quiver.arrows, mats):
            if len(m) != dims[t] or any(len(row) != dims[s] for row in m):
                raise ValueError(f"arrow {s}->{t}: matrix is not {dims[t]} x {dims[s]}")
        self.mats = mats
        # tuples all the way down, so the key is built once, here
        self.key = Rep.key_of(quiver, p, dims, mats)

    @classmethod
    def zero(cls, quiver, p):
        return cls(quiver, p, [0] * quiver.n, [()] * len(quiver.arrows))

    @classmethod
    def simple(cls, quiver, p, i):
        """The simple S_i (one-dimensional at vertex i, zero maps)."""
        dims = [1 if v == i else 0 for v in range(quiver.n)]
        return cls(quiver, p, dims, [[[0] * dims[s]] * dims[t] for (s, t) in quiver.arrows])

    @staticmethod
    def key_of(quiver, p, dims, mats):
        """The hashable identity of the module over F_p with dimension vector
        `dims` (a tuple) whose arrow matrices are `mats`, sequences of rows
        of Python ints in [0, p): (quiver key, p, dims, every entry in one
        flat tuple).  The dims fix each matrix's shape, so the flat entries
        identify the exact module; `Rep.key` and the census's rows-level
        `decompose` memo both use it."""
        return (quiver.key, p, dims, tuple(chain.from_iterable(chain.from_iterable(mats))))

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim() == 0

    def __repr__(self):
        return f"Rep(dims={self.dims}, p={self.p})"


# -- direct sums --------------------------------------------------------------


def direct_sum(*reps):
    """Block-diagonal direct sum of representations (same quiver, same p)."""
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    Q, p = reps[0].quiver, reps[0].p
    for r in reps[1:]:
        if r.quiver.key != Q.key or r.p != p:
            raise ValueError("summands live over different quivers or primes")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(Q.n))
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        rows, left = [], 0
        for r in reps:
            right = dims[s] - left - r.dims[s]
            rows.extend((0,) * left + row + (0,) * right for row in r.mats[a])
            left += r.dims[s]
        mats.append(rows)
    return Rep(Q, p, dims, mats)


# -- Hom spaces ---------------------------------------------------------------


def hom_constraint_rows(quiver, p, m_dims, m_rows, n_dims, n_rows):
    """(unknowns, rows): the matrix C with Hom(M, N) = ker C as lists of
    Python ints in [0, p), for modules given by dimension vectors and arrow
    matrices as sequences of Python-int rows in [0, p) (a `Rep`'s `mats`,
    or the lists a census builds).  The unknowns are the
    stacked row-major vec(f_i), f_i of shape (n_i, m_i).

    For each arrow a: s -> t the condition f_t M_a - N_a f_s = 0 gives one
    row per entry (x, y) of f_t M_a - N_a f_s, with M_a[z, y] at unknown
    f_t[x, z] and -N_a[x, w] at unknown f_s[w, y]: the rows of
    (I (x) M_a^T) vec(f_t) - (N_a (x) I) vec(f_s), with (x) the Kronecker
    product.  Arrows with no entries give no rows.
    """
    offsets, unknowns = [], 0
    for m, n in zip(m_dims, n_dims):
        offsets.append(unknowns)
        unknowns += m * n
    rows = []
    for (s, t), Ma, Na in zip(quiver.arrows, m_rows, n_rows):
        ds, dt, es = m_dims[s], m_dims[t], n_dims[s]
        for x in range(n_dims[t]):
            base = offsets[t] + x * dt
            Nx = Na[x]
            for y in range(ds):
                row = [0] * unknowns
                for z in range(dt):
                    row[base + z] = Ma[z][y]
                col = offsets[s] + y
                for w in range(es):
                    if Nx[w]:
                        row[col + w * ds] = p - Nx[w]
                rows.append(row)
    return unknowns, rows


def hom_dim(M, N):
    """dim_{F_p} Hom(M, N)."""
    _check_compatible(M, N)
    unknowns, rows = hom_constraint_rows(M.quiver, M.p, M.dims, M.mats, N.dims, N.mats)
    return unknowns - linalg.rank_rows(rows, unknowns, M.p)


def ext1_dim(M, N):
    """dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> (hereditary)."""
    return hom_dim(M, N) - M.quiver.euler_form(M.dims, N.dims)


def _check_compatible(M, N):
    if M.quiver.key != N.quiver.key or M.p != N.p:
        raise ValueError("representations live over different quivers or primes")


# -- the torus of a basis -----------------------------------------------------


def coefficient_components(quiver, dims, mats):
    """(labels, k): the connected components of the coefficient quiver of
    the module (dims, mats), whose nodes are the basis vectors (v, i) and
    whose edges join (s, c) and (t, r) for every nonzero entry M_a[r][c]
    of an arrow a: s -> t.  labels[v][i] in range(k) names the component
    of (v, i); components are numbered in the order of their first basis
    vector.

    Scaling the basis vectors of one component by a common t in F_p^*
    commutes with every M_a, so the k components give a torus (F_p^*)^k
    of automorphisms of the module in this basis.
    """
    offsets, total = [], 0
    for d in dims:
        offsets.append(total)
        total += d
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for (s, t), mat in zip(quiver.arrows, mats):
        for r, row in enumerate(mat, offsets[t]):
            for c, x in enumerate(row, offsets[s]):
                if x:
                    a, b = find(r), find(c)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
    ids = {}
    flat = [ids.setdefault(find(x), len(ids)) for x in range(total)]
    labels = [flat[o : o + d] for o, d in zip(offsets, dims)]
    return labels, len(ids)


# -- automorphism counts ------------------------------------------------------


def gl_order(m, q):
    """|GL_m(F_q)| = prod_{k<m} (q^m - q^k)."""
    out = 1
    for k in range(m):
        out *= q**m - q**k
    return out


def aut_count_from_mults(M, mults):
    """|Aut M| from the multiplicities of a Krull-Schmidt decomposition.

    `mults` lists the multiplicities of the pairwise non-isomorphic
    indecomposable summands; each summand must have endomorphism ring with
    residue field F_p (true for every module this package instantiates
    from its catalogs).
    """
    q = M.p
    e = hom_dim(M, M)
    head = sum(m * m for m in mults)
    rad = e - head
    if rad < 0:
        raise ValueError("decomposition inconsistent with dim End")
    out = q**rad
    for m in mults:
        out *= gl_order(m, q)
    return out
