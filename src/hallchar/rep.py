"""Representations of an acyclic quiver over a prime field F_p.

A representation M assigns to each vertex i a space F_p^{d_i} and to each
arrow a: s -> t a matrix M_a of shape (d_t, d_s).  A morphism f: M -> N is
a tuple of matrices f_i (shape (e_i, d_i)) with

    f_t M_a = N_a f_s            for every arrow a: s -> t.

Hom spaces are computed exactly as the kernel of the linear system above;
dim Ext^1(M, N) then follows from dim Hom(M, N) - <dim M, dim N> because
the path algebra of an acyclic quiver is hereditary.

Isomorphy is decided by searching Hom(M, N) for an element that is
invertible at every vertex: exhaustively when the Hom space is small,
otherwise by randomized search (an isomorphism, if one exists, forms an
Aut(N)-torsor inside Hom, so random search succeeds with overwhelming
probability; when the searches are inconclusive we raise rather than
guess).

|Aut M| is computed from a Krull-Schmidt decomposition
M = X_1^{m_1} + ... + X_k^{m_k} with pairwise non-isomorphic X_i whose
endomorphism rings have residue field F_p (the tests check it against a
brute-force enumeration of End(M)):

    |Aut M| = p^{dim rad End M} * prod_i |GL_{m_i}(F_p)|,
    dim rad End M = dim End M - sum_i m_i^2.
"""

import itertools

import numpy as np

from .errors import InconclusiveIso
from . import linalg


class Rep:
    """A representation: dims per vertex plus one matrix per arrow."""

    def __init__(self, quiver, p, dims, mats):
        self.quiver = quiver
        self.p = int(p)
        self.dims = tuple(int(x) for x in dims)
        if len(self.dims) != quiver.n:
            raise ValueError("dimension vector length != number of vertices")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        mats = [np.asarray(m, dtype=np.int64) % self.p for m in mats]
        if len(mats) != len(quiver.arrows):
            raise ValueError("need one matrix per arrow")
        for (s, t), m in zip(quiver.arrows, mats):
            if m.shape != (self.dims[t], self.dims[s]):
                raise ValueError(
                    f"arrow {s}->{t}: matrix shape {m.shape} != "
                    f"({self.dims[t]}, {self.dims[s]})"
                )
        self.mats = tuple(np.ascontiguousarray(m) for m in mats)
        # memos hand the same Rep to many callers, so nobody may write to it
        for m in self.mats:
            m.setflags(write=False)
        # Hashable identity for memo keys: (quiver key, p, dims, bytes of each
        # arrow matrix).  The matrices are contiguous int64, reduced mod p,
        # with shapes that follow from dims, so the bytes identify this exact
        # module; they are read-only, so the key is built once, here.
        self.key = Rep.key_of(quiver, self.p, self.dims, (m.tobytes() for m in self.mats))

    @classmethod
    def zero(cls, quiver, p):
        dims = [0] * quiver.n
        mats = [np.zeros((0, 0), dtype=np.int64) for _ in quiver.arrows]
        return cls(quiver, p, dims, mats)

    @classmethod
    def simple(cls, quiver, p, i):
        """The simple S_i (one-dimensional at vertex i, zero maps)."""
        dims = [1 if v == i else 0 for v in range(quiver.n)]
        mats = [
            np.zeros((dims[t], dims[s]), dtype=np.int64)
            for (s, t) in quiver.arrows
        ]
        return cls(quiver, p, dims, mats)

    @staticmethod
    def key_of(quiver, p, dims, mat_bytes):
        """The `key` of the module with these dims whose arrow matrices, as
        int64 arrays, have the bytes `mat_bytes`."""
        return (quiver.key, p, dims, tuple(mat_bytes))

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
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        ro = co = 0
        for r in reps:
            dr, dc = r.dims[t], r.dims[s]
            m[ro : ro + dr, co : co + dc] = r.mats[a]
            ro += dr
            co += dc
        mats.append(m)
    return Rep(Q, p, dims, mats)


# -- Hom spaces ---------------------------------------------------------------


def _hom_offsets(M, N):
    """Start offset of vec(f_i) inside the stacked unknown vector."""
    offsets = []
    pos = 0
    for i in range(M.quiver.n):
        offsets.append(pos)
        pos += N.dims[i] * M.dims[i]
    return offsets, pos


def hom_constraint_matrix(M, N):
    """Matrix C with Hom(M, N) = ker C, unknowns = stacked row-major vec(f_i).

    For each arrow a: s -> t the condition f_t M_a - N_a f_s = 0 expands to
    (I (x) M_a^T) vec(f_t) - (N_a (x) I) vec(f_s) = 0 with (x) the Kronecker
    product and vec the row-major flattening.  Row (x, y) of an arrow's
    block is entry (x, y) of f_t M_a - N_a f_s, so both Kronecker factors
    are written into place through 4-d views (x, y, row of f, column of f).
    """
    offsets, total = _hom_offsets(M, N)
    arrows = M.quiver.arrows
    C = np.zeros(
        (sum(N.dims[t] * M.dims[s] for s, t in arrows), total), dtype=np.int64
    )
    r0 = 0
    for a, (s, t) in enumerate(arrows):
        et, ds = N.dims[t], M.dims[s]
        if et * ds == 0:
            continue
        rows = C[r0 : r0 + et * ds]
        r0 += et * ds
        dt, es = M.dims[t], N.dims[s]
        # (I (x) M_a^T)[(x, y), (x, z)] = M_a[z, y]
        bt = rows[:, offsets[t] : offsets[t] + et * dt].reshape(et, ds, et, dt)
        mt = M.mats[a].T
        for x in range(et):
            bt[x, :, x, :] = mt
        # -(N_a (x) I)[(x, y), (w, y)] = -N_a[x, w]
        bs = rows[:, offsets[s] : offsets[s] + es * ds].reshape(et, ds, es, ds)
        neg = -N.mats[a]
        for y in range(ds):
            bs[:, y, :, y] = neg
    C %= M.p
    return C


def hom_dim(M, N):
    """dim_{F_p} Hom(M, N)."""
    _check_compatible(M, N)
    offsets, total = _hom_offsets(M, N)
    if total == 0:
        return 0
    C = hom_constraint_matrix(M, N)
    if C.shape[0] == 0:
        return total
    return total - int(linalg.rank_mod(C, M.p))


def hom_basis(M, N):
    """Basis of Hom(M, N) as tuples of per-vertex matrices."""
    _check_compatible(M, N)
    offsets, total = _hom_offsets(M, N)
    if total == 0:
        return []
    C = hom_constraint_matrix(M, N)
    if C.shape[0] == 0:
        K = np.eye(total, dtype=np.int64)
    else:
        K = linalg.nullspace_mod(C, M.p)
    basis = []
    for j in range(K.shape[1]):
        basis.append(_unflatten(K[:, j], M, N, offsets))
    return basis


def _unflatten(x, M, N, offsets):
    mats = []
    for i in range(M.quiver.n):
        e, d = N.dims[i], M.dims[i]
        mats.append(
            np.ascontiguousarray(
                x[offsets[i] : offsets[i] + e * d].reshape(e, d)
            )
        )
    return tuple(mats)


def ext1_dim(M, N):
    """dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N> (hereditary)."""
    return hom_dim(M, N) - M.quiver.euler_form(M.dims, N.dims)


def _check_compatible(M, N):
    if M.quiver.key != N.quiver.key or M.p != N.p:
        raise ValueError("representations live over different quivers or primes")


def is_morphism(M, N, f):
    """Check the intertwining relations (used in tests)."""
    p = M.p
    for a, (s, t) in enumerate(M.quiver.arrows):
        lhs = linalg.matmul_mod(f[t], M.mats[a], p)
        rhs = linalg.matmul_mod(N.mats[a], f[s], p)
        if not np.array_equal(lhs, rhs):
            return False
    return True


# -- isomorphy ----------------------------------------------------------------


def _combine(basis, coeffs, n, p):
    """Linear combination of hom-basis elements."""
    out = []
    for i in range(n):
        acc = np.zeros_like(basis[0][i])
        for c, f in zip(coeffs, basis):
            if c:
                acc = acc + c * f[i]
        out.append(acc % p)
    return out


def _is_invertible_everywhere(f, p):
    for m in f:
        if m.shape[0] != m.shape[1]:
            return False
        if m.shape[0] and not linalg.is_invertible_mod(m, p):
            return False
    return True


def is_isomorphic(M, N, exhaustive_cap=20000, random_budget=200, seed=0):
    """Decide M ~= N by locating an invertible element of Hom(M, N).

    Small Hom spaces are searched exhaustively (definitive either way).
    Larger ones use randomized search; failure there raises InconclusiveIso
    rather than returning a possibly wrong False.
    """
    _check_compatible(M, N)
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    # necessary numeric invariants, cheap rejection
    if hom_dim(M, M) != hom_dim(N, N):
        return False
    basis = hom_basis(M, N)
    h = len(basis)
    if h == 0:
        return False
    p, n = M.p, M.quiver.n
    if p**h <= exhaustive_cap:
        for coeffs in itertools.product(range(p), repeat=h):
            if any(coeffs) and _is_invertible_everywhere(
                _combine(basis, coeffs, n, p), p
            ):
                return True
        return False
    rng = np.random.default_rng(seed)
    # deterministic single-element and all-ones tries first
    for coeffs in [c for c in np.eye(h, dtype=np.int64)] + [np.ones(h, dtype=np.int64)]:
        if _is_invertible_everywhere(_combine(basis, coeffs, n, p), p):
            return True
    for _ in range(random_budget):
        coeffs = rng.integers(0, p, size=h)
        if any(coeffs) and _is_invertible_everywhere(
            _combine(basis, coeffs, n, p), p
        ):
            return True
    raise InconclusiveIso(
        f"no isomorphism found in {random_budget} random tries "
        f"(dims {M.dims}, hom dim {h}); cannot certify non-isomorphy"
    )


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


# -- subrepresentations and quotients -----------------------------------------


def _complete_basis(U, n, p):
    """Extend independent columns U (n x k) to an invertible n x n matrix."""
    k = U.shape[1]
    if k == n:
        return U.copy()
    # pivot coordinates of the column span; standard vectors elsewhere
    B = np.ascontiguousarray(U.T % p)
    rank, pivots = linalg.rref_mod(B, p)
    if rank != k:
        raise ValueError("columns are not independent")
    piv_set = set(int(pivots[i]) for i in range(rank))
    cols = [U % p]
    extra = np.zeros((n, n - k), dtype=np.int64)
    j = 0
    for i in range(n):
        if i not in piv_set:
            extra[i, j] = 1
            j += 1
    cols.append(extra)
    out = np.hstack(cols)
    return out


def sub_quotient_pair(M, bases):
    """Sub and quotient representations for per-vertex column bases.

    `bases[i]` is a dims[i] x k_i matrix of independent columns spanning a
    subspace U_i; the U_i must form a subrepresentation (M_a U_s inside U_t
    for every arrow), otherwise ValueError is raised.  Returns (sub, quot).
    """
    Q, p = M.quiver, M.p
    k = [b.shape[1] for b in bases]
    B = [_complete_basis(np.asarray(b, dtype=np.int64) % p, M.dims[i], p) for i, b in enumerate(bases)]
    Binv = []
    for i, b in enumerate(B):
        if M.dims[i] == 0:
            Binv.append(np.zeros((0, 0), dtype=np.int64))
            continue
        ok, binv = linalg.inv_mod(b, p)
        if not ok:
            raise ValueError("basis completion failed")
        Binv.append(binv)
    sub_mats, quot_mats = [], []
    for a, (s, t) in enumerate(Q.arrows):
        if M.dims[t] == 0 or M.dims[s] == 0:
            conj = np.zeros((M.dims[t], M.dims[s]), dtype=np.int64)
        else:
            conj = linalg.matmul_mod(
                Binv[t], linalg.matmul_mod(M.mats[a], B[s], p), p
            )
        if np.any(conj[k[t] :, : k[s]] % p):
            raise ValueError("given subspaces are not a subrepresentation")
        sub_mats.append(conj[: k[t], : k[s]].copy())
        quot_mats.append(conj[k[t] :, k[s] :].copy())
    sub = Rep(Q, p, k, sub_mats)
    quot = Rep(Q, p, [M.dims[i] - k[i] for i in range(Q.n)], quot_mats)
    return sub, quot


def kernel_rep(M, N, f):
    """Kernel of a morphism f: M -> N as a representation (sub of M)."""
    bases = [linalg.nullspace_mod(f[i], M.p) if M.dims[i] else np.zeros((0, 0), dtype=np.int64) for i in range(M.quiver.n)]
    sub, _ = sub_quotient_pair(M, bases)
    return sub


def cokernel_rep(M, N, f):
    """Cokernel of a morphism f: M -> N as a representation (quotient of N)."""
    bases = []
    for i in range(N.quiver.n):
        if N.dims[i] == 0:
            bases.append(np.zeros((0, 0), dtype=np.int64))
        else:
            bases.append(linalg.column_space_canonical(f[i], N.p))
    _, quot = sub_quotient_pair(N, bases)
    return quot


def image_dims(f, p):
    """Per-vertex rank of a morphism."""
    return tuple(
        int(linalg.rank_mod(m, p)) if m.size else 0 for m in f
    )


# -- constructions ------------------------------------------------------------


def random_rep(quiver, dims, p, rng):
    """Uniformly random representation with the given dimension vector."""
    mats = [
        rng.integers(0, p, size=(dims[t], dims[s])).astype(np.int64)
        for (s, t) in quiver.arrows
    ]
    return Rep(quiver, p, dims, mats)


def opposite_rep(M, opp=None):
    """The same linear data viewed over the opposite quiver.

    Transposing every matrix turns M_a: s -> t into a matrix for the
    reversed arrow t -> s; Hom(M, N) ~= Hom(N^op, M^op), so this gives a
    cheap cross-check path (e.g. Gr_e(M) ~= Gr_{d-e}(M^op) by U -> U-perp).
    """
    Q = M.quiver
    if opp is None:
        opp = Q.opposite()
    mats = [m.T.copy() for m in M.mats]
    return Rep(opp, M.p, M.dims, mats)
