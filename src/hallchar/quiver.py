"""Acyclic quivers and the bilinear forms attached to them.

A quiver is a finite directed multigraph.  Vertices are 0-based integers
internally (the text file format below is 1-based).  For an acyclic quiver
the path algebra is finite dimensional and hereditary, and all homological
data used in this package is determined by the arrow-count matrix

    A[i][j] = number of arrows i -> j.

The Euler form of two dimension vectors is

    <d, e> = sum_i d_i e_i - sum_{arrows a} d_{s(a)} e_{t(a)} = d (I - A) e^T

and equals dim Hom(M, N) - dim Ext^1(M, N) for any representations M, N
with dim M = d, dim N = e.  The Coxeter matrix

    Phi = -E E^{-T},   E = I - A,

acts on row vectors from the right; for a non-projective indecomposable M
the Auslander-Reiten translate satisfies dim(tau M) = (dim M) Phi.

Quiver file format (parse_quiver):

    # comment lines start with '#'
    vertices 3
    arrow a 1 2
    arrow b 2 3

i.e. one `vertices <n>` line, then `arrow <id> <src> <dst>` lines with
1-based vertex numbers.
"""

from fractions import Fraction

from . import memo


class Quiver:
    """A finite acyclic quiver with named arrows.

    Attributes
    ----------
    n : number of vertices (0-based ids 0..n-1 internally)
    arrows : list of (source, target) pairs, 0-based
    arrow_names : list of arrow id strings, parallel to `arrows`
    """

    def __init__(self, n, arrows, arrow_names=None, name=None):
        self.n = int(n)
        self.arrows = tuple((int(s), int(t)) for (s, t) in arrows)
        if arrow_names is None:
            arrow_names = [f"a{k}" for k in range(len(self.arrows))]
        self.arrow_names = tuple(arrow_names)
        self.name = name
        if self.n <= 0:
            raise ValueError("quiver needs at least one vertex")
        for (s, t) in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"arrow endpoint out of range: {(s, t)}")
            if s == t:
                raise ValueError("loops are not allowed (quiver must be acyclic)")
        if len(set(self.arrow_names)) != len(self.arrow_names):
            raise ValueError("duplicate arrow ids")
        self._topo = self._toposort()
        # integer matrices as lists of Python-int rows; arrow-count matrix
        # A[i][j] = #arrows i -> j
        n = self.n
        A = [[0] * n for _ in range(n)]
        for (s, t) in self.arrows:
            A[s][t] += 1
        self.arrow_matrix = A
        E = self.euler_matrix = [[int(i == j) - A[i][j] for j in range(n)] for i in range(n)]
        # C[i][j] = #paths i -> j: C[i] = e_i + sum over arrows i -> t of C[t]
        C = [None] * n
        for v in reversed(self._topo):
            C[v] = [int(v == j) for j in range(n)]
            for (s, t) in self.arrows:
                if s == v:
                    C[v] = [x + y for x, y in zip(C[v], C[t])]
        # A is nilpotent, so E^{-1} = I + A + A^2 + ... = C, and
        # Phi = -E E^{-T} = -E C^T, Phi^{-1} = -E^T E^{-1} = -E^T C are
        # integer products
        minus_E = [[-x for x in row] for row in E]
        self.coxeter_matrix = _matmul(minus_E, _transpose(C))
        self._coxeter_cols = _transpose(self.coxeter_matrix)
        self._coxeter_inverse_cols = _transpose(_matmul(_transpose(minus_E), C))
        self._projective_dims = tuple(tuple(row) for row in C)
        self._injective_dims = tuple(zip(*C))
        self._dynkin = self._positive_definite_tree()
        # key: hashable identity used for caching
        self.key = (self.n, self.arrows)

    def topological_order(self):
        """Vertex order with all arrows pointing forward."""
        return list(self._topo)

    # -- construction helpers -------------------------------------------

    def _toposort(self):
        """Kahn's algorithm; raises ValueError on a directed cycle."""
        indeg = [0] * self.n
        out = [[] for _ in range(self.n)]
        for (s, t) in self.arrows:
            indeg[t] += 1
            out[s].append(t)
        queue = [v for v in range(self.n) if indeg[v] == 0]
        order = []
        while queue:
            v = min(queue)  # deterministic
            queue.remove(v)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.n:
            raise ValueError("quiver has a directed cycle")
        return order

    # -- forms and dimension-vector arithmetic ---------------------------

    def euler_form(self, d, e):
        """<d, e> = dim Hom - dim Ext^1 on dimension vectors."""
        return int(sum(x * y for x, y in zip(d, e)) - sum(d[s] * e[t] for s, t in self.arrows))

    def euler_row(self, d):
        """The row d E of the Euler matrix, so <d, e> = sum_j (d E)_j e_j:
        (d E)_j = d_j minus d_s summed over the arrows s -> j."""
        row = list(d)
        for s, t in self.arrows:
            row[t] -= d[s]
        return row

    def tits_form(self, d):
        """q(d) = <d, d>, the quadratic (Tits) form."""
        return self.euler_form(d, d)

    def coxeter(self, d):
        """Row-vector right action d |-> d Phi (dimension vector of tau M)."""
        return _times(d, self._coxeter_cols)

    def coxeter_inverse(self, d):
        """d |-> d Phi^{-1} (dimension vector of tau^{-1} M)."""
        return _times(d, self._coxeter_inverse_cols)

    # -- projectives / injectives ----------------------------------------

    def projective_dim(self, i):
        """Dimension vector of the projective P(i): paths starting at i."""
        return self._projective_dims[i]

    def injective_dim(self, i):
        """Dimension vector of the injective I(i): paths ending at i."""
        return self._injective_dims[i]

    def sinks(self):
        return [v for v in range(self.n) if all(s != v for (s, t) in self.arrows)]

    def sources(self):
        return [v for v in range(self.n) if all(t != v for (s, t) in self.arrows)]

    # -- shape tests -------------------------------------------------------

    def is_tree(self):
        """True when the underlying undirected graph is a tree."""
        if len(self.arrows) != self.n - 1:
            return False
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (s, t) in self.arrows:
            rs, rt = find(s), find(t)
            if rs == rt:
                return False
            parent[rs] = rt
        return True

    def is_dynkin(self):
        """Tree underlying graph with positive definite Tits form."""
        return self._dynkin

    def _positive_definite_tree(self):
        """The is_dynkin test, run once at construction."""
        if not self.is_tree():
            return False
        # positive definite <=> q(d) > 0 for all nonzero d; check leading
        # principal minors of the symmetrized Gram matrix (2q).
        n, E = self.n, self.euler_matrix
        g = [[Fraction(E[i][j] + E[j][i]) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            minor = _det([row[:k] for row in g[:k]])
            if minor <= 0:
                return False
        return True

    def is_kronecker(self):
        return (
            self.n == 2
            and len(self.arrows) == 2
            and self.arrows[0] == self.arrows[1]
        )

    def positive_roots(self):
        """All nonzero d >= 0 with q(d) = 1, for a Dynkin quiver.

        These are exactly the dimension vectors of the indecomposable
        representations, each tau^m I(i) of an injective, so they are the
        Coxeter orbits of the injective dimension vectors, kept while every
        coordinate is >= 0.  Sorted by (total, d); memoized on `key`.
        """
        return list(_positive_roots(self))

    def __repr__(self):
        arrows = ", ".join(
            f"{name}:{s + 1}->{t + 1}"
            for name, (s, t) in zip(self.arrow_names, self.arrows)
        )
        return f"Quiver({self.n} vertices; {arrows})"


@memo.memoized(lambda quiver: quiver.key)
def _positive_roots(quiver):
    if not quiver.is_dynkin():
        raise ValueError("positive roots are only enumerated for Dynkin quivers")
    roots = set()
    for i in range(quiver.n):
        d = quiver.injective_dim(i)
        while min(d) >= 0:
            roots.add(d)
            d = quiver.coxeter(d)
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _times(d, cols):
    """The row vector d times the matrix with columns `cols`, as a tuple of
    Python ints."""
    return tuple(int(sum(x * y for x, y in zip(d, col))) for col in cols)


def _matmul(A, B):
    """A B, integer matrices as lists of rows."""
    cols = _transpose(B)
    return [list(_times(row, cols)) for row in A]


def _det(rows):
    """Exact determinant of a small matrix of Fractions."""
    n = len(rows)
    mat = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                f = mat[r][col] * inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


# -- presets and parsing ----------------------------------------------------


def kronecker_quiver():
    """Two vertices, two parallel arrows 1 -> 2."""
    return Quiver(2, [(0, 1), (0, 1)], arrow_names=["a", "b"], name="kronecker")


def linear_quiver(n):
    """Equioriented type A_n: 1 -> 2 -> ... -> n."""
    return Quiver(
        n,
        [(i, i + 1) for i in range(n - 1)],
        arrow_names=[f"a{i + 1}" for i in range(n - 1)],
        name=f"A{n}",
    )


_PRESETS = {
    "kronecker": kronecker_quiver,
    "a2": lambda: linear_quiver(2),
    "a3": lambda: linear_quiver(3),
    "a4": lambda: linear_quiver(4),
}


def quiver_by_name(name):
    try:
        return _PRESETS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown quiver preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def parse_quiver(text, name=None):
    """Parse the quiver text format (see module docstring)."""
    n = None
    arrows = []
    names = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate 'vertices' line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vertices <n>'")
            n = int(parts[1])
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 'arrow <id> <src> <dst>'")
            if n is None:
                raise ValueError(f"line {lineno}: 'vertices' must come first")
            src, dst = int(parts[2]), int(parts[3])
            if not (1 <= src <= n and 1 <= dst <= n):
                raise ValueError(f"line {lineno}: vertex out of range (1-based)")
            names.append(parts[1])
            arrows.append((src - 1, dst - 1))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'vertices' line")
    return Quiver(n, arrows, arrow_names=names, name=name)


def load_quiver(spec):
    """Load a quiver from a preset name or a file path."""
    import os

    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read quiver file {spec!r}: {exc.strerror}") from exc
        return parse_quiver(text, name=os.path.basename(spec))
    return quiver_by_name(spec)
