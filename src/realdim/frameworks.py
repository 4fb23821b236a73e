"""Numerics for quotient frameworks of one-dimensionally periodic graphs.

A quotient framework is a labelled quotient graph together with one
position per vertex orbit and a nonzero lattice vector: the data
(graph, positions, lattice).  The periodic realization places copy s of
vertex i at position(i) + s * lattice.

The edge set is always extended by a lattice pseudo-edge: a loop on an
extra node with label +1, whose edge vector is the lattice vector itself.
Rigidity matrices, equilibrium stresses, and stress matrices all live on
this extended edge set.  Per-edge work reads the edge arrays (tail index,
head index, label) with numpy indexing, each entry computed by the same
float operations, in the same order, as a loop over the edges would.
The combinatorial side of :func:`span_check` is ``graphs.pair_profile``.

Tolerances are relative: an input ``tol`` (default 1e-8) is scaled by the
largest singular value of the matrix at hand, floored at 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DegenerateLatticeError, RealdimError
from .exactlinalg import rational_inertia, rational_rank
from .graphs import GainGraph, multigraph, pair_profile

DEFAULT_TOL = 1e-8

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

LATTICE_KEY = "L"


def _scaled_tol(tol, scale) -> float:
    t = DEFAULT_TOL if tol is None else tol
    return t * max(1.0, float(scale))


def _finite(matrix) -> np.ndarray:
    """matrix (or a scalar) as floats, refused if an entry is inf or nan: LAPACK
    may never return on such a matrix, an infinite tolerance accepts anything,
    and finite inputs near the float limit make both."""
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise RealdimError("a value overflowed to inf or nan: coordinates or "
                           "weights are too large for float arithmetic")
    return m


def numeric_rank(matrix: np.ndarray, tol=None) -> int:
    m = _finite(matrix)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int((s > _scaled_tol(tol, s[0])).sum())


def null_space(matrix: np.ndarray, tol=None) -> np.ndarray:
    """Orthonormal basis of the right null space, one column per vector."""
    m = _finite(matrix)
    if m.size == 0:
        cols = m.shape[1] if m.ndim == 2 else 0
        return np.eye(cols)
    # A tall matrix's thin vt is already square; only a wide one needs the full vt.
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank = int((s > _scaled_tol(tol, s[0])).sum())
    return vt[rank:].T


def _is_exact(x) -> bool:
    return isinstance(x, (Integral, Fraction)) and not isinstance(x, bool)


class StressVector(NamedTuple):
    """Edge weights on the extended edge set: real edges plus the lattice."""

    weights: dict
    lattice: object

    @classmethod
    def from_sequence(cls, graph: GainGraph, values) -> "StressVector":
        values = list(values)
        if len(values) != graph.m + 1:
            raise RealdimError(
                f"expected {graph.m + 1} weights (edges plus lattice), got {len(values)}"
            )
        return cls({e.id: v for e, v in zip(graph.edges, values)}, values[-1])

    def as_list(self, graph: GainGraph) -> list:
        try:
            return [self.weights[e.id] for e in graph.edges] + [self.lattice]
        except KeyError as k:
            raise RealdimError(f"stress is missing a weight for edge {k}") from None

    def as_array(self, graph: GainGraph) -> np.ndarray:
        return np.array([float(x) for x in self.as_list(graph)])


class StressSignature(NamedTuple):
    """Eigenvalue counts (positive, negative, zero) of a stress matrix."""

    n_plus: int
    n_minus: int
    n_zero: int
    tol: float

    def as_tuple(self) -> tuple:
        return (self.n_plus, self.n_minus, self.n_zero)

    def is_nonnegative(self) -> bool:
        return self.n_minus == 0

    def is_full(self, dim: int) -> bool:
        return self.n_zero == dim + 1


class QuotientFramework:
    """Positions and a lattice vector over a labelled quotient graph.

    ``positions`` may be an (n, dim) array whose rows follow the sorted
    vertex tuple, or a mapping from vertex id to coordinates.  The lattice
    vector must be nonzero.  Treated as immutable.
    """

    def __init__(self, graph: GainGraph, positions, lattice):
        self.graph = graph
        if isinstance(positions, Mapping):
            try:
                rows = [positions[v] for v in graph.vertices]
            except KeyError as k:
                raise RealdimError(f"missing position for vertex {k}") from None
            positions = np.array(rows, dtype=float)
        else:
            positions = np.array(positions, dtype=float)
        lattice = np.array(lattice, dtype=float).reshape(-1)
        if positions.ndim != 2 or positions.shape[0] != graph.n:
            raise RealdimError(
                f"positions must be an ({graph.n}, dim) array, got {positions.shape}"
            )
        if lattice.shape[0] != positions.shape[1] or positions.shape[1] < 1:
            raise RealdimError("lattice dimension must match position dimension")
        if not np.linalg.norm(lattice) > 0:
            raise RealdimError("lattice vector must be nonzero")
        self.positions = positions
        self.lattice = lattice
        self._index = {v: k for k, v in enumerate(graph.vertices)}

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def n(self) -> int:
        return self.graph.n

    def position(self, v: int) -> np.ndarray:
        return self.positions[self._index[v]]

    @cached_property
    def _edges(self) -> tuple:
        """Tail indices, head indices and float labels of the edges."""
        tails, heads, labels = _edge_index(self.graph)
        return tails, heads, np.array(labels, dtype=float)

    def edge_vectors(self) -> np.ndarray:
        """Edge vectors for the extended edge set; lattice row last."""
        tails, heads, labels = self._edges
        P = self.positions
        return np.vstack([P[heads] + labels[:, None] * self.lattice - P[tails], self.lattice])

    def squared_lengths(self) -> np.ndarray:
        vs = self.edge_vectors()
        return (vs * vs).sum(axis=1)

    def bordered_matrix(self) -> np.ndarray:
        """The (dim+1) x (n+1) matrix [[P, lattice], [1..1, 0]]."""
        top = np.column_stack([self.positions.T, self.lattice])
        bottom = np.append(np.ones(self.n), 0.0)
        return np.vstack([top, bottom])


def _edge_index(graph: GainGraph) -> tuple:
    """Tail and head positions in the vertex tuple, as arrays, and the labels
    as Python ints, of the edges in order."""
    index = {v: k for k, v in enumerate(graph.vertices)}
    ends = np.array([(index[e.tail], index[e.head]) for e in graph.edges], dtype=np.intp)
    return *ends.reshape(-1, 2).T, [e.label for e in graph.edges]


def incidence_matrix(graph: GainGraph) -> np.ndarray:
    """Rows are indicator vectors of the extended edge set, lattice last."""
    tails, heads, labels = _edge_index(graph)
    n, rows = graph.n, np.arange(graph.m)
    inc = np.zeros((graph.m + 1, n + 1))
    inc[rows, heads] += 1
    inc[rows, tails] -= 1
    inc[rows, n] = labels
    inc[graph.m, n] = 1.0
    return inc


def affine_dimension(fw: QuotientFramework, tol=None) -> int:
    """Rank of the bordered position matrix minus one; at least 1."""
    return numeric_rank(fw.bordered_matrix(), tol) - 1


def rigidity_matrix(fw: QuotientFramework) -> np.ndarray:
    """One row per extended edge, dim columns per vertex plus a lattice block.

    The row of edge (i, j; z) carries -v in i's block, +v in j's block and
    z*v in the lattice block, v being the edge vector.  For a selfloop the
    vertex contributions cancel, leaving only the lattice block.  The
    lattice row carries the lattice vector in the lattice block.
    """
    m, n = fw.graph.m, fw.n
    tails, heads, labels = fw._edges
    V, rows = fw.edge_vectors()[:m], np.arange(m)
    R = np.zeros((m + 1, n + 1, fw.dim))  # row, vertex block (lattice last), coordinate
    R[rows, tails] -= V
    R[rows, heads] += V
    R[rows, n] += labels[:, None] * V
    R[m, n] = fw.lattice
    return R.reshape(m + 1, -1)


def stress_kernel(fw: QuotientFramework, tol=None) -> np.ndarray:
    """Orthonormal basis of the left kernel of the rigidity matrix.

    One row per basis vector, each of length m+1 (edges in graph order,
    lattice weight last).  These are exactly the equilibrium stresses.
    """
    return null_space(rigidity_matrix(fw).T, tol).T


def is_equilibrium_stress(fw: QuotientFramework, stress: StressVector, tol=None) -> bool:
    R = _finite(rigidity_matrix(fw))
    omega = stress.as_array(fw.graph)
    with np.errstate(over="ignore"):  # _finite refuses a scale that overflowed
        scale = _finite((np.linalg.svd(R, compute_uv=False)[0] if R.size else 0.0) * max(
            1.0, float(np.linalg.norm(omega))
        ))
    return float(np.abs(omega @ R).max(initial=0.0)) <= _scaled_tol(tol, scale)


def stress_matrix(graph: GainGraph, stress: StressVector) -> np.ndarray:
    """Weighted sum of indicator outer products over the extended edge set.

    Exact whenever every weight is exact; labels are always integers.
    Integer weights give an ``int64`` array when every entry fits in
    int64, else an ``object`` array of Python ints; Fraction weights give
    an ``object`` array of Fractions.  Equals I^T diag(w) I for the
    incidence matrix I.
    """
    values = stress.as_list(graph)
    exact = all(_is_exact(x) for x in values)
    if exact:  # numpy integer weights would wrap around in int64 products
        values = [x if isinstance(x, Fraction) else int(x) for x in values]
    n = graph.n
    tails, heads, labels = _edge_index(graph)
    w = np.array(values[:-1], dtype=object)
    keep = w != 0
    z = np.array(labels, dtype=object)[keep]
    ends = np.stack([tails[keep], heads[keep], np.full(len(z), n)], axis=1)
    coords = np.stack([np.full_like(z, -1), np.full_like(z, 1), z], axis=1)
    # w*xa*xb at (a, b) for the coords (tail, -1), (head, 1), (n, label) of an
    # edge; a selfloop has only (n, label).  On object arrays each product is
    # the one Python makes, and np.add.at adds the terms edge after edge, so
    # every float entry sums them in edge order.
    with np.errstate(all="ignore"):  # Python's float products never warn
        terms = w[keep][:, None, None] * coords[:, :, None] * coords[:, None, :]
    loop = ends[:, 0] == ends[:, 1]
    terms[loop, :2] = terms[loop, :, :2] = 0
    integral = exact and all(isinstance(x, Integral) for x in values)
    L = np.full((n + 1, n + 1), 0 if integral else Fraction(0) if exact else 0.0,
                dtype=object if exact else float)
    np.add.at(L, (ends[:, :, None], ends[:, None, :]), terms if exact else terms.astype(float))
    L[n, n] += values[-1] if exact else float(values[-1])
    if integral and all(_INT64_MIN <= x <= _INT64_MAX for x in L.flat):
        return L.astype(np.int64)
    return L


def signature(L: np.ndarray, tol=None) -> StressSignature:
    """Inertia of a symmetric matrix.

    Integer, Python-int and Fraction matrices go through exact
    elimination; floats are counted from eigenvalues against the scaled
    tolerance.
    """
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise RealdimError("stress matrix must be square")
    if L.dtype == object or np.issubdtype(L.dtype, np.integer):
        try:
            np_, nm, nz = rational_inertia(L.tolist())
        except ValueError:
            raise RealdimError("stress matrix must be symmetric") from None
        return StressSignature(np_, nm, nz, 0.0)
    Lf = _finite(L)
    if not np.allclose(Lf, Lf.T, atol=1e-12, rtol=0):
        raise RealdimError("stress matrix must be symmetric")
    eig = np.linalg.eigvalsh(Lf)
    scale = float(np.abs(eig).max(initial=0.0))
    t = _scaled_tol(tol, scale)
    return StressSignature(
        int((eig > t).sum()), int((eig < -t).sum()), int((np.abs(eig) <= t).sum()), t
    )


def _sym_basis_indices(d: int) -> list:
    return [(a, b) for a in range(d) for b in range(a, d)]


def _conic_matrix(fw: QuotientFramework) -> np.ndarray:
    V = fw.edge_vectors()
    with np.errstate(over="ignore"):  # null_space refuses an entry that overflowed
        return np.column_stack([V[:, a] * V[:, b] if a == b else 2 * V[:, a] * V[:, b]
                                for a, b in _sym_basis_indices(fw.dim)])


class ConicResult(NamedTuple):
    holds: bool
    witness: np.ndarray | None  # nonzero symmetric matrix when violated


def conic_condition(fw: QuotientFramework, tol=None) -> ConicResult:
    """Do the edge directions and the lattice avoid a common conic?

    Holds iff no nonzero symmetric S has v^T S v = 0 for every extended
    edge vector v (the lattice included).  On failure returns such an S,
    unit-norm as a coefficient vector.
    """
    kernel = null_space(_conic_matrix(fw), tol)
    if kernel.shape[1] == 0:
        return ConicResult(True, None)
    x = kernel[:, 0]
    S = np.zeros((fw.dim, fw.dim))
    for coeff, (a, b) in zip(x, _sym_basis_indices(fw.dim)):
        S[a, b] = coeff
        S[b, a] = coeff
    return ConicResult(False, S)


def flatten(fw: QuotientFramework, S: np.ndarray, tol=None) -> QuotientFramework:
    """Equivalent framework of lower affine dimension from a conic witness.

    Picks t = 1/lambda for the largest positive eigenvalue of S (or the
    most negative one when S has none positive), so that I - t*S is
    positive semidefinite and singular, then applies its symmetric square
    root to positions and lattice.  All extended edge lengths, lattice
    included, are preserved.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (fw.dim, fw.dim) or not np.allclose(S, S.T, atol=1e-9):
        raise RealdimError("witness must be a symmetric dim x dim matrix")
    norm = np.linalg.norm(S)
    if norm == 0:
        raise RealdimError("witness must be nonzero")
    vs = fw.edge_vectors()
    residual = float(np.abs((vs @ S * vs).sum(axis=1)).max(initial=0.0))
    scale = norm * max(1.0, float((vs * vs).sum(axis=1).max(initial=0.0)))
    if residual > _scaled_tol(tol, scale):
        raise RealdimError(
            f"witness does not annihilate the edge directions (residual {residual:g})"
        )
    eig, Q = np.linalg.eigh(S)
    positive = eig[eig > _scaled_tol(tol, norm)]
    lam = positive.max() if positive.size else eig.min()
    if lam == 0:
        raise RealdimError("witness has no usable eigenvalue")
    diag = 1.0 - eig / lam
    A = (Q * np.sqrt(np.clip(diag, 0.0, None))) @ Q.T
    new_positions = fw.positions @ A
    new_lattice = A @ fw.lattice
    if np.linalg.norm(new_lattice) <= _scaled_tol(tol, np.linalg.norm(fw.lattice)):
        raise DegenerateLatticeError(
            "flattening sent the lattice vector (numerically) to zero"
        )
    return QuotientFramework(fw.graph, new_positions, new_lattice)


def restrict_to_affine_span(fw: QuotientFramework, tol=None) -> QuotientFramework:
    """Isometrically re-embed into ambient dimension = affine dimension.

    Translates the first vertex to the origin and rotates the span of the
    position differences and the lattice onto the leading coordinates.
    Lengths and affine dimension are unchanged.
    """
    base = fw.positions[0]
    directions = _finite(np.vstack([fw.positions - base, fw.lattice]))
    u, s, vt = np.linalg.svd(directions, full_matrices=False)
    rank = int((s > _scaled_tol(tol, s[0] if s.size else 0)).sum())
    rank = max(rank, 1)
    basis = vt[:rank]
    return QuotientFramework(
        fw.graph, (fw.positions - base) @ basis.T, basis @ fw.lattice
    )


def construct_psd_stress(fw: QuotientFramework, tol=None) -> StressVector | None:
    """Constructive PSD equilibrium stress for complete-type quotients.

    Applicable exactly when the indicator outer products span the whole
    centered symmetric space, as :func:`span_check` reads it off the
    multigraph.  Returns None otherwise.

    Centers positions at their centroid, takes the kernel basis a_1..a_k
    of the bordered matrix, and solves sum w_e F_e = sum a_i a_i^T; the
    result has nonnegative signature with n_zero = affine dimension + 1.
    """
    g = fw.graph
    span = span_check(g)
    if not span.spanning_combinatorial:
        return None
    if span.rank != span.space_dim:
        raise RealdimError("combinatorial and rational span checks disagree")
    centered = fw.positions - fw.positions.mean(axis=0)
    top = np.column_stack([centered.T, fw.lattice])
    bordered = np.vstack([top, np.append(np.ones(g.n), 0.0)])
    kernel = null_space(bordered, tol)
    omega_target = kernel @ kernel.T

    upper = np.triu_indices(g.n + 1)  # row-major, the order of _sym_basis_indices
    inc = incidence_matrix(g)
    M = (inc[:, upper[0]] * inc[:, upper[1]]).T
    rhs = omega_target[upper]
    w, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = float(np.abs(M @ w - rhs).max(initial=0.0))
    if residual > _scaled_tol(tol, max(1.0, float(np.abs(rhs).max(initial=0.0)))):
        raise RealdimError(f"stress solve residual too large ({residual:g})")
    return StressVector.from_sequence(g, [float(x) for x in w])


class SuperStabilityReport(NamedTuple):
    verified: bool
    equilibrium_ok: bool
    signature_ok: bool
    conic_ok: bool
    signature: StressSignature
    note: str

    def as_dict(self) -> dict:
        return {
            "verified": self.verified,
            "equilibrium": self.equilibrium_ok,
            "signature_nonnegative_full": self.signature_ok,
            "conic_condition": self.conic_ok,
            "signature": self.signature.as_tuple(),
            "note": self.note,
        }


def verify_super_stable(fw: QuotientFramework, stress: StressVector, tol=None) -> SuperStabilityReport:
    """Check the super-stability certificate for a framework and stress.

    Requires (a) the stress to be an equilibrium stress, (b) its stress
    matrix to have nonnegative signature with a kernel of dimension
    exactly dim+1, and (c) the conic condition.  A verified report
    certifies periodic universal rigidity.
    """
    eq_ok = is_equilibrium_stress(fw, stress, tol)
    sig = signature(stress_matrix(fw.graph, stress), tol)
    sig_ok = sig.is_nonnegative() and sig.is_full(fw.dim)
    conic_ok = conic_condition(fw, tol).holds
    verified = eq_ok and sig_ok and conic_ok
    note = "certifies periodic universal rigidity" if verified else ""
    return SuperStabilityReport(verified, eq_ok, sig_ok, conic_ok, sig, note)


class SpanCheck(NamedTuple):
    """Combinatorial and rational-rank views of the indicator span."""

    size: int  # number of extended edges
    space_dim: int  # dim of the centered symmetric space
    rank: int  # exact rank of the indicator outer products
    independent_combinatorial: bool
    spanning_combinatorial: bool

    @property
    def independent_rank(self) -> bool:
        return self.rank == self.size

    @property
    def spanning_rank(self) -> bool:
        return self.rank == self.space_dim

    def agrees(self) -> bool:
        return (
            self.independent_rank == self.independent_combinatorial
            and self.spanning_rank == self.spanning_combinatorial
        )


def span_check(graph: GainGraph) -> SpanCheck:
    """Independence and spanning of the indicator outer products.

    Combinatorially, from ``graphs.pair_profile``: independent iff the
    graph is loopless, every multiplicity is at most two, and the doubled
    pairs form a forest; spanning iff every pair is adjacent and the
    doubled pairs connect every vertex.  The rank is computed exactly
    (labels are integers) for comparison.
    """
    n = graph.n
    pairs, top, forest, connected = pair_profile(multigraph(graph.vertices, graph.edges))
    independent = not any(e.is_loop for e in graph.edges) and top <= 2 and forest
    spanning = pairs == n * (n - 1) // 2 and connected

    # Each indicator outer product has at most six nonzero entries (a, b),
    # a <= b.  The columns of vertex pairs sort first, so the first edge of
    # each pair is a pivot at once and elimination meets only parallel
    # edges, selfloops and the lattice.
    index = {v: k for k, v in enumerate(graph.vertices)}
    rows = []
    for e in graph.edges:
        coords = [] if e.is_loop else [(index[e.tail], -1), (index[e.head], 1)]
        if e.label:
            coords.append((n, e.label))
        coords.sort()
        row = {}
        for i, (a, xa) in enumerate(coords):
            for b, xb in coords[i:]:
                row[a == b or b == n, a, b] = xa * xb
        rows.append(row)
    rows.append({(True, n, n): 1})  # the lattice
    rank = rational_rank(rows)
    return SpanCheck(
        size=graph.m + 1,
        space_dim=(n + 1) * (n + 2) // 2 - (n + 1),
        rank=rank,
        independent_combinatorial=independent,
        spanning_combinatorial=spanning,
    )
