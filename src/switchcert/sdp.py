"""Block-diagonal semidefinite programming at desk scale.

Standard form:

    minimise    g . u
    subject to  sum_b <A_jb, X_b> + d_j . u = b_j      j = 1..m
                X_b >= 0 (PSD),   u free

The objective lives on the free scalars alone.  A block objective
<C_b, X_b> given to ``SdpProblemBuilder.set_objective_block`` becomes one
more free scalar t_b with objective coefficient 1 and one more equality
<C_b, X_b> - t_b = 0; the SOS programs never pose one.

The solver embeds the problem in a homogeneous self-dual model and runs a
Mehrotra-style predictor-corrector interior-point iteration.  Free scalars
are kept natively in the KKT system.  Proven primal infeasibility is
reported through a Farkas ray extracted from the embedding; an ambiguous
tau/kappa limit is reported as numerical failure, never silently
misclassified.  Runs are deterministic for fixed inputs, whatever the BLAS
thread count the caller set.

Each iteration runs four phases, one function each: ``_cone_factors``
(Cholesky factors of X and S, and S^-1), ``_newton_system`` (the Schur
complement from ``_schur``, the KKT matrix, its LU factors and the
direction-independent KKT solve), ``_search_direction``
(predictor and corrector, one ``_direction`` each) and ``_step_length``.
The residuals and mu of an iterate are computed once, after the step that
produced it.

The iterate is held as one (g, s, s) stack per distinct block size,
blocks in block order, stacks in order of first appearance
(``_size_groups``).  SOS programs repeat their block sizes, and on small
blocks numpy's per-call overhead, not arithmetic, sets the time, so each
dense step is one call per stack; a step-length search takes the X and S
blocks of one size as one stack.  ``dpotrs``, the ``dtrtrs`` solves of
the step search and ``_schur`` have no stacked form and run per block.
The bits are those of a loop over blocks: a stacked gufunc call runs the
per-matrix kernel on each matrix, S^-1 keeps dpotrs's Fortran layout for
the gemms, and per-block sums are added in block order.

The constraint data stays sparse, built from ``SdpProblem.entries`` when
an attempt starts, so storage scales with the nonzeros, not with m s^2.
A(X) and A^T(y) are one CSR product each on the stacks laid end to end.
An operator is a plain record of the arrays a scipy.sparse CSR matrix
holds (shape, row pointers, int32 column indices, values), and ``_matmul``
hands them to the sparsetools kernel that scipy.sparse's product calls,
``csr_matvec`` for a vector and ``csr_matvecs`` for a matrix, from the
compiled module ``scipy.sparse._sparsetools``, adding into a zeroed output
as scipy does, so the products are the same bits without scipy.sparse's
dispatch, which on these small operators took several times as long as the
kernel.  ``_schur`` builds the Schur complement B[j,k] = <A_j, X A_k S^-1>
one block at a time over only the constraints that touch the block
(Fujisawa, Kojima & Nakata, "Exploiting sparsity in primal-dual
interior-point methods for semidefinite programming", Math. Prog. 1997):
one sparse product gives every A_k S^-1, one gemm every X A_k S^-1, and
one sparse product their inner products with the A_j.  The dense work per
block is O(s^3 m_b) in the gemm and O(s^2 m_b) in the copy of F that lays
the X A_k S^-1 out for the last product, for its m_b touching constraints,
against O(s^2 m^2) for a dense B = U U^T.  The blocks' m_b x m_b parts
are added into B by one bincount over precomputed flat indices, in block
order from 0.0, so B has the bits of one update per block.  The blocks are
those solved, below.

Before the embedding is built, ``_split_blocks`` solves every block at
least ``SPLIT_WIDTH`` wide as the connected components of its pattern:
the union, over every constraint, of the entries in that block (a block
objective is a row too).  Each component is a block of its own for the
whole iteration, in its block's place, its indices in ascending order;
a narrower block is one component.  This is exact: no constraint couples
two components, so the block-diagonal part of a feasible X is feasible,
PSD (its blocks are principal submatrices of X) and has the same
objective, and the dual slack -sum_j y_j A_j is block-diagonal over them.
On SOS programs with sign symmetries (every field odd, as in the cubic and
van der Pol pairs) the components are the sign classes of the Gram basis,
``sosprog.parity_classes`` (Gatermann & Parrilo, J. Pure Appl. Algebra
2004); splitting by the aggregate pattern is the block-level form of the
sparsity ``_schur`` exploits.  The solution is reported as posed: each
posed block holds its components' blocks with exact 0.0 between them, its
smallest eigenvalue is the minimum over its components, and a Farkas ray
lives in constraint space, so it needs no change;
``SdpSolution.solved_sizes`` gives the sizes as solved.  A component costs
the per-block work of a block (``dpotrs``, the ``dtrtrs`` solves of the
step search, ``_schur``'s three products) and may add a size group, which
outweighs the smaller s^3 on narrow blocks.  Measured on a shared 2-CPU
VM (one BLAS thread, medians of 15-31 alternating solves), a 20-wide block
split 7 + 13 took 6.1 ms against 5.3 ms whole, a 28-wide block split
16 + 12 5.3 ms against 5.2 ms, and a 34-wide block split 13 + 21 16.0 ms
against 27.9 ms; the degree-8 cubic decay program, blocks 34/35/20/55/34
solved as 13+21, 22+13, 20, 34+21 and 13+21, took 104 ms against 178 ms
in the same 15 iterations.  So ``SPLIT_WIDTH`` is 30, between the widest
block that gained nothing and the narrowest that gained.

Constraints are normalised to unit Frobenius norm internally.  The
reported primal residual refers to the original data, each row normalised
by 1 + max(|b_j|, ||A_j||_F); it is read off the residual of the scaled
data that every iteration computes, so no pass over the rows repeats it.

``solve`` makes one attempt, which aims at residuals and gap of ``TOL``
and is judged once, where it stops.  Converged with every block PSD, it is
optimal.  Stopped short, as ill-conditioned SOS programs at feasibility
edges do at the double-precision floor of mu, it is feasible when no ray
ended it, its primal residual on the original data is at most
``RELAXED_TOL``, every block is PSD, and its gap is at most
``RELAXED_TOL`` or the program has no objective.  A block is PSD when its
smallest eigenvalue is at least ``-PSD_TOL``; a point that misses this one
bar is a numerical failure whose message names that eigenvalue, so
callers judge a solve by its status alone.  The bar is not a positive
margin because structurally rank-deficient Gram faces are unavoidable for
vector fields whose top-degree part vanishes on a subspace.  The self-dual
iterates do not depend on the tolerances, so a looser re-solve would only
retrace them.

Linearly dependent constraints make the KKT matrix singular;
``_independent_constraints`` finds them from the first iteration's Schur
complement, which at X = S = I is the rows' Gram matrix, before its KKT
matrix is factored, and only then is the KKT diagonal shifted, by
``DEPENDENT_SHIFT``, in every iteration.  A Farkas ray is accepted when
its dual residual is at most ``RAY_TOL`` times b.y.  That bar is relative
to b.y, so a feasible problem with a large solution can be called
infeasible: one 1x1 block with the single constraint X = 2e8 is.  Every
certificate is re-verified apart from the search.

The iteration calls scipy's LAPACK routines directly, from the compiled
module ``scipy.linalg._flapack``: ``dtrtrs`` for the two triangular solves
of each step-length search, ``dpotrs`` for S^-1, ``dgetrf`` for the KKT
LU and ``dgetrs`` for its solves.  The Gram blocks
of most SOS programs are 3 to 15 wide, and on blocks that small scipy's
wrappers (``solve_triangular``, ``cho_solve``, ``lu_factor``,
``lu_solve``) spend several times longer validating their arguments than
the routine spends computing.  The direct calls pass the arguments the
wrappers pass, so the results are the same bits, and keep their checks,
once per stack: a non-finite input raises the wrappers' ``ValueError``
and a bad ``info`` raises as they do.  The raw routines never warn, so
the iteration sets no warning filter, which would not be thread-safe.  In
the same way the Cholesky factors of X and S and the eigenvalues of each
step-length search and of ``min_eigenvalue`` come from the gufuncs
``cholesky_lo`` and ``eigvalsh_lo`` that ``np.linalg.cholesky`` and
``np.linalg.eigvalsh`` call, under the error state those wrappers set:
a failed factorisation raises their ``LinAlgError`` and nothing warns.
A check covers a whole stack before the next one starts, so where two
blocks of one size fail in different ways, another failure than a loop
over blocks would report can come first.

``_scipy_extension`` loads those two compiled modules from their files
under scipy's directory, found by ``importlib.util.find_spec("scipy")``,
which imports nothing.  Importing them by name would first run the
``__init__`` of ``scipy.sparse`` and ``scipy.linalg``, which pull in
scipy's Python layer and through ``array_api_compat`` numpy.f2py and
numpy.testing: about 0.15-0.2 s and 20-25 MB in every process, more than
the rest of ``import switchcert``.  They are the files scipy's packages
import, so the routines are the same compiled objects and the results
the same bits.  Where scipy was imported first its modules are reused,
and a later ``import scipy.linalg`` or ``import scipy.sparse`` works as
usual.  A missing file raises an ImportError that names the module and
the directory searched.

``solve`` runs the attempt with every loaded OpenBLAS on one thread and
restores the caller's thread counts when it returns or raises.  numpy and
scipy each bundle their own OpenBLAS, and one iteration alternates between
them (numpy's gemms, Cholesky and eigvalsh, scipy's LAPACK routines above);
each library's idle workers spin and take the CPUs the other needs, so on
a 2-CPU machine two threads per library made the solve about twice as slow
as one.  One thread also fixes the order of the solver's
BLAS reductions, so its solutions, and with them the certificate texts of
the bundled systems, do not depend on the caller's thread count.
Where no OpenBLAS is found (another BLAS, or no ``/proc/self/maps``) the
thread counts are left alone.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg


def _scipy_extension(package: str, name: str):
    """The compiled module scipy.<package>.<name>, loaded from its file
    without importing a scipy package, or the module scipy holds if it was
    imported first.  A single-phase extension enters itself in sys.modules
    as it loads; that entry, without its parent package, would keep a later
    ``import scipy.<package>`` from binding the attribute, so it is
    removed, and only that one."""
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"cannot load {fullname}: scipy is not installed",
                          name=fullname)
    directory = os.path.join(spec.submodule_search_locations[0], package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"cannot load {fullname}: no compiled module "
                          f"{name} in {directory}", name=fullname)
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(fullname, path, loader=loader))
    loader.exec_module(module)
    if sys.modules.get(fullname) is module:
        del sys.modules[fullname]
    return module


_sparsetools = _scipy_extension("sparse", "_sparsetools")
_flapack = _scipy_extension("linalg", "_flapack")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs
dpotrs, dtrtrs = _flapack.dpotrs, _flapack.dtrtrs

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_FAILURE = "numerical-failure"

MAX_ITERATIONS = 20000
STEP_SCALE = 0.98                     # fraction of the step to the cone edge
TOL = 1e-7                            # residuals and gap of convergence
RELAXED_TOL = 1e-6                    # residual and gap of a stopped point
PSD_TOL = 1e-8                        # smallest eigenvalue accepted as PSD
RAY_TOL = 1e-8                        # relative residual of a Farkas ray
DEPENDENT_SHIFT = 1e-8                # KKT diagonal shift, dependent rows only
SPLIT_WIDTH = 30                      # narrowest block solved as its components
_MU_FLOOR = "tolerances unreachable in double precision"
_UNBOUNDED = "primal appears unbounded (dual infeasibility ray detected)"
_SINGULAR = "singular Newton system"


class _ConstraintEntries(NamedTuple):
    """Sparse symmetric entries of one constraint in one block (i <= j)."""

    block: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class SdpProblem:
    block_sizes: tuple
    n_free: int
    rhs: np.ndarray                      # (m,)
    entries: tuple                       # tuple over constraints of tuples of _ConstraintEntries
    free_rows: tuple                     # per constraint: (idx array, val array)
    obj_free: np.ndarray                 # (n_free,)

    @property
    def m(self) -> int:
        return len(self.rhs)


class SdpProblemBuilder:
    """Incremental assembly of an SdpProblem with sparse symmetric entries.

    Every row passes one rule, on arrays (``_rule``): an entry (i, j) is
    stored as (min, max), so with i <= j; entries at the same place of one
    row and block are summed in the order given, from 0.0; an entry or free
    coefficient that sums to 0.0 is dropped; and each row's entries are
    sorted by (block, i, j), its free coefficients by index.
    ``add_constraint`` (one row as dicts, as the tests pose it),
    ``add_rows`` (many rows as arrays, as ``sosprog.encode`` and
    ``read_sdpa`` pose them, each in one call) and the block objectives of
    ``build`` (in one call) all go through it.  The free coefficients are
    sorted with the entries, as one more block after the PSD blocks."""

    def __init__(self, block_sizes: Sequence[int], n_free: int = 0):
        if not block_sizes:
            raise ValueError("need at least one PSD block")
        self.block_sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        self.n_free = int(n_free)
        self._sizes = np.array(self.block_sizes, dtype=np.intp)
        self._side = max(self.block_sizes)
        self._rows = []
        self._block_objectives = {}
        self._obj_free = np.zeros(self.n_free)

    def _block_size(self, block: int) -> int:
        if not 0 <= block < len(self.block_sizes):
            raise ValueError(f"block index {block} out of range "
                             f"0..{len(self.block_sizes) - 1}")
        return self.block_sizes[block]

    def set_objective_block(self, block: int, M: np.ndarray):
        """Add <M, X_block> to the objective, as ``build`` poses it: one
        more free scalar and one more equality."""
        M = np.asarray(M, dtype=float)
        s = self._block_size(block)
        if M.shape != (s, s) or not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("objective block must be symmetric of block size")
        self._block_objectives[block] = 0.5 * (M + M.T)

    def set_objective_free(self, vec: Sequence[float]):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_free,):
            raise ValueError("objective length must match free variable count")
        self._obj_free = vec.copy()

    def add_constraint(self, rhs: float, block_entries=None, free_entries=None):
        """block_entries: {block: [(i, j, value), ...]}, value is the full
        symmetric entry A[i,j] = A[j,i]; free_entries: {index: value}."""
        ents = [(b, i, j, v) for b, triplets in (block_entries or {}).items()
                for i, j, v in triplets]
        block, i, j, vals = zip(*ents) if ents else ((), (), (), ())
        free = (free_entries or {}).items()
        fidx, fvals = zip(*free) if free else ((), ())
        self._rows += self._rule(
            [rhs], (np.zeros(len(ents), dtype=np.intp), block, i, j, vals),
            (np.zeros(len(fidx), dtype=np.intp), fidx, fvals), self.n_free)

    def add_rows(self, rhs, entries, free):
        """Append len(rhs) equalities at once.  entries = (row, block, i, j,
        value) and free = (row, index, value) are equal-length arrays, row
        counting the new rows from 0; value is the full symmetric entry."""
        self._rows += self._rule(rhs, entries, free, self.n_free)

    def _rule(self, rhs, entries, free, n_free) -> list:
        """The rows (rhs, entries, (free indices, values)) of the data, over
        n_free scalars, by the one row rule of the class docstring."""
        nb = len(self.block_sizes)
        row, block, i, j = (np.asarray(a, dtype=np.intp) for a in entries[:4])
        frow, fidx = (np.asarray(a, dtype=np.intp) for a in free[:2])
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # as unsigned, a negative index is out of range above
        if np.count_nonzero(block.view(np.uintp) >= nb):
            self._block_size(int(block[(block < 0) | (block >= nb)].min()))
        if np.count_nonzero(lo < 0) or np.count_nonzero(
                hi >= self._sizes[block]):
            raise ValueError("entry index out of range")
        if np.count_nonzero(fidx.view(np.uintp) >= n_free):
            raise ValueError("free variable index out of range")
        # one key per place, row-major, the free scalars at (0, index) of
        # one more block, nb: key order is (row, block, i, j) order, and
        # i, j and row * (nb + 1) + block are read back off the summed keys
        side = max(self._side, n_free)
        key, vals = _summed(
            np.concatenate([((row * (nb + 1) + block) * side + lo) * side + hi,
                            (frow * (nb + 1) + nb) * (side * side) + fidx]),
            np.concatenate([entries[4], free[2]]))
        place, j = np.divmod(key, side)
        place, i = np.divmod(place, side)
        start = [0, *((place[1:] != place[:-1]).nonzero()[0] + 1).tolist()] \
            if len(key) else []
        per_row = [[] for _ in range(len(rhs))]
        per_free = [(np.zeros(0, dtype=np.intp), np.zeros(0))] * len(rhs)
        for p, a, z in zip(place[start].tolist(), start,
                           start[1:] + [len(key)]):
            # each row's entries are views of one run of the sorted arrays
            r, b = divmod(p, nb + 1)
            if b < nb:
                per_row[r].append(
                    _ConstraintEntries(b, i[a:z], j[a:z], vals[a:z]))
            else:
                per_free[r] = (j[a:z], vals[a:z])
        return list(zip(np.asarray(rhs, dtype=float).tolist(),
                        map(tuple, per_row), per_free))

    def build(self) -> SdpProblem:
        """The problem, each block objective C_b posed as a free scalar t_b
        after the caller's, with objective coefficient 1, and the row
        <C_b, X_b> - t_b = 0 after the caller's rows."""
        objectives = sorted(self._block_objectives.items())
        rows, n_free = list(self._rows), self.n_free + len(objectives)
        if objectives:
            parts = []
            for r, (block, C) in enumerate(objectives):
                i, j = np.triu_indices(len(C))
                parts.append((np.full(len(i), r), np.full(len(i), block),
                              i, j, C[i, j]))
            count = len(objectives)
            rows += self._rule(
                np.zeros(count), [np.concatenate(a) for a in zip(*parts)],
                (np.arange(count), np.arange(self.n_free, n_free),
                 np.full(count, -1.0)), n_free)
        rhs, entries, free_rows = zip(*rows) if rows else ((), (), ())
        return SdpProblem(
            block_sizes=self.block_sizes,
            n_free=n_free,
            rhs=np.array(rhs, dtype=float),
            entries=entries,
            free_rows=free_rows,
            obj_free=np.concatenate(
                [self._obj_free, np.ones(n_free - self.n_free)]),
        )


def _summed(key, vals) -> tuple:
    """The distinct keys, ascending, and each one's sum of its values in
    the order given, from 0.0 (a stable sort, then bincount, which adds in
    its input order); a key whose values sum to 0.0 is dropped."""
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    # bin 0 stays empty: the k-th distinct key's values add into bin k
    sums = np.bincount(first.cumsum(),
                       weights=np.asarray(vals, dtype=float)[order])[1:]
    key = key[first]
    if np.count_nonzero(sums) < len(sums):
        live = sums != 0.0
        key, sums = key[live], sums[live]
    return key, sums


@dataclass
class SdpSolution:
    status: str
    blocks: list | None
    free: np.ndarray | None
    objective: float | None
    dual_objective: float | None
    primal_residual: float
    min_eigenvalues: list | None
    iterations: int
    message: str = ""
    certificate: dict | None = None
    # per posed block, the sizes of the blocks it was solved as (one part
    # unless SPLIT_WIDTH split it); None when no iteration ran
    solved_sizes: tuple | None = None

    @property
    def feasible(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_FEASIBLE)


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return float(_eigvalsh(0.5 * (M + M.T))[0])


# -- direct kernels ------------------------------------------------------------


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _not_converged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _cholesky(*Ms) -> list:
    """np.linalg.cholesky's lower factors of each float matrix or stack of
    matrices, in order, by the gufunc it calls and under one error state,
    its own: a failed factorisation raises its LinAlgError, and nothing
    warns."""
    with np.errstate(call=_not_positive_definite, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return [_umath_linalg.cholesky_lo(M, signature="d->d") for M in Ms]


def _eigvalsh(M) -> np.ndarray:
    """np.linalg.eigvalsh of a symmetric float matrix or of each matrix of
    a stack, ascending, by the gufunc it calls and under its error
    state."""
    with np.errstate(call=_not_converged, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigvalsh_lo(M, signature="d->d")


# A CSR matrix as the arrays scipy.sparse holds and hands to sparsetools.
_Csr = namedtuple("_Csr", "shape indptr indices data")
_INT32_MAX = int(np.iinfo(np.int32).max)


def _csr(rows, cols, vals, shape) -> _Csr:
    """The CSR matrix of the given entries, each row in the given order,
    with the index type scipy.sparse would pick: int32 while the shape and
    the entry count fit."""
    fits = max(*shape, len(vals)) <= _INT32_MAX
    index = np.int32 if fits else np.int64
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return _Csr(shape, indptr, cols[order].astype(index), vals[order])


def _csr_rows(op: _Csr, lo, hi, width, shift) -> _Csr:
    """Rows lo to hi of a CSR record as one of the given width, its column
    indices less shift: the record _csr builds of those rows' entries."""
    start, stop = op.indptr[lo], op.indptr[hi]
    return _Csr((int(hi - lo), width), op.indptr[lo:hi + 1] - start,
                op.indices[start:stop] - op.indices.dtype.type(shift),
                op.data[start:stop])


def _matmul(op: _Csr, x: np.ndarray) -> np.ndarray:
    """op @ x for a vector or an (N, k) matrix x, as scipy.sparse forms
    it: the sparsetools kernel (csr_matvec for a vector or one column,
    csr_matvecs otherwise) adds the products row by row into a zeroed
    output, so the result is the same bits.  The kernels read x unchecked,
    so its length is checked here, as scipy.sparse checks it."""
    (M, N), indptr, indices, data = op
    if x.shape[0] != N:
        raise ValueError(f"matmul: {x.shape[0]} rows against {N} columns")
    if x.ndim == 1 or x.shape[1] == 1:
        out = np.zeros(M)
        csr_matvec(M, N, indptr, indices, data, x.ravel(), out)
        return out if x.ndim == 1 else out.reshape(M, 1)
    out = np.zeros((M, x.shape[1]))
    csr_matvecs(M, N, x.shape[1], indptr, indices, data, x.ravel(),
                out.ravel())
    return out


# -- interior-point core -------------------------------------------------------


def _sym(M):
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + M.mT)


def _size_groups(sizes) -> list:
    """The blocks grouped by size, in order of first appearance, as
    (size, block indices) pairs."""
    groups = {}
    for b, s in enumerate(sizes):
        groups.setdefault(s, []).append(b)
    return [(s, np.array(idx, dtype=np.intp)) for s, idx in groups.items()]


def _components(s, row, col) -> list:
    """The connected components of the pattern of entries (row, col) on
    the indices 0..s-1, each as its ascending index array, in order of
    their smallest index.  Boolean squaring of the reach matrix closes it
    in about log2(s) products; each index's smallest reachable index
    labels its component."""
    reach = np.eye(s, dtype=bool)
    reach[row, col] = reach[col, row] = True
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    label = reach.argmax(axis=1)
    return [np.flatnonzero(label == first) for first in np.unique(label)]


def _split_blocks(sizes, block, row, col):
    """The blocks as solved and the entries on them, as
    (solved, parts, block, row, col): a posed block at least SPLIT_WIDTH
    wide is solved as the components of its entries' pattern, in its
    place, a narrower one whole; solved holds their sizes in order,
    parts[b] the (solved block, posed indices) pairs of posed block b, and
    the entries are renumbered onto the solved blocks.  Only the entries
    of a wide block are read and renumbered."""
    solved, parts, first = [], [], []
    part = np.zeros(len(block), dtype=np.intp)   # each entry's part
    row, col = row.copy(), col.copy()
    for b, s in enumerate(sizes):
        first.append(len(solved))
        comps = [np.arange(s)]
        if s >= SPLIT_WIDTH:
            mine = np.flatnonzero(block == b)
            comps = _components(s, row[mine], col[mine])
            part_of, place = np.empty((2, s), dtype=np.intp)
            for k, idx in enumerate(comps):
                part_of[idx], place[idx] = k, np.arange(len(idx))
            part[mine] = part_of[row[mine]]
            row[mine], col[mine] = place[row[mine]], place[col[mine]]
        parts.append([(len(solved) + k, idx) for k, idx in enumerate(comps)])
        solved += [len(idx) for idx in comps]
    block = np.array(first, dtype=np.intp)[block] + part
    return tuple(solved), parts, block, row, col


def _scaled_constraints(problem):
    """The constraints scaled to unit Frobenius norm, on the blocks as
    solved (``_split_blocks``), as
    (norm, scale, D, rows, A, stack, opA, opAt, sizes, parts): the
    Frobenius norm of each constraint (A_j, d_j) and its scale, the dense
    (m, n_free) free-scalar coefficients, per solved block b
    - rows[b], the m_b constraints that touch the block;
    - A[b], their A_j as the rows of an (m_b, s^2) CSR record on vec(X_b);
    - stack[b], the same A_j as an (s m_b, s) CSR whose row (i, k) is row i
      of the k-th, so that stack[b] @ M lays the A_j M side by side as an
      (s, m_b s) array;

    on the per-size stacks laid end to end, opA, the A[b] as one
    block-diagonal CSR whose rows are the rows[b] in turn, and opAt, its
    transpose on all m constraints; and the solved block sizes and the
    parts of each posed block."""
    m = problem.m
    ents = [(j, ent) for j, per_con in enumerate(problem.entries)
            for ent in per_con]
    counts = [len(ent.vals) for _, ent in ents]
    no_index = [np.zeros(0, dtype=np.intp)]  # np.concatenate needs one array
    con = np.repeat(np.array([j for j, _ in ents], dtype=np.intp), counts)
    block = np.repeat(np.array([ent.block for _, ent in ents], dtype=np.intp),
                      counts)
    row = np.concatenate(no_index + [ent.rows for _, ent in ents])
    col = np.concatenate(no_index + [ent.cols for _, ent in ents])
    val = np.concatenate([np.zeros(0)] + [ent.vals for _, ent in ents])
    fcon = np.repeat(np.arange(m), [len(idx) for idx, _ in problem.free_rows])
    fidx = np.concatenate(no_index + [idx for idx, _ in problem.free_rows])
    fval = np.concatenate([np.zeros(0)]
                          + [vals for _, vals in problem.free_rows])

    # an off-diagonal entry stands for itself and its mirror image
    weight = np.where(row != col, 2.0, 1.0)

    def norms(peak):
        """Per row, peak times the norm of the entries divided by peak."""
        fro2 = np.bincount(con, weights=weight * (val / peak[con]) ** 2,
                           minlength=m)
        return peak * np.sqrt(fro2 + np.bincount(
            fcon, weights=(fval / peak[fcon]) ** 2, minlength=m))

    with np.errstate(over="ignore"):
        norm = norms(np.ones(m))
    big = np.isinf(norm)
    if big.any():
        # the squares overflow above about 1e154: such a row is divided by
        # its largest magnitude first, and every other row keeps its bits
        peak = np.zeros(m)
        np.maximum.at(peak, np.r_[con, fcon], np.abs(np.r_[val, fval]))
        norm = norms(np.where(big, peak, 1.0))
    scale = 1.0 / np.maximum(norm, 1e-12)
    val = val * scale[con]
    D = np.zeros((m, problem.n_free))
    D[fcon, fidx] = fval * scale[fcon]

    solved, parts, block, row, col = _split_blocks(problem.block_sizes,
                                                   block, row, col)
    # where each block's vec(X_b) starts in the stacks laid end to end
    offset, n = [0] * len(solved), 0
    for s, idx in _size_groups(solved):
        for b in idx.tolist():
            offset[b], n = n, n + s * s
    offset = np.array(offset)
    sizes = np.array(solved)

    # every entry, then the mirror image of every off-diagonal one, sorted
    # by block with a block's entries before its mirror images
    off = row != col
    s = sizes[block]
    keep = np.argsort(np.concatenate([2 * block, 2 * block[off] + 1]),
                      kind="stable")
    block = np.concatenate([block, block[off]])[keep]
    j = np.concatenate([con, con[off]])[keep]
    vec = np.concatenate([row * s + col, (col * s + row)[off]])[keep]
    v = np.concatenate([val, val[off]])[keep]
    s = sizes[block]
    # opA has one row per block and touching constraint, block by block
    touching, k = np.unique(block * m + j, return_inverse=True)
    first = np.searchsorted(touching // m, np.arange(len(sizes) + 1))
    mb = first[1:] - first[:-1]
    flat = offset[block] + vec
    opA = _csr(k, flat, v, (len(touching), n))
    opAt = _csr(flat, j, v, (n, m))
    # the stack records one after another, entry (i, k) of block b in row
    # top[b] + i m_b + k
    top = np.concatenate([[0], np.cumsum(sizes * mb)])
    stacks = _csr(top[block] + (vec // s) * mb[block] + k - first[block],
                  vec % s, v, (int(top[-1]), int(sizes.max())))

    touching %= m
    rows, A, stack = [], [], []
    for b, s in enumerate(sizes.tolist()):
        lo, hi = first[b], first[b + 1]
        rows.append(touching[lo:hi])
        A.append(_csr_rows(opA, lo, hi, s * s, offset[b]))
        stack.append(_csr_rows(stacks, top[b], top[b + 1], s, 0))
    return norm, scale, D, rows, A, stack, opA, opAt, solved, parts


class _Embedding:
    """Homogeneous self-dual iteration state on the scaled problem data,
    on the blocks as solved (``_split_blocks``), each matrix quantity one
    stack per entry of ``groups``."""

    def __init__(self, problem: SdpProblem):
        con_norm, self.con_scale, self.D, self.rows, self.A, self.stack, \
            self._opA, self._opAt, self.sizes, self.parts = \
            _scaled_constraints(problem)
        self.posed_sizes = problem.block_sizes
        self.groups = _size_groups(self.sizes)
        # per block, its stack and its index in that stack
        self._place = [None] * len(self.sizes)
        for group, (_, idx) in enumerate(self.groups):
            for k, b in enumerate(idx.tolist()):
                self._place[b] = (group, k)
        self.m = problem.m
        self.f = problem.n_free
        self.nu = sum(self.sizes)
        self._opA_rows = np.concatenate(self.rows)
        # where each block's part of the Schur complement lands in B
        # flattened, the blocks' parts laid end to end in block order
        self.schur_index = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [(rows[:, None] * self.m + rows).ravel() for rows in self.rows])
        # the slice of opAt's result that holds each stack
        self._spans, end = [], 0
        for s, idx in self.groups:
            start, end = end, end + len(idx) * s * s
            self._spans.append((slice(start, end), (len(idx), s, s)))
        self.b = problem.rhs * self.con_scale
        # the normaliser 1 + max(|b_j|, ||A_j||_F) of the reported residual
        self.res_norm = 1.0 + np.maximum(np.abs(problem.rhs), con_norm)

        self.obj_scale = 1.0 / max(
            1.0, np.sqrt(float(np.sum(problem.obj_free ** 2))))
        self.g = problem.obj_free * self.obj_scale

        # largest data entries, the scales of the convergence measures
        self.max_abs_b = float(np.max(np.abs(self.b))) if self.m else 0.0
        self.max_abs_g = float(np.max(np.abs(self.g))) if self.f else 0.0

        # start at the identity point
        self.X = [np.eye(s)[None].repeat(len(idx), axis=0)
                  for s, idx in self.groups]
        self.S = [X.copy() for X in self.X]
        self.y = np.zeros(problem.m)
        self.u = np.zeros(self.f)
        self.tau = 1.0
        self.kappa = 1.0

    def unstack(self, stacks) -> list:
        """The matrices of per-size stacks, as one list in block order."""
        return [stacks[group][k] for group, k in self._place]

    def posed(self, blocks) -> list:
        """The posed blocks of a list of solved ones, 0.0 between the
        parts of a split block."""
        out = []
        for s, part in zip(self.posed_sizes, self.parts):
            M = np.zeros((s, s))
            for k, idx in part:
                M[idx[:, None], idx] = blocks[k]
            out.append(M)
        return out

    def inner(self, As, Bs) -> float:
        """sum_b <A_b, B_b> over per-size stacks, the blocks' sums added in
        block order."""
        dots = np.empty(len(self.sizes))
        for (_, idx), A, B in zip(self.groups, As, Bs):
            dots[idx] = (A * B).sum(axis=(1, 2))
        return sum(dots.tolist())

    # -- linear operators --

    def opA(self, Xs) -> np.ndarray:
        """A(X), each block's part added into its rows in block order:
        bincount adds its weights into zeros in the order given."""
        return np.bincount(self._opA_rows, minlength=self.m, weights=_matmul(
            self._opA, np.concatenate(Xs, axis=None)))

    def opAt(self, y) -> list:
        flat = _matmul(self._opAt, y)
        return [flat[span].reshape(shape) for span, shape in self._spans]

    # -- residuals of the embedding equations (all should go to zero) --

    def residuals(self):
        E1 = self.opA(self.X) + (self.D @ self.u if self.f else 0.0) \
            - self.b * self.tau
        E2 = [At_y + S for At_y, S in zip(self.opAt(self.y), self.S)]
        E3 = self.D.T @ self.y - self.g * self.tau
        E4 = float(self.g @ self.u) - float(self.b @ self.y) + self.kappa
        return E1, E2, E3, E4

    def mu(self) -> float:
        return (self.inner(self.X, self.S) + self.tau * self.kappa) \
            / (self.nu + 1)

    def advance(self, alpha: float, d) -> float:
        """Take the step; returns the factor the iterate was rescaled by."""
        self.X = [_sym(X + alpha * dX) for X, dX in zip(self.X, d.dX)]
        self.S = [_sym(S + alpha * dS) for S, dS in zip(self.S, d.dS)]
        self.y += alpha * d.dy
        self.u += alpha * d.du
        self.tau += alpha * d.dtau
        self.kappa += alpha * d.dkappa

        # the embedding is positively homogeneous: renormalise the iterate
        # when magnitudes threaten double-precision range
        peak = max(self.tau, self.kappa,
                   max(float(np.abs(X).max()) for X in self.X),
                   max(float(np.abs(S).max()) for S in self.S),
                   float(np.abs(self.y).max()) if self.m else 0.0,
                   float(np.abs(self.u).max()) if self.f else 0.0)
        if not peak > 1e8:
            return 1.0
        inv = 1.0 / peak
        for X, S in zip(self.X, self.S):
            X *= inv
            S *= inv
        self.y *= inv
        self.u *= inv
        self.tau *= inv
        self.kappa *= inv
        return inv


def _independent_constraints(emb, B) -> bool:
    """Whether the scaled constraint rows (A_j, d_j) are linearly
    independent, judged by the Cholesky factor of their Gram matrix
    B + D D^T, B the first iteration's Schur complement: at X = S = I it is
    sum_b A_b A_b^T.  Its diagonal is one, so dependent rows leave a pivot
    at rounding level, or none at all when the factorisation fails; with
    dependent rows the unshifted KKT matrix is singular."""
    try:
        L, = _cholesky(B + emb.D @ emb.D.T)
    except np.linalg.LinAlgError:
        return False
    return float(np.min(np.diag(L))) ** 2 > emb.m * np.finfo(float).eps


class _Breakdown(Exception):
    """A phase of the iteration broke down; the text is the solve's message."""


def _finite(a) -> bool:
    """Whether every entry of a is finite, by the reduction that
    ``ndarray.all`` calls, without its Python wrapper."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _check_finite(*arrays):
    """The input check of scipy.linalg's wrappers, with their ValueError,
    which ``solve`` reports as a linear algebra failure."""
    for a in arrays:
        if not _finite(a):
            raise ValueError("array must not contain infs or NaNs")


def _check_info(name, info):
    """The wrappers' error for an illegal argument to a LAPACK routine."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")


# One iteration's factorised Newton system: K = [[B, D], [D^T, 0]] plus the
# diagonal shift, with the Schur complement B.  q = K^-1 (b, g) does not
# depend on the direction, so predictor and corrector share it.
_NewtonSystem = namedtuple("_NewtonSystem", "Lx Ls Sinv K lu q shift")
_Direction = namedtuple("_Direction", "dX du dy dS dtau dkappa")


def _cone_factors(emb):
    """Cholesky factors Lx, Ls of X and S, and S^-1, per size stack; each
    S^-1 keeps the Fortran order dpotrs returns, for the gemms."""
    try:
        factors = _cholesky(*emb.X, *emb.S)
    except np.linalg.LinAlgError:
        raise _Breakdown("cone factorisation failed") from None
    Lx, Ls = factors[:len(emb.X)], factors[len(emb.X):]
    Sinv = []
    for L in Ls:
        _check_finite(L)
        eye = np.eye(L.shape[-1])
        transposed = np.empty_like(L)
        for Lb, Tb in zip(L, transposed):
            Si, info = dpotrs(Lb, eye, lower=1)
            _check_info("dpotrs", info)
            Tb[...] = Si.T
        Sinv.append(transposed.mT)
    return Lx, Ls, Sinv


def _schur(emb, Sinv):
    """Schur complement B[j,k] = <A_j, X A_k S^-1>.

    Each block adds only to the rows and columns of the constraints that
    touch it: one sparse product gives every A_k S^-1, one gemm every
    X A_k S^-1, and one sparse product their inner products with the A_j.
    The blocks' parts are added into B in one bincount over
    ``emb.schur_index``, which adds into zeros in block order, as one
    ``B[ix] +=`` per block would."""
    parts = [np.zeros(0)]
    for s, rows, A, stack, X, Si in zip(
            emb.sizes, emb.rows, emb.A, emb.stack,
            emb.unstack(emb.X), emb.unstack(Sinv)):
        mb = len(rows)
        if not mb:
            continue
        F = X @ _matmul(stack, Si).reshape(s, mb * s)
        F = F.reshape(s, mb, s).transpose(0, 2, 1).reshape(s * s, mb)
        parts.append(_matmul(A, F).ravel())
    B = np.bincount(emb.schur_index, weights=np.concatenate(parts),
                    minlength=emb.m * emb.m)
    return _sym(B.reshape(emb.m, emb.m))


def _newton_system(emb, Lx, Ls, Sinv, shift) -> _NewtonSystem:
    """Build the KKT matrix, its diagonal shifted by +shift on the
    constraint rows and -shift on the free scalars, LU-factor it, and
    solve for q.  A shift of None, on the first iteration, is decided here:
    DEPENDENT_SHIFT when the constraint rows are dependent, else 0."""
    m, f = emb.m, emb.f
    B = _schur(emb, Sinv)
    if shift is None:
        shift = 0.0 if _independent_constraints(emb, B) else DEPENDENT_SHIFT
    K = np.zeros((m + f, m + f))
    K[:m, :m] = B
    K[:m, m:] = emb.D
    K[m:, :m] = emb.D.T
    if shift:
        K[:m, :m] += shift * np.eye(m)
        K[m:, m:] -= shift * np.eye(f)
    try:
        _check_finite(K)
        # an exactly singular K (info > 0) is found by the solves instead
        lu, piv, info = dgetrf(K)
        _check_info("dgetrf", info)
    except ValueError:
        raise _Breakdown("KKT factorisation failed") from None
    q = _kkt_solve(K, (lu, piv), np.concatenate([emb.b, emb.g]))
    return _NewtonSystem(Lx, Ls, Sinv, K, (lu, piv), q, shift)


def _lu_solve(lu, rhs):
    """K^-1 rhs from the factors (lu, piv) of dgetrf, unchecked for
    non-finite input as the solver's lu_solve calls always were."""
    x, info = dgetrs(*lu, rhs)
    _check_info("dgetrs", info)
    return x


def _kkt_solve(K, lu, rhs):
    """LU solve with one pass of iterative refinement; a singular K is a
    breakdown, found before the refinement can fail on its input."""
    sol = _lu_solve(lu, rhs)
    if _finite(sol):
        with np.errstate(over="ignore", invalid="ignore"):
            sol += _lu_solve(lu, rhs - K @ sol)
    if not _finite(sol):
        raise _Breakdown(_SINGULAR)
    return sol


def _direction(emb, E, newton, eta, tc, corrM, corr_tk) -> _Direction:
    """Solve the Newton equations of the embedding for one right-hand side.

    The residuals E are scaled by eta; tc is the centring target and
    corrM, corr_tk are the second-order corrections (None and 0 in the
    predictor)."""
    E1, E2, E3, E4 = E
    m = emb.m
    G = [tc * Si - X + eta * _sym(X @ E2b @ Si)
         for X, E2b, Si in zip(emb.X, E2, newton.Sinv)]
    if corrM is not None:
        G = [Gb - C for Gb, C in zip(G, corrM)]
    e0 = (tc - emb.tau * emb.kappa - corr_tk) / emb.tau
    h1 = -eta * E1 - emb.opA(G)
    h3 = -eta * E4 - e0

    p = _kkt_solve(newton.K, newton.lu, np.concatenate([h1, -eta * E3]))
    q = newton.q
    den = float(emb.g @ q[m:]) - float(emb.b @ q[:m]) - emb.kappa / emb.tau
    num = h3 + float(emb.b @ p[:m]) - float(emb.g @ p[m:])
    if abs(den) < 1e-300:
        raise _Breakdown(_SINGULAR)
    dtau = num / den
    dy = p[:m] + dtau * q[:m]
    du = p[m:] + dtau * q[m:]
    dS = [-eta * E2b - At_dy for E2b, At_dy in zip(E2, emb.opAt(dy))]
    M = [tc * Si - X - _sym(X @ dSb @ Si)
         for X, dSb, Si in zip(emb.X, dS, newton.Sinv)]
    if corrM is not None:
        M = [Mb - C for Mb, C in zip(M, corrM)]
    dX = [_sym(Mb) for Mb in M]
    dkappa = e0 - (emb.kappa / emb.tau) * dtau
    return _Direction(dX, du, dy, dS, dtau, dkappa)


def _search_direction(emb, E, mu, newton) -> _Direction:
    """Mehrotra predictor-corrector: the affine direction sets the
    centring sigma, the corrector adds its second-order terms."""
    pred = _direction(emb, E, newton, 1.0, 0.0, None, 0.0)
    alpha = min(1.0, _max_step(emb, newton, pred))
    dot = emb.inner([X + alpha * dX for X, dX in zip(emb.X, pred.dX)],
                    [S + alpha * dS for S, dS in zip(emb.S, pred.dS)])
    mu_aff = (dot + (emb.tau + alpha * pred.dtau)
              * (emb.kappa + alpha * pred.dkappa)) / (emb.nu + 1)
    sigma = min(max((mu_aff / mu) ** 3, 1e-10), 0.99999)
    corrM = [_sym(dX @ dS @ Si)
             for dX, dS, Si in zip(pred.dX, pred.dS, newton.Sinv)]
    return _direction(emb, E, newton, 1.0 - sigma, sigma * mu, corrM,
                      pred.dtau * pred.dkappa)


def _lower_solve(L, B):
    """L^-1 B for numpy's C-ordered lower Cholesky factor L.  LAPACK reads
    L in Fortran order as the upper triangular L^T, so the solve is with
    its transpose, as in scipy's solve_triangular."""
    X, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    _check_info("dtrtrs", info)
    return X


def _max_step_psd(L, dM) -> float:
    """Largest alpha with M + alpha*dM PSD for every M = L L^T of a stack,
    via the smallest eigenvalues of L^-1 dM L^-T.  The triangular solves
    run per matrix, as dtrtrs has no stacked form."""
    _check_finite(L, dM)
    W = np.empty_like(dM)
    for Lb, dMb, Wb in zip(L, dM, W):
        Wb[...] = _lower_solve(Lb, dMb)
    _check_finite(W)
    for Lb, Wb in zip(L, W):
        Wb[...] = _lower_solve(Lb, Wb.T).T
    # -1/lam rises with lam < 0, so the stack's smallest eigenvalue bounds
    # its step; fmin passes over a NaN, which bounds no step
    lam = float(np.fmin.reduce(_eigvalsh(_sym(W))[:, 0]))
    if not lam < -1e-16:
        return np.inf
    return -1.0 / lam


def _max_step(emb, newton, d) -> float:
    """Largest step along d that keeps X, S, tau and kappa in their cones;
    the X and S blocks of one size are searched as one stack."""
    alpha = np.inf
    for Lx, Ls, dX, dS in zip(newton.Lx, newton.Ls, d.dX, d.dS):
        alpha = min(alpha, _max_step_psd(np.concatenate((Lx, Ls)),
                                         np.concatenate((dX, dS))))
    if d.dtau < 0:
        alpha = min(alpha, -emb.tau / d.dtau)
    if d.dkappa < 0:
        alpha = min(alpha, -emb.kappa / d.dkappa)
    return alpha


def _step_length(emb, newton, d) -> float:
    alpha = min(1.0, STEP_SCALE * _max_step(emb, newton, d))
    if not np.isfinite(alpha) or alpha <= 1e-10:
        raise _Breakdown("step size collapsed")
    return alpha


def _primal_residual(emb, E1) -> float:
    """max_j |<A_j,X> + d_j.u - b_j| / (1 + max(|b_j|, ||A_j||_F)) at the
    original-scale point (X, u) / tau, read off the residual E1 of the
    scaled data, whose row j is the original row times con_scale[j].

    Row-normalised so the value is meaningful for badly scaled rows."""
    return float((np.abs(E1) / (emb.tau * emb.con_scale)
                  / emb.res_norm).max())


def _converged(emb, E) -> bool:
    """Whether the residuals and gap are within TOL on the scaled data, and
    the primal residual on the original data within TOL."""
    E1, E2, E3, _ = E
    tau = emb.tau
    pres = float(np.abs(E1).max()) / tau / (1.0 + emb.max_abs_b)
    dres = max(float(np.abs(Eb).max()) for Eb in E2) / tau
    gres = (float(np.abs(E3).max()) / tau / (1.0 + emb.max_abs_g)) \
        if emb.f else 0.0
    pobj = float(emb.g @ emb.u) / tau
    dobj = float(emb.b @ emb.y) / tau
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return max(pres, dres, gres, gap, _primal_residual(emb, E1)) <= TOL


def _ray_verdict(emb):
    """(status, message, certificate) once tau has collapsed against kappa
    on a ray or ambiguously, else None.

    The ray quality bar RAY_TOL is fixed, not loosened with RELAXED_TOL,
    so a marginal ray degrades to numerical-failure; being relative to
    b.y, it can still pass a feasible problem (module docstring)."""
    by = float(emb.b @ emb.y)
    if by > 0:
        ray_res = max(float(np.max(np.abs(At_y + S)))
                      for At_y, S in zip(emb.opAt(emb.y), emb.S))
        ray_res = max(ray_res,
                      float(np.max(np.abs(emb.D.T @ emb.y))) if emb.f else 0.0)
        if ray_res <= RAY_TOL * by:
            certificate = {"ray_y": emb.y / by * emb.con_scale}
            return (STATUS_INFEASIBLE,
                    "Farkas ray found (dual improving direction)", certificate)
    neg_obj = -float(emb.g @ emb.u)
    if neg_obj > 0:
        ray_res = float(np.max(np.abs(
            emb.opA(emb.X) + (emb.D @ emb.u if emb.f else 0.0))))
        if ray_res <= RAY_TOL * neg_obj:
            return STATUS_FAILURE, _UNBOUNDED, None
    if emb.tau < 1e-12 * emb.kappa:
        return STATUS_FAILURE, "tau/kappa limit ambiguous", None
    return None


def _failure(message: str) -> SdpSolution:
    """Numerical failure with no iterate to report."""
    return SdpSolution(
        status=STATUS_FAILURE, blocks=None, free=None, objective=None,
        dual_objective=None, primal_residual=np.inf, min_eigenvalues=None,
        iterations=0, message=message)


def _solve(problem: SdpProblem):
    emb = _Embedding(problem)
    shift = None
    message, certificate, verdict = "", None, None
    iterations = stall = 0
    E = emb.residuals()
    mu = last_mu = emb.mu()

    for iterations in range(1, MAX_ITERATIONS + 1):
        try:
            Lx, Ls, Sinv = _cone_factors(emb)
            newton = _newton_system(emb, Lx, Ls, Sinv, shift)
            shift = newton.shift
            d = _search_direction(emb, E, mu, newton)
            alpha = _step_length(emb, newton, d)
        except _Breakdown as exc:
            status, message = STATUS_FAILURE, str(exc)
            break
        scale = emb.advance(alpha, d)
        last_mu *= scale * scale  # mu is degree-2 homogeneous in the iterate

        # residuals and mu of the new iterate serve the checks below and
        # the next iteration
        E = emb.residuals()
        mu = emb.mu()
        if _converged(emb, E):
            status = STATUS_OPTIMAL
            break
        # infeasibility rays become visible as tau collapses against kappa
        if emb.tau < 1e-3 * emb.kappa:
            verdict = _ray_verdict(emb)
            if verdict is not None:
                status, message, certificate = verdict
                break

        stall = stall + 1 if mu > 0.9999 * last_mu else 0
        last_mu = mu
        if stall >= 30:
            status, message = STATUS_FAILURE, "iteration stalled"
            break
        if mu < 1e-6 * TOL ** 2:
            # complementarity is exhausted; nothing further can improve
            status, message = STATUS_FAILURE, _MU_FLOOR
            break
    else:
        status, message = STATUS_FAILURE, "iteration limit reached"

    # assemble the reported solution in original scale
    blocks = free = objective = dual_objective = min_eigs = None
    primal_res = np.inf
    if status != STATUS_INFEASIBLE and emb.tau > 0:
        solved = emb.unstack([X / emb.tau for X in emb.X])
        blocks = emb.posed(solved)
        free = emb.u / emb.tau
        y_out = emb.y / emb.tau * emb.con_scale / emb.obj_scale
        objective = float(emb.g @ emb.u) / (emb.tau * emb.obj_scale)
        dual_objective = float(problem.rhs @ y_out)
        denom = 1.0 + abs(objective) + abs(dual_objective)
        gap = abs(objective - dual_objective) / denom
        eigs = [min_eigenvalue(X) for X in solved]
        min_eigs = [min(eigs[k] for k, _ in part) for part in emb.parts]
        primal_res = _primal_residual(emb, E[0])

        # the residual and gap bar of a point the iteration stopped at short
        # of TOL (a program without objective has no gap to meet), then the
        # one PSD bar of every point reported as a solution
        stopped = status == STATUS_FAILURE and verdict is None \
            and primal_res <= RELAXED_TOL \
            and (gap <= RELAXED_TOL or emb.max_abs_g == 0.0)
        if (status == STATUS_OPTIMAL or stopped) and min(min_eigs) < -PSD_TOL:
            status, message = STATUS_FAILURE, (
                f"point not PSD: smallest block eigenvalue "
                f"{min(min_eigs):.3e} below -{PSD_TOL:g}"
                + (f" ({message})" if message else ""))
        elif stopped:
            status = STATUS_FEASIBLE
            message = f"feasible point accepted ({message})"

    return SdpSolution(
        status=status, blocks=blocks, free=free, objective=objective,
        dual_objective=dual_objective, primal_residual=primal_res,
        min_eigenvalues=min_eigs, iterations=iterations,
        message=message, certificate=certificate,
        solved_sizes=tuple(tuple(len(idx) for _, idx in part)
                           for part in emb.parts))


# thread-count controls exported by OpenBLAS builds: scipy's bundled
# libraries, with and without 64-bit integers, then plain OpenBLAS
_OPENBLAS_CONTROLS = ("scipy_openblas_{}_num_threads64_",
                      "scipy_openblas_{}_num_threads",
                      "openblas_{}_num_threads64_",
                      "openblas_{}_num_threads")


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process, found once: numpy and scipy each bundle their own.
    Empty where the process map cannot be read (not Linux) or no OpenBLAS
    is loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({fields[5].strip() for fields in
                            (line.split(maxsplit=5) for line in maps)
                            if len(fields) == 6
                            and "openblas" in fields[5].rsplit("/", 1)[-1]})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_CONTROLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


class _OneBlasThread:
    """Context manager that holds every loaded OpenBLAS at one thread.

    Solves that overlap, from several threads, share one pin: the first
    to enter saves the caller's thread counts and the last to leave
    restores them."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((put, get())
                                    for get, put in _openblas_controls())
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)


_ONE_BLAS_THREAD = _OneBlasThread()


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP in one attempt, judged once at its end by the rule of
    the module docstring.  The attempt runs with every loaded OpenBLAS on
    one thread, and the caller's thread counts are restored when it ends;
    a linear algebra error in it is reported as numerical failure."""
    if problem.m == 0:
        raise ValueError("problem has no constraints")
    with _ONE_BLAS_THREAD:
        try:
            return _solve(problem)
        except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            return _failure(f"linear algebra failure: {exc}")


# -- SDPA sparse format --------------------------------------------------------


def write_sdpa(problem: SdpProblem, path: str):
    """Dump in SDPA sparse format (.dat-s) for external cross-checks.

    Free scalars are encoded as differences of paired non-negative diagonal
    entries in one extra diagonal block, so the file is solution-equivalent
    rather than structurally identical.
    """
    lines = ['"switchcert SDPA sparse dump"']
    nblocks = len(problem.block_sizes) + (1 if problem.n_free else 0)
    lines.append(str(problem.m))
    lines.append(str(nblocks))
    sizes = [str(s) for s in problem.block_sizes]
    if problem.n_free:
        sizes.append(str(-2 * problem.n_free))
    lines.append(" ".join(sizes))
    lines.append(" ".join(format(v, ".17g") for v in problem.rhs))

    def emit(matno, block, i, j, v):
        lines.append(f"{matno} {block + 1} {i + 1} {j + 1} {format(v, '.17g')}")

    # objective: SDPA maximises tr(F0 Y); our problem minimises, so F0 = -g
    fb = len(problem.block_sizes)
    for k, gk in enumerate(problem.obj_free):
        if gk != 0.0:
            emit(0, fb, 2 * k, 2 * k, -gk)
            emit(0, fb, 2 * k + 1, 2 * k + 1, gk)

    for j in range(problem.m):
        for ent in problem.entries[j]:
            for i, jj, v in zip(ent.rows, ent.cols, ent.vals):
                emit(j + 1, ent.block, int(i), int(jj), float(v))
        idx, vals = problem.free_rows[j]
        for k, v in zip(idx, vals):
            emit(j + 1, fb, 2 * int(k), 2 * int(k), float(v))
            emit(j + 1, fb, 2 * int(k) + 1, 2 * int(k) + 1, -float(v))

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SDPA_SEPARATORS = str.maketrans("{}(),", "     ")


def read_sdpa(path: str) -> SdpProblem:
    """Read an SDPA sparse file as a pure PSD problem.

    Diagonal blocks (negative sizes) are expanded to 1x1 PSD blocks; the
    objective is negated back into minimisation form.  Repeated entries of
    one matrix are summed, in the objective as in the constraints.  Braces,
    parentheses and commas separate values as blanks do, so the vectors of
    SDPLIB files (``{2, 3}``) read as bare ones.  A header line that is
    missing or holds too few values, and an entry line with fewer than five
    fields, raise a ValueError that names the line.
    """
    raw = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0] in '"*':
                continue
            raw.append(line)

    def header(k, what, count, kind):
        """The first count values of header line k."""
        if len(raw) <= k:
            raise ValueError(f"SDPA file ends before its {what} line")
        toks = raw[k].translate(_SDPA_SEPARATORS).split()
        if len(toks) < count:
            raise ValueError(f"SDPA {what} line {raw[k]!r} holds fewer "
                             f"than {count} values")
        return [kind(tok) for tok in toks[:count]]

    m, = header(0, "constraint count", 1, int)
    nblocks, = header(1, "block count", 1, int)
    declared = header(2, "block size", nblocks, int)
    rhs = header(3, "right-hand side", m, float)

    # expand diagonal blocks into singleton PSD blocks
    block_map = []  # per declared block: (offset into expanded list, diag?)
    sizes = []
    for size in declared:
        if size < 0:
            block_map.append((len(sizes), True))
            sizes.extend([1] * (-size))
        else:
            block_map.append((len(sizes), False))
            sizes.append(size)

    # the constraints' entries in file order, so the row rule sums
    # repeated entries in that order
    obj, cons = {}, []
    for line in raw[4:]:
        toks = line.translate(_SDPA_SEPARATORS).split()
        if len(toks) < 5:
            raise ValueError(f"SDPA entry line {line!r} holds fewer than "
                             f"5 fields")
        matno, blk, i, j, v = (int(toks[0]), int(toks[1]) - 1,
                               int(toks[2]) - 1, int(toks[3]) - 1, float(toks[4]))
        if not (0 <= matno <= m and 0 <= blk < nblocks
                and 0 <= min(i, j) <= max(i, j) < abs(declared[blk])):
            raise ValueError(f"SDPA index out of range in line {line!r}")
        offset, diag = block_map[blk]
        if diag:
            if i != j:
                raise ValueError("off-diagonal entry in diagonal block")
            target, ii, jj = offset + i, 0, 0
        else:
            target, ii, jj = offset, i, j
        if matno == 0:
            obj.setdefault(target, []).append((ii, jj, v))
        else:
            cons.append((matno - 1, target, ii, jj, v))

    builder = SdpProblemBuilder(sizes, n_free=0)
    for b, triplets in obj.items():
        s = sizes[b]
        M = np.zeros((s, s))
        for i, j, v in triplets:
            M[i, j] += v
            if i != j:
                M[j, i] += v
        builder.set_objective_block(b, -M)
    columns = tuple(zip(*cons)) if cons else ((),) * 5
    builder.add_rows(rhs, columns, ((), (), ()))
    return builder.build()
