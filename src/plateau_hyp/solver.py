"""Dirichlet solver for the discrete graph equation on masked grid domains.

Damped Newton iteration on the conservative residual.  Its Jacobian is
the face-flux kernel's exact derivative, which the operator returns as an
array of 3^d stencil coefficients per node
(:func:`operator._face_flux_jacobian`) and :class:`JacobianBuilder`
stores as the matrix's 3^d diagonals: no residual is evaluated to assemble
it.  The residual kernel with its W factors frozen serves twice more, with
the exact matrix of the frozen, affine kernel: frozen at the equidistant
plane, it is the operator's linearization, whose solution starts Newton on
small, masked or even-sized problems; frozen at the iterate, it is the
Picard fallback when a Newton step cannot reduce the residual.  Newton and
Picard take their steps through one backtracking line search.  Boundary
nodes are constrained, never solved, so prescribed data is attained
exactly.  Failure to drive the residual down is reported as divergence, the
numerical stand-in for boundary geometry that admits no graph solution.

A whole box with an odd node count on every axis starts from nested
iteration (Brandt, Math. Comp. 31, 1977): the same problem on every other
node is solved first, by the same recursion, and its solution is prolonged
cubically to the fine grid, where Newton then needs two or three steps.  A
coarse level only seeds the level above, whose start residual is set by the
discretization gap between the two, so it is solved to discretization
accuracy, not to the tolerance, as in full multigrid (Trottenberg,
Oosterlee and Schueller, Multigrid, 2001, 2.6): it stops once a full Newton
step has cut its residual by the factor ``LEVEL_STOP``.  The dilation structure's coarse
coefficients are sliced from the fine level's, whose nodes hold the coarse
nodes and faces.  The hierarchy ends at the last level whose half still has
more interior unknowns than ``COARSEST_UNKNOWNS``; that coarsest level
starts from the linearization and takes its Newton steps through LU
factors.  Every level above it takes its Newton steps from GMRES on its
Jacobian (:func:`_gmres`), right-preconditioned by one V-cycle over the
levels below (:func:`_krylov_solver`), and factors a Jacobian only when
GMRES misses its tolerance on it freshly assembled.  On each level the
cycle smooths with damped Jacobi, restricts the residual by the adjoint of
the cubic prolongation, applies the level below's last linear solver (its
own cycle, or the coarsest level's LU factors) and prolongs the correction
back, so the coarse solves of the start serve again as coarse-grid
corrections.  The cubic prolongation is a tensor product of 1-D stencils,
so both transfers apply 1-D sparse factors one axis at a time
(:func:`_transfer`), kept per axis length: nothing of a box's size is
formed or kept.  Each Jacobi sweep works in the output of its Jacobian
product.  Masked, even-sized and coarsest problems, and every solve given
start values, keep the LU path.

The V-cycle runs in single precision: its vectors, its copy of each
Jacobian's diagonals, its Jacobi weights and the transfers' 1-D factors are
float32, which halves the bytes its products read; the factors hold their
weights exactly, and the transfers round to float32 between axes.
Everything the Newton step is made of stays float64: the Jacobian GMRES
multiplies by, the Arnoldi basis, the rotations, the step and every
residual, and the LU factors, including the coarsest level's, which the
cycle calls with its float32 right-hand side.  Flexible GMRES minimizes
the true residual of the step it returns whatever the preconditioner does
(Saad, SIAM J. Sci. Comput. 14, 1993), so the cycle's rounding can cost
iterations but never accuracy (Carson and Higham, SIAM J. Sci. Comput. 40,
2018); on the 65^2 and 25^3 hemisphere boxes, from rtol 1e-8 to 1e-13, it
costs none.

Every Jacobian is stored by diagonals (DIA) over the interior's bounding
box in C order, with unit rows at the box nodes outside the interior (none
on a whole box).  In that order the 3^d-stencil Jacobian is banded, its
half-bandwidth kl one box row (or plane) plus one; the GMRES steps and
cycles work in that order.  While M kl^2 stays within ``BAND_WORK`` for its M box nodes (2-D
boxes up to 96^2, 3-D boxes up to 15^3, and their ball windows) a
Jacobian is factored by LAPACK's band LU.  A wider one is factored by
SuperLU after renumbering by nested dissection of the box (George, SIAM J.
Numer. Anal. 10, 1973): halves before the separating plane, recursively,
computed as one vectorized sort key (:func:`nested_dissection_order`),
which fills less than SuperLU's own graph orderings on the 3^d-stencil
Jacobian (see :func:`_factorize`).  The numbering is made on the first
such factorization and kept by the Jacobian's builder, so a Krylov level
never pays for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from . import operator
from .geometry import PARABOLIC, _check_kind
from .operator import GridFunction


class SolverDivergence(RuntimeError):
    """No graph solution detected: the residual failed to decrease.

    The message names the grid shape of the level that diverged, which is a
    coarse level when the nested-iteration start fails.
    """


# Smallest backtracking step, the most frozen-W (Picard) sweeps of one
# fallback phase, and the interior size that ends the nested-iteration
# hierarchy: a level whose half-resolution problem would have at most
# COARSEST_UNKNOWNS unknowns is the coarsest and starts from the
# linearization, which is cheap to solve at that size, and the
# factorizations of the levels above it are what the hierarchy saves.
MIN_STEP = 2.0**-20
PICARD_SWEEPS = 50
COARSEST_UNKNOWNS = 400
# A nested-iteration level only seeds the level above, whose start residual
# is set by the discretization gap between the two, not by how far the
# level's own Newton went.  So a level stops (or meets the tolerance) once
# a full Newton step cut its residual by the factor LEVEL_STOP, which also
# leaves it at most LEVEL_STOP times its start residual: there its
# algebraic error is at most 2 % of the gap |u_h - I u_2h| on the 65^2 and
# 129^2 hemisphere and 65^2 dilation boxes (Brandt, Math. Comp. 31, 1977;
# Trottenberg, Oosterlee and Schueller, Multigrid, 2001, 2.6).  There, and
# on the 25^3 hemisphere box, the finest level's Newton and GMRES counts
# with 3e-2 or 1e-2 are those of levels solved to the tolerance; 1e-1 adds
# a Newton step on 65^2 and 25^3, and 1e-3 saves no step on the dilation
# level.
LEVEL_STOP = 1e-2
# Weight of the damped Jacobi smoother, and the most GMRES iterations one
# preconditioned linear solve may take before it gives no step.
JACOBI_WEIGHT = 0.8
KRYLOV_CAP = 40
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iters: int = 40


@dataclass(frozen=True)
class LevelRecord:
    """One coarse level of the nested-iteration start.

    ``final_residual`` is where the level stopped: after a full step that
    cut the residual by the factor ``LEVEL_STOP``, or at the tolerance
    (:func:`solve_dirichlet`).  It may exceed the tolerance.
    """

    shape: tuple
    iterations: int
    final_residual: float
    krylov_iterations: tuple
    lu_fallbacks: int


@dataclass
class SolveReport:
    """How a solve went; every field but ``levels`` describes the finest level.

    ``krylov_iterations`` holds the GMRES iterations of each Newton step, 0
    for a step solved directly; ``lu_fallbacks`` counts the Jacobians that
    were LU-factored after GMRES missed its tolerance on them.  ``levels``
    holds the coarse levels of the nested-iteration start, coarsest first,
    each stopped at discretization accuracy (:class:`LevelRecord`), and is
    empty when the start was the linearization.  ``linear_solver``, set on
    a :class:`CoarseLevel` only, is the linear solver of its last Newton
    step (None after a Picard fallback or without a step), which the level
    above applies as its coarse correction (:func:`_krylov_solver`): LU
    factors, or on a Krylov level its float32 V-cycle.
    """

    iterations: int = 0
    picard_iterations: int = 0
    final_residual: float = math.inf
    converged: bool = False
    damping_history: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)
    lu_fallbacks: int = 0
    gradient_bands: list = field(default_factory=list)
    levels: list = field(default_factory=list)
    linear_solver: object = field(default=None, repr=False, compare=False)


@dataclass
class DirichletProblem:
    """Graph equation data on a node mask of a grid box.

    ``mask`` selects the computational nodes; its discrete boundary (mask
    nodes missing a full stencil neighborhood inside the mask) carries the
    prescribed values of ``data``, a full-shape array read on that boundary.
    """

    grid: GridFunction
    mask: np.ndarray
    data: np.ndarray
    H: float
    kind: str = PARABOLIC

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.data = np.asarray(self.data, dtype=float)
        self._interior = None
        if abs(self.H) >= 1:
            raise ValueError(f"|H| must be < 1, got H = {self.H}")
        _check_kind(self.kind)
        if self.mask.shape != self.grid.values.shape:
            raise ValueError("mask shape must match the grid")
        if not self.interior_mask().any():
            raise ValueError("mask has no interior nodes")

    def interior_mask(self) -> np.ndarray:
        if self._interior is None:
            self._interior = stencil_reduce(self.mask, np.logical_and)
        return self._interior

    def boundary_mask(self) -> np.ndarray:
        return self.mask & ~self.interior_mask()


@dataclass
class CoarseLevel(DirichletProblem):
    """A level of the nested-iteration start: a whole box's problem on every other node.

    Made only by :func:`_coarse_problem`.  Its solution only seeds the finer
    level, so :func:`solve_dirichlet` stops it at discretization accuracy
    (``LEVEL_STOP``), not at the tolerance.  ``coefficients`` are the
    structure's coefficient data, sliced from the finer level's for the
    dilation structure (:func:`operator.coarse_chart_coefficients`), or None
    to form them from the grid.
    """

    coefficients: operator.FluxCoefficients | None = None


def stencil_reduce(mask: np.ndarray, op) -> np.ndarray:
    """Combine a boolean mask over each node's 3^d stencil, zero padded.

    ``op=np.logical_and`` keeps the nodes whose whole stencil lies in the
    mask (the interior); ``op=np.logical_or`` marks the nodes with a masked
    node in their stencil (the one-layer dilation).  The 3^d box is the
    product of 3-point windows, so the reduction runs axis by axis.
    """
    d = mask.ndim
    out = np.zeros(tuple(s + 2 for s in mask.shape), dtype=bool)
    out[(slice(1, -1),) * d] = mask
    for a in range(d):
        lo, mid, hi = (operator._index(d, slice(None), {a: sl})
                       for sl in (slice(None, -2), slice(1, -1), slice(2, None)))
        out = op(op(out[lo], out[mid]), out[hi])
    return out


def ball_mask(grid: GridFunction, center, radius: float) -> np.ndarray:
    """Chart-Euclidean ball of nodes, for masked Dirichlet problems."""
    mesh = grid.meshgrid()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d2 = sum((mesh[i] - center[i]) ** 2 for i in range(len(mesh)))
    return d2 <= radius**2


# ---------------------------------------------------------------------------
# Residual and Jacobian plumbing
# ---------------------------------------------------------------------------

# Largest M kl^2, the band LU's work for M box nodes at C-order
# half-bandwidth kl, for which a builder keeps C order and LAPACK's band LU;
# a wider matrix is numbered by nested dissection for SuperLU (_factorize).
# One hemisphere Jacobian per box (best of 3, BLAS 1 thread, 2-CPU Xeon
# host), factor ms, band against SuperLU: 17^2 0.05 / 0.43, 33^2 0.39 / 1.4,
# 65^2 4.6 / 7.2, 81^2 7.4 / 10.7, 89^2 12.8 / 13.4, 93^2 18.3 / 14.7, 97^2
# 15.1 / 16.8, 129^2 41 / 37; 9^3 0.41 / 1.1, 13^3 3.3 / 7.8, 15^3 8.1 /
# 12.1, 17^3 17.1 / 22.8.  From 65^2 on the band's solves take up to 2.1
# times SuperLU's, and its storage m (3 kl + 1) doubles 2-4 times SuperLU's
# factors (97^2: 21 against 6.4 MB).  From 89^2 to 97^2 the two trade
# places from one sweep to the next on a shared host.  8e7 keeps the
# band up to 96^2 and 15^3 (8.0e7 and 7.4e7), where 3-D gains the most, and
# puts 97^2 (8.3e7) and 17^3 (2.0e8) on SuperLU.
BAND_WORK = 8 * 10**7


@dataclass(frozen=True)
class NestedNumbering:
    """A builder's unknowns numbered by nested dissection, for SuperLU.

    ``order`` lists the C index of the unknown at each position and
    ``position`` is its inverse.  :meth:`renumber` gives the matrix of the
    interior unknowns, rows and columns in that order, as CSC with each
    column's rows sorted: its data are the flat diagonal data at ``take``.
    """

    order: np.ndarray
    position: np.ndarray
    take: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def renumber(self, J):
        return sp.csc_matrix((J.data.reshape(-1)[self.take], self.indices, self.indptr),
                             shape=(self.order.size,) * 2)


class JacobianBuilder:
    """Sparse Jacobian of the interior residual, stored as its stencil diagonals.

    The residual's derivative comes from :func:`operator._face_flux_jacobian`
    as one array of stencil coefficients per inner node, shaped (3^d,
    *inner): entry k at node r is dR_r / du_{r + o_k}.  The matrix numbers
    the nodes of the interior's bounding box (``box``) in C order, where
    o_k is a flat offset, so that array is the matrix's diagonal (DIA)
    storage (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
    SIAM 2003, 3.4) once entry k is shifted by o_k: ``data[k, j] =
    J[j - o_k, j]``.  Couplings that leave the interior are zeroed, and box
    nodes outside it (``inside`` False) are unit rows.  ``offsets`` ascend,
    so a product adds each row's couplings in column order, as a CSC
    product does.  On a box 2 nodes wide along an axis, two stencil entries
    share an offset but no pair of nodes, so they share a diagonal; on a box
    1 node wide, the entries that move along it get none.  A builder holds
    no array per coupling, and an assembly is one kernel call and one
    shifted copy per diagonal.

    ``kl``, the half-bandwidth, is the largest offset.  If M kl^2 <=
    ``BAND_WORK`` for the M box nodes, the band LU factors the matrix.
    Otherwise ``kl`` is None, and SuperLU factors the interior block
    renumbered by nested dissection (:attr:`nested`), which is computed on
    the first factorization and kept here: a level that takes its steps
    from GMRES never factors, and never pays for it.  Every renumbered
    matrix shares the numbering's index arrays, which must stay sorted:
    SuperLU's ``splu`` sorts a matrix's indices in place when they are out
    of order, and would then scramble every later factorization.
    """

    def __init__(self, shape, interior: np.ndarray):
        self.shape, self.interior = shape, interior.copy()
        d = len(shape)
        self.m = int(np.count_nonzero(interior))
        self.box = tuple(slice(int(w.min()), int(w.max()) + 1) for w in np.nonzero(interior))
        self.inside = self.interior[self.box]
        self.outside = np.flatnonzero(~self.inside)  # the unit rows; none on a whole box
        extent = self.inside.shape
        vectors = np.indices((3,) * d).reshape(d, -1).T - 1  # the stencil, in C order
        live = np.all(np.abs(vectors) < extent, axis=1)  # the entries coupling box nodes
        flat = vectors[live] @ [math.prod(extent[b + 1:]) for b in range(d)]
        self.offsets, rows = np.unique(flat, return_inverse=True)
        self.entries = list(zip(np.flatnonzero(live).tolist(), rows.tolist(), flat.tolist()))
        self.centre = int(np.searchsorted(self.offsets, 0))
        kl = int(self.offsets[-1])
        self.kl = kl if self.inside.size * kl**2 <= BAND_WORK else None
        # the box within the kernel's inner block, in its (3,) * d + inner
        # layout, and there the couplings that leave the box: offset -1
        # along an axis at the box's first row, +1 at its last
        self.within = (slice(None),) * d + tuple(slice(sl.start - 1, sl.stop - 1)
                                                 for sl in self.box)
        self.edges = [operator._index(2 * d, slice(None), {b: digit, d + b: end})
                      for b in range(d) for digit, end in ((0, 0), (2, -1))]

    def _diagonals(self, stencil: np.ndarray) -> np.ndarray:
        """DIA data of a (3,) * d + box stencil array, whose dropped couplings it zeroes."""
        for edge in self.edges:
            stencil[edge] = 0.0
        stencil = stencil.reshape(3 ** len(self.shape), -1)  # a copy for a window
        stencil[:, self.outside] = 0.0  # rows of box nodes outside the interior
        size = stencil.shape[1]
        data = np.zeros((len(self.offsets), size))
        for k, row, offset in self.entries:
            lo, hi = max(offset, 0), size + min(offset, 0)
            data[row, lo:hi] += stencil[k, lo - offset:hi - offset]
        data[:, self.outside] = 0.0  # couplings into them
        return data

    @functools.cached_property
    def nested(self) -> NestedNumbering:
        """The unknowns' nested-dissection numbering, computed on first use."""
        order = nested_dissection_order(self.interior)
        position = np.empty_like(order)
        position[order] = np.arange(self.m)
        size = self.inside.size
        kept = self._diagonals(np.ones((3,) * len(self.shape) + self.inside.shape)) > 0
        # each kept coupling's place in the flat data, counted from 1 so that
        # the conversion keeps it; renumbered column p is the unknown order[p]
        places = np.where(kept, np.arange(1, kept.size + 1).reshape(kept.shape), 0)
        unknowns = np.flatnonzero(self.inside)[order]
        pattern = sp.dia_matrix((places, self.offsets), shape=(size, size)).tocsc()
        pattern = pattern[unknowns][:, unknowns]
        pattern.sort_indices()
        return NestedNumbering(order, position, pattern.data - 1, pattern.indices,
                               pattern.indptr)

    def assemble(self, values: np.ndarray, resid, w_at: np.ndarray | None = None):
        """The box Jacobian at ``values`` of ``resid`` (a :func:`_residual_fn`), as DIA.

        Given ``w_at``, the exact matrix of the residual with its W factors
        frozen there, which is affine in the unknowns.
        """
        stencil = resid.jacobian(values, w_at)
        data = self._diagonals(stencil.reshape((3,) * len(self.shape) + stencil.shape[1:])
                               [self.within])
        data[self.centre, self.outside] = 1.0  # the unit rows
        return sp.dia_matrix((data, self.offsets), shape=(data.shape[1],) * 2)


# sort digit of the lower half, the separator and the upper half of a cut
_DIGIT = np.array([0, 2, 1], dtype=np.int64)


def nested_dissection_order(interior: np.ndarray) -> np.ndarray:
    """C indices of the interior nodes in nested-dissection order (George 1973).

    The interior's bounding box is bisected recursively: the longest axis is
    cut at its middle plane, both halves are numbered first, each by the
    same rule, and the plane (the separator) last, itself bisected along its
    remaining axes, down to single nodes.  On a grid graph this order's LU
    fill is of optimal order (A. George, SIAM J. Numer. Anal. 10, 1973, for
    the 2-D grid).

    The axis cut at each depth is fixed from the box's node counts (each cut
    halves the count it acts on), so every box at one depth cuts the same
    axis and the whole order is one sort key: per cut, a base-3 digit (0 for
    the lower half, 1 for the upper, 2 on the separator), most significant
    first.  The digits of one cut depend on one coordinate only, so the key
    is a sum of one small array per axis.
    """
    where = np.nonzero(interior)
    lo = [int(w.min()) for w in where]
    counts = [int(w.max()) + 1 - l for w, l in zip(where, lo)]
    cuts = []
    left = list(counts)
    while max(left) > 1:
        axis = left.index(max(left))
        cuts.append(axis)
        left[axis] //= 2
    keys = []
    for axis, count in enumerate(counts):
        x = np.arange(count)
        start, stop = np.zeros_like(x), np.full_like(x, count)
        key = np.zeros(count, dtype=np.int64)
        for depth in [k for k, cut in enumerate(cuts) if cut == axis]:
            mid = (start + stop) // 2
            side = np.sign(x - mid)  # -1 lower half, 0 separator, 1 upper half
            key += _DIGIT[side + 1] * 3 ** (len(cuts) - 1 - depth)
            start = np.where(side < 0, start, mid + (side > 0))
            stop = np.where(side > 0, stop, mid + (side == 0))
        keys.append(key)
    box = tuple(slice(l, l + c) for l, c in zip(lo, counts))
    total = functools.reduce(np.add.outer, keys)
    # the cuts go down to single nodes, so no two nodes share a key
    return np.argsort(total[interior[box]])


_BUILDER_CACHE: dict = {}


def _cached_builder(shape, interior: np.ndarray) -> JacobianBuilder:
    """Builders keyed by the interior pattern; ball lifts reuse a handful."""
    key = (shape, interior.tobytes())
    builder = _BUILDER_CACHE.get(key)
    if builder is None:
        builder = JacobianBuilder(shape, interior)
        if len(_BUILDER_CACHE) > 128:
            _BUILDER_CACHE.clear()
        _BUILDER_CACHE[key] = builder
    return builder


# Raw LAPACK band LU: the scipy.linalg wrappers cost more per call than
# factoring the small ball-lift matrices themselves.
_gbtrf, _gbtrs, _trtrs = get_lapack_funcs(("gbtrf", "gbtrs", "trtrs"), dtype=np.float64)


def _factorize(J, builder: JacobianBuilder):
    """Linear solver for one matrix assembled by ``builder``: ``solve(rhs)`` returns the step.

    ``rhs`` and the step are on the interior unknowns, in C order.  The
    matrix is LU-factored here, once, and the factors serve every
    right-hand side until the caller drops the solver.  A matrix of a
    narrow-band builder (``builder.kl`` set) is copied into LAPACK band
    storage, with kl rows left for the fill, one row per diagonal (offset
    o at row 2 kl - o), and factored by ``gbtrf`` with partial pivoting,
    which keeps the fill inside kl more superdiagonals (Anderson et al.,
    LAPACK Users' Guide, 3rd ed., SIAM 1999); its steps come from ``gbtrs``
    on the box.  Any other is factored by SuperLU.  A singular matrix gives
    ``None``, "no step", from either branch.

    For SuperLU the interior block is gathered into CSC and renumbered by
    the builder's nested dissection (George, SIAM J. Numer. Anal. 10, 1973;
    ``builder.nested``, computed on the builder's first SuperLU
    factorization), and SuperLU keeps that
    column order (``NATURAL``, which scipy pairs with SuperLU's symmetric
    mode) and its threshold partial pivoting; right-hand sides and steps
    are mapped between C order and that order here.  On the 3^d-stencil
    Jacobians this fills less than SuperLU's graph-only orderings: about
    7 % less than a minimum degree on A + A^T at 127^2 unknowns, and 38 %
    less at 33^3.
    """
    kl = builder.kl
    if kl is not None:
        band = np.zeros((3 * kl + 1, J.shape[0]), order="F")
        band[2 * kl - J.offsets] = J.data
        lu, piv, info = _gbtrf(band, kl, kl, overwrite_ab=True)
        if info != 0:
            return lambda rhs: None
        inside = builder.inside.reshape(-1)
        box = np.zeros(inside.size)  # right-hand sides on the box: zero on the unit rows

        def solve(rhs):
            box[inside] = rhs
            return _gbtrs(lu, kl, kl, box, piv)[0][inside]

        return solve
    nested = builder.nested
    try:
        lu = spla.splu(nested.renumber(J), permc_spec="NATURAL")
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return lambda rhs: None
    order, position = nested.order, nested.position
    return lambda rhs: lu.solve(rhs[order])[position]


def _residual_fn(problem: DirichletProblem):
    """``resid(v, w_at=None)``: the problem's residual field under the orientation.

    ``resid.jacobian(v, w_at)`` is its exact stencil derivative, which
    :meth:`JacobianBuilder.assemble` stores as diagonals.

    The spacing and the structure's coefficients are formed here, once per
    solve (:func:`solve_dirichlet` hands its ``resid`` to
    :func:`linearized_start`), except a :class:`CoarseLevel`'s coefficients,
    which come sliced from the finer level.  Nothing is kept past the solve,
    so repeated solves of one problem each pay the same set-up.
    """
    return operator.residual_evaluator(problem.grid, problem.kind, problem.H,
                                       operator.orientation(),
                                       getattr(problem, "coefficients", None))


def linearized_start(problem: DirichletProblem, resid=None) -> np.ndarray:
    """Start values: the solution of the problem's own operator linearized about a plane.

    This starts Newton on masked and even-sized problems and on the
    coarsest level of the nested-iteration start.

    W is frozen at the slopes of the equidistant plane a y, with
    a = ``solution_slope(H)``; the frozen residual is affine (for H = 0 and
    the translation structure, y Lap(v) - n v_y), so one frozen-W step from
    the data with a zero interior solves it, and a second step with the same
    factors refines away the rounding of the first.  Data sampled from an
    equidistant plane are reproduced exactly.  The frozen kernel's exact
    matrix is assembled, as diagonals over the interior's bounding box, by
    the cached builder that Newton then reuses (``assemble(values, resid,
    w_at=plane)``) and LU-factored (:func:`_factorize`); a singular one
    leaves the interior at zero.  ``resid`` is the solve's
    :func:`_residual_fn`, when it has one already.
    """
    interior = problem.interior_mask()
    values = problem.data.copy()
    values[interior] = 0.0
    slope = operator.orientation().solution_slope(problem.H)
    plane = slope * problem.grid.meshgrid()[-1]
    resid = resid or _residual_fn(problem)
    frozen = functools.partial(resid, w_at=plane)
    builder = _cached_builder(values.shape, interior)
    solve = _factorize(builder.assemble(values, resid, w_at=plane), builder)
    step = solve(-frozen(values)[interior])
    if step is not None:
        values[interior] += step
        values[interior] += solve(-frozen(values)[interior])
    return values


def _coarse_problem(problem: DirichletProblem, resid) -> CoarseLevel | None:
    """The problem on every other node, or None where the hierarchy ends.

    Only a whole box with an odd node count on every axis coarsens, and only
    while the coarse interior keeps more than ``COARSEST_UNKNOWNS``
    unknowns.  The coarse data are the fine data injected, so the coarse
    boundary values are data, not averages.  ``resid`` is the fine level's
    :func:`_residual_fn`; the dilation structure's coarse coefficients are
    sliced from its coefficients, the translation structure's are formed
    from the coarse heights.
    """
    shape = problem.mask.shape
    if not problem.mask.all() or any(s % 2 == 0 for s in shape):
        return None
    if math.prod((s + 1) // 2 - 2 for s in shape) <= COARSEST_UNKNOWNS:
        return None
    data = problem.data[(slice(None, None, 2),) * len(shape)]
    axes = tuple(a[::2] for a in problem.grid.axes)
    coefficients = None
    if problem.kind != PARABOLIC:
        coefficients = operator.coarse_chart_coefficients(resid.coefficients, axes, len(axes))
    return CoarseLevel(grid=GridFunction(axes, np.zeros(data.shape)),
                       mask=np.ones(data.shape, dtype=bool), data=data, H=problem.H,
                       kind=problem.kind, coefficients=coefficients)


def prolong(coarse: np.ndarray) -> np.ndarray:
    """Values on the grid with twice the intervals per axis, interpolated axis by axis.

    Coarse nodes keep their values.  A midpoint takes the 4-point cubic
    (-v0 + 9 v1 + 9 v2 - v3) / 16 of its neighbors along the axis, exact on
    cubics; the two midpoints next to an axis end take the quadratic
    (3 v0 + 6 v1 - v2) / 8 through the end node and the next two, exact on
    quadratics.  Each axis needs at least 3 coarse nodes.  The V-cycle's
    transfers apply this rule as 1-D matrices (:func:`_axis_factors`).
    """
    out = coarse
    for a in range(coarse.ndim):
        v = np.moveaxis(out, a, 0)
        fine = np.empty((2 * v.shape[0] - 1,) + v.shape[1:])
        fine[::2] = v
        fine[3:-3:2] = (9.0 * (v[1:-2] + v[2:-1]) - (v[:-3] + v[3:])) / 16.0
        fine[1] = (3.0 * v[0] + 6.0 * v[1] - v[2]) / 8.0
        fine[-2] = (3.0 * v[-1] + 6.0 * v[-2] - v[-3]) / 8.0
        out = np.moveaxis(fine, 0, a)
    return np.ascontiguousarray(out)


def _nested_start(problem: DirichletProblem, cfg: SolverConfig, resid,
                  report: SolveReport):
    """Default start: (values, coarse correction), or (:func:`linearized_start`, None).

    The coarse problem (:func:`_coarse_problem`, a :class:`CoarseLevel`) is
    solved by :func:`solve_dirichlet` with the same configuration, so its own
    start recurses in turn, and it stops at discretization accuracy
    (``LEVEL_STOP``), not at ``cfg.tol``; its levels and its own record go to
    ``report.levels``.  Its solution is prolonged to start the fine level,
    and its last linear solver is handed up as the fine level's coarse
    correction.  A coarse divergence propagates: the fine level does not
    fall back.
    """
    coarse = _coarse_problem(problem, resid)
    if coarse is None:
        return linearized_start(problem, resid), None
    solved, sub = solve_dirichlet(coarse, cfg)
    report.levels = sub.levels + [LevelRecord(coarse.mask.shape, sub.iterations,
                                              sub.final_residual,
                                              tuple(sub.krylov_iterations),
                                              sub.lu_fallbacks)]
    return prolong(solved.values), sub.linear_solver


_AXIS_FACTORS: dict = {}


def _axis_factors(s: int) -> tuple:
    """(p, q): the 1-D transfers between the interiors of an axis of ``s`` nodes and its half.

    ``s`` is odd, at least 5.  p maps the (s + 1) / 2 - 2 coarse interior
    nodes, zero at the coarse ends, to the s - 2 fine interior nodes by the
    cubic rule of :func:`prolong`; its columns are the prolonged unit
    vectors, at most 4 entries per row.  q = p^T / 2.  Both are float32 CSR,
    kept per ``s`` (O(s) memory) for every box that has an axis of ``s``
    nodes.  float32 holds them exactly: the weights {1, 9/16, -1/16, 3/8,
    3/4, -1/8} and their halves are dyadic fractions of at most 4
    significant bits.

    :func:`_transfer` applies them one axis at a time, and on the V-cycle's
    float32 vectors each pass between axes rounds to float32, where the
    float32 Kronecker product of the factors (its entries exact too) rounded
    only its sums: the two differ by a few float32 units.  That rounding,
    like the rest of the cycle's, can cost flexible GMRES iterations, never
    accuracy (:func:`_gmres`).
    """
    pair = _AXIS_FACTORS.get(s)
    if pair is None:
        units = np.eye((s + 1) // 2)[1:-1]  # the coarse interior nodes
        p = sp.csr_matrix(np.stack([prolong(e)[1:-1] for e in units], axis=1),
                          dtype=np.float32)
        pair = _AXIS_FACTORS[s] = p, (p.T * np.float32(0.5)).tocsr()
    return pair


def _transfer(shape) -> tuple:
    """(P, R): prolongation and restriction between the interiors of a whole box and its half.

    ``shape`` is the fine box, with an odd node count on every axis.  P maps
    a correction on the coarse interior, zero on the coarse faces, to the
    fine interior by the cubic rule of :func:`prolong`; R = 2^-d P^T is its
    adjoint, scaled so that constants restrict to constants away from the
    faces.  Both take and return vectors on the interiors in C order.
    :func:`prolong` acts axis by axis, so P is the Kronecker product of the
    1-D matrices of :func:`_axis_factors` (Trottenberg, Oosterlee and
    Schueller, Multigrid, 2001, 2.3), and P and R apply those factors, or
    their halved transposes, one axis at a time: a sparse-times-dense
    product with the axis leading, whose output is turned so that the next
    axis leads.  No matrix of the box's size is formed.  Both compute in
    the dtype of their vector: float32 in the V-cycle (:func:`_krylov_solver`),
    float64 for a float64 vector, the factors being exact in either.
    """
    prolongs, restricts = zip(*(_axis_factors(s) for s in shape))

    def along_axes(v, factors):
        for A in factors:
            v = (A @ v.reshape(A.shape[1], -1)).T
        return v.ravel()

    return lambda e: along_axes(e, prolongs), lambda r: along_axes(r, restricts)


def _gmres(A, M, b: np.ndarray, rtol: float, counts: list):
    """(x, |A x - b|) with |A x - b| <= rtol |b| (2-norms) by right-preconditioned GMRES, or None.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on A M y = b
    with x = M y, so the residual it minimizes is the true one; the Arnoldi
    basis v_j is orthogonalized by classical Gram-Schmidt applied twice.
    The preconditioned vectors z_j = M(v_j) are kept as the iterations make
    them, and the step is x = Z y (flexible GMRES, Saad, SIAM J. Sci.
    Comput. 14, 1993), so ``M`` runs once per iteration.  Givens rotations
    reduce the Hessenberg matrix to triangular form as it grows, so each
    iteration reads its least-squares residual as |g_j+1| and y comes from
    one triangular solve at the end.

    Z is stored in the dtype ``M`` returns: float32 for the solver's
    V-cycle.  Everything else is float64: A z_j, the basis, the rotations
    and x.  A z_j is the float64 product with the stored z_j, so A Z = V H
    holds to float64 rounding whatever the precision of z_j, and |g_j+1|
    is the true residual |A x - b| of the x returned to that rounding, as
    in a float64 solve; the preconditioner's rounding can only cost
    iterations.

    Gives None when ``KRYLOV_CAP`` iterations do not reach the tolerance, a
    vector turns non-finite or the least-squares matrix turns singular.
    Each iteration adds one to ``counts[0]``.  ``scipy.sparse.linalg.gmres``
    preconditions from the left, so its inner test reads the preconditioned
    residual; with these cycles that test stopped after one iteration at a
    true relative residual of 0.31 where 0.026 was asked (65^2 hemisphere),
    and the solve then reported failure.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0.0
    V = np.empty((KRYLOV_CAP + 1, b.size))
    Z = None  # allocated at the first z, in its dtype
    R = np.zeros((KRYLOV_CAP, KRYLOV_CAP))  # the rotated Hessenberg matrix
    rotations = []  # (cos, sin) of each Givens rotation
    g = [beta]  # the rotated right-hand side beta e_1
    V[0] = b / beta
    for j in range(KRYLOV_CAP):
        counts[0] += 1
        z = M(V[j])
        if Z is None:
            Z = np.empty((KRYLOV_CAP, b.size), dtype=z.dtype)
        Z[j] = z
        w = A @ Z[j]
        h = V[:j + 1] @ w
        w -= h @ V[:j + 1]
        again = V[:j + 1] @ w
        w -= again @ V[:j + 1]
        column = (h + again).tolist()
        below = float(np.linalg.norm(w))  # not finite if anything before it is not
        if not math.isfinite(below):
            return None
        for i, (c, s) in enumerate(rotations):
            column[i], column[i + 1] = c * column[i] + s * column[i + 1], \
                c * column[i + 1] - s * column[i]
        diagonal = math.hypot(column[j], below)
        if diagonal == 0.0:  # the least-squares matrix is singular
            return None
        c, s = column[j] / diagonal, below / diagonal
        rotations.append((c, s))
        column[j] = diagonal
        R[:j + 1, j] = column
        g.append(-s * g[j])
        g[j] *= c
        left = abs(g[j + 1])
        if left <= rtol * beta:  # always when below = 0, the Krylov space being invariant
            y = _trtrs(R[:j + 1, :j + 1], np.array(g[:j + 1]))[0]
            return y @ Z[:j + 1], left
        V[j + 1] = w / below
    return None


def _krylov_solver(J, builder: JacobianBuilder, coarse, counts: list, tol: float):
    """(solve, cycle) for a Jacobian whose half-resolution level was solved.

    ``solve(rhs)`` returns the Newton step from :func:`_gmres` on ``J``, or
    None if GMRES misses its tolerance within ``KRYLOV_CAP`` iterations.
    Its preconditioner is one two-grid cycle (Brandt, Math. Comp. 31, 1977;
    Trottenberg, Oosterlee and Schueller, Multigrid, 2001): two damped Jacobi
    sweeps on ``J``, the residual restricted to the coarse interior, the
    ``coarse`` correction, its cubic prolongation added, and two more Jacobi
    sweeps.  Restriction and prolongation apply the 1-D factors of
    :func:`_axis_factors` one axis at a time (:func:`_transfer`).  Each sweep,
    and the residual before restriction, is written into the output of its
    product with ``J``: r - J x and its weighted update take no other
    temporary.  ``coarse`` is the coarse level's own last linear solver:
    the LU factors on the coarsest level and that level's ``cycle`` above
    it, so the levels form one V-cycle and the preconditioner stays a fixed
    linear map, as GMRES requires.  ``cycle`` is handed up in turn.

    The linear tolerance is Eisenstat and Walker's forcing term, choice 1
    (SIAM J. Sci. Comput. 17, 1996): how far the last step's linear model
    missed the residual it led to, | |F_k| - |F_k-1 + J s_k-1| | / |F_k-1|,
    kept above eta_k-1^1.618 while that exceeds 0.1.  It asks for no more
    accuracy than the Newton step itself delivers, and as Newton converges
    it tightens, so the iterates follow the LU path's.  The first step with
    ``J`` has no model to judge and takes min(1/2, max |F|), the choice of
    Dembo, Eisenstat and Steihaug (SIAM J. Numer. Anal. 19, 1982).  Every
    forcing term is kept at least 0.5 ``tol`` / |F|_2, the Newton tolerance
    ``tol`` over the right-hand side (Kelley, Iterative Methods for Linear
    and Nonlinear Equations, SIAM 1995): the 2-norm bounds the max-norm, so
    the linear residual still meets half the Newton tolerance, and a nearly
    converged step asks no accuracy below it.  Only whole boxes coarsen, so
    every vector is in the C order of ``J`` and of the transfers, and
    products with ``J`` run over its diagonals (scipy's ``dia_matvec``).

    The cycle is float32 throughout: it takes its vector in float32, smooths
    with a float32 copy of ``J``'s diagonals and float32 Jacobi weights,
    transfers through float32 factors and returns float32, so its products
    read half the bytes of float64 ones.  The coarse solver is
    called with the float32 restricted residual; LU factors, float64 as the
    coarsest level's Newton solver, take it in float64 and their correction
    is cast back.  GMRES multiplies by the float64 ``J`` itself and returns
    the step whose float64 residual it measured (:func:`_gmres`), so the
    cycle's precision moves neither the forcing test nor the Newton step's
    accuracy.
    """
    P, R = _transfer(builder.shape)
    single = sp.dia_matrix((J.data.astype(np.float32), J.offsets), shape=J.shape)
    weight = (JACOBI_WEIGHT / J.data[builder.centre]).astype(np.float32)

    def residual(r, x):
        """r - single x, written into the product's output."""
        t = single @ x
        return np.subtract(r, t, out=t)

    def sweep(r, x):
        t = residual(r, x)
        t *= weight
        x += t

    def cycle(r):
        r = r.astype(np.float32, copy=False)
        x = weight * r
        sweep(r, x)
        correction = coarse(R(residual(r, x)))
        if correction is None:
            return np.full_like(r, np.nan)
        x += P(correction.astype(np.float32, copy=False))
        sweep(r, x)
        sweep(r, x)
        return x

    last = {}  # |F|, the linear residual and the forcing term of the previous step

    def solve(rhs):
        norm = float(np.linalg.norm(rhs))
        if last:
            eta = abs(norm - last["linear"]) / last["norm"]
            if last["eta"] ** _GOLDEN > 0.1:
                eta = max(eta, last["eta"] ** _GOLDEN)
            eta = min(eta, 0.9)
        else:
            eta = min(0.5, float(np.max(np.abs(rhs))))
        eta = max(eta, 0.5 * tol / norm)
        found = _gmres(J, cycle, rhs, eta, counts)
        if found is None:
            return None
        last.update(norm=norm, linear=found[1], eta=eta)
        return found[0]

    return solve, cycle


# ---------------------------------------------------------------------------
# Newton driver
# ---------------------------------------------------------------------------

def residual_norm(u: GridFunction | np.ndarray, problem: DirichletProblem) -> float:
    """Max-norm of the discrete residual over the mask's interior nodes."""
    values = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    res = _residual_fn(problem)(values)
    return float(np.max(np.abs(res[problem.interior_mask()])))


def solve_dirichlet(problem: DirichletProblem, cfg: SolverConfig | None = None,
                    initial: np.ndarray | None = None, compute_bands: bool = False):
    """Solve the masked Dirichlet problem; returns (GridFunction, SolveReport).

    The iteration starts from ``initial``, or by default from nested
    iteration (:func:`_nested_start`): a whole box with odd node counts
    solves its half-resolution problem first, down to the last level with
    more than ``COARSEST_UNKNOWNS`` coarse unknowns, and starts from that
    solution prolonged; any other problem, and the coarsest level, starts
    from :func:`linearized_start`.  The start's boundary values are replaced
    by the data.  The solve stops when the residual max-norm is at most
    ``cfg.tol``.  A :class:`CoarseLevel`, which only :func:`_nested_start`
    solves, also stops after a full step (lam = 1) that cut its residual by
    the factor ``LEVEL_STOP``.  The residual falls at every step, so it is
    then at most ``LEVEL_STOP`` times the level's start residual, and the
    step was a Newton step converging fast.  Reaching that bound is not
    enough: steps on a reused Jacobian converge linearly (by 0.12 to 0.2 per
    step on the 33^2 hemisphere level), and the one that first took that
    level below 1e-2 of its start residual left twice the discretization
    gap as algebraic error.  The finest level, and every solve of a
    :class:`DirichletProblem`, meets ``cfg.tol``.  Newton directions come
    from the exact stencil Jacobian (:class:`JacobianBuilder`), each one
    reused for up to three more steps:
    LU-factored (:func:`_factorize`) unless a coarse level was solved, whose
    last linear solver then serves as the coarse correction of
    preconditioned GMRES steps (:func:`_krylov_solver`); a GMRES miss on a
    fresh Jacobian gives the LU step of that Jacobian, whose factors then
    serve its reuses.  A damped step (lam < 1) ends a Jacobian's reuse, and
    a failed step on a reused one is retried at once on a fresh one.
    Steps take backtracking halving on the residual max-norm
    (:func:`_backtrack`); if no Newton step makes progress, the solver falls
    back to frozen-W sweeps (either Killing structure, the frozen kernel's
    exact matrix LU-factored) before declaring divergence, whose message
    names the grid shape.  Only a :class:`CoarseLevel` hands its last
    linear solver up (``report.linear_solver``).
    ``compute_bands`` adds the :func:`gradient_diagnostic` table to the
    report.
    """
    cfg = cfg or SolverConfig()
    grid = problem.grid
    interior = problem.interior_mask()
    boundary = problem.boundary_mask()

    report = SolveReport()
    resid = _residual_fn(problem)
    coarse = None
    if initial is None:
        values, coarse = _nested_start(problem, cfg, resid, report)
    else:
        values = np.asarray(initial, dtype=float).copy()
    values[boundary] = problem.data[boundary]
    values[~problem.mask] = 0.0

    F = resid(values)
    nrm = float(np.max(np.abs(F[interior])))
    # a nested-iteration level also stops after a full step that cut the
    # residual by the factor LEVEL_STOP; every other solve stops at the
    # tolerance only
    level = isinstance(problem, CoarseLevel)
    fast = False  # the last step was such a step on a level

    krylov = [0]  # GMRES iterations of the current Newton step

    def linearize(values, rhs):
        """(step, solve, hand-up) of the Jacobian assembled at ``values``.

        ``step`` solves it for ``rhs``, ``solve`` serves its reuses, and the
        hand-up is what a level above applies as its coarse correction: the
        LU factors, or on the Krylov path GMRES and its V-cycle.  A GMRES
        miss on ``rhs`` counts an LU fallback and takes the LU path.
        """
        builder = _cached_builder(values.shape, interior)
        J = builder.assemble(values, resid)
        if coarse is None:
            solve = _factorize(J, builder)
            return solve(rhs), solve, solve
        solve, cycle = _krylov_solver(J, builder, coarse, krylov, cfg.tol)
        step = solve(rhs)
        if step is None:
            report.lu_fallbacks += 1
            solve = cycle = _factorize(J, builder)
            step = solve(rhs)
        return step, solve, cycle

    solve = handoff = None  # linear solver, reused for up to three more steps
    reused = 0

    for it in range(cfg.max_iters):
        if nrm <= cfg.tol or fast:
            break
        rhs = -F[interior]
        found = None
        if solve is not None and reused < 3:
            reused += 1
            found = _backtrack(values, solve(rhs), nrm, interior, resid, cfg.tol)
        if found is None:  # due, or the reused Jacobian failed
            solve = handoff = None  # drop the old factors before the new assembly
            step, solve, handoff = linearize(values, rhs)
            reused = 0
            found = _backtrack(values, step, nrm, interior, resid, cfg.tol)
        if found is not None and found[3] < 1.0:
            reused = 3  # a damped step refreshes the Jacobian
        report.iterations = it + 1
        report.krylov_iterations.append(krylov[0])
        krylov[0] = 0
        if found is not None:
            fast = level and found[3] == 1.0 and found[2] <= LEVEL_STOP * nrm
            values, F, nrm, lam = found
            report.damping_history.append(lam)
        else:
            solve = handoff = None  # the fallback factors matrices of its own
            values, F, nrm, picard_used = _picard_phase(values, F, nrm, interior, resid, cfg)
            report.picard_iterations += picard_used
            if nrm > cfg.tol:
                raise SolverDivergence(
                    f"no graph solution detected on the {_shape_text(values.shape)} grid: "
                    f"residual stalled at {nrm:.3e} (tolerance {cfg.tol:.1e})")
            break
    if nrm > cfg.tol and not fast:  # checked after the last step too: it may have converged
        raise SolverDivergence(
            f"no graph solution detected on the {_shape_text(values.shape)} grid: "
            f"residual {nrm:.3e} after {cfg.max_iters} Newton iterations "
            f"(tolerance {cfg.tol:.1e})")

    solve = coarse = None  # only a coarse level's hand-up stays referenced
    report.converged = True
    report.final_residual = nrm
    out = GridFunction(grid.axes, values, boundary | ~problem.mask)
    if compute_bands:
        report.gradient_bands = gradient_diagnostic(out, problem)
    report.linear_solver = handoff if level else None
    return out, report


def _shape_text(shape) -> str:
    return "x".join(str(s) for s in shape)


def _backtrack(values, step, nrm, interior, resid, tol):
    """Backtracking line search on the residual max-norm (sufficient decrease).

    Tries ``values + lam * step`` on the interior for lam = 1, 1/2, ... down
    to ``MIN_STEP`` and accepts the first trial whose norm nt satisfies
    nt < nrm (1 - 1e-4 lam) or nt <= tol (Dennis and Schnabel, Numerical
    Methods for Unconstrained Optimization, 1983, section 6.3).  Returns
    (values, F, nrm, lam) of the accepted trial, or None when there is no
    finite step or no trial is accepted.
    """
    if step is None or not np.all(np.isfinite(step)):
        return None
    lam = 1.0
    while lam >= MIN_STEP:
        trial = values.copy()
        trial[interior] += lam * step
        Ft = resid(trial)
        nt = float(np.max(np.abs(Ft[interior])))
        if nt < nrm * (1.0 - 1e-4 * lam) or nt <= tol:
            return trial, Ft, nt, lam
        lam *= 0.5
    return None


def _picard_phase(values, F, nrm, interior, resid, cfg):
    """Frozen-W sweeps; returns (values, F, nrm, accepted sweeps).

    Each sweep solves the residual with W frozen at the iterate, whose
    exact matrix the builder assembles, and backtracks along that step.
    """
    used = 0
    builder = _cached_builder(values.shape, interior)
    while used < PICARD_SWEEPS and nrm > cfg.tol:
        # at its freeze point the frozen residual is F itself
        step = _factorize(builder.assemble(values, resid, w_at=values), builder)(-F[interior])
        found = _backtrack(values, step, nrm, interior, resid, cfg.tol)
        if found is None:
            break
        values, F, nrm, _ = found
        used += 1
    return values, F, nrm, used


# ---------------------------------------------------------------------------
# Interior gradient diagnostic
# ---------------------------------------------------------------------------

def gradient_diagnostic(u: GridFunction, problem: DirichletProblem) -> list:
    """Sup of the chart gradient over four bands of distance to the mask boundary.

    Distances are hyperbolic, to the nearest boundary node; band k = 1..4
    holds the nodes at least k/5 of the largest distance away.  The table only
    reports empirical suprema; no a priori constant is asserted, but the
    suprema are expected to be stable under refinement and nondecreasing as
    the band distance shrinks.
    """
    interior = problem.interior_mask()
    boundary = problem.boundary_mask()
    if not interior.any():
        return []
    mesh = u.meshgrid()
    pts = np.stack([m[interior] for m in mesh], axis=-1)
    bpts = np.stack([m[boundary] for m in mesh], axis=-1)

    # hyperbolic distance of every interior node to the boundary node set,
    # chunked over interior nodes to bound the pairwise workspace
    dmin = np.full(pts.shape[0], np.inf)
    chunk = max(1, 2**22 // max(bpts.shape[0], 1))
    for start in range(0, pts.shape[0], chunk):
        pp = pts[start:start + chunk]
        diff2 = ((pp[:, None, :] - bpts[None, :, :]) ** 2).sum(axis=-1)
        arg = 1.0 + diff2 / (2.0 * pp[:, None, -1] * bpts[None, :, -1])
        dmin[start:start + chunk] = np.arccosh(np.maximum(arg, 1.0)).min(axis=1)

    # interior nodes have a full stencil, so they all lie in the inner block
    grads = operator._centered_gradients(u.values, u.spacing)
    inner = operator._slice_plan(u.ndim).inner
    gnorm = np.sqrt(sum(g**2 for g in grads))[interior[inner]]

    rmax = float(np.max(dmin))
    out = []
    for k in range(4):
        r = rmax * (k + 1) / 5
        sel = dmin >= r
        if not sel.any():
            continue
        out.append({"distance": r, "sup_gradient": float(np.max(gnorm[sel])),
                    "nodes": int(np.sum(sel))})
    return out
