"""Choi matrices, complete positivity and the superoperator picture.

Complex instance only.  Each :class:`ChoiMatrix` computes its distance
from Hermitian, its Hermitian part and one pivoted Cholesky of that part
at most once, whatever the tolerance; an exactly Hermitian matrix is its
own Hermitian part, with no copy.  :func:`check_cp` decides positivity
from the factor's residual and reads the spectrum only when the factor
cannot decide; :func:`kraus_from_choi` trims the same factor's
directions below its cutoff and certifies the result by how well the
operators rebuild the matrix.  Conventions:

* ``vec`` is row-major: ``vec(rho)[(i, j)] = rho[i, j]`` with ``i`` the
  most significant index.
* The Choi matrix of a channel ``Phi`` with input dimension ``n`` lives
  on ``n * out_dim`` and has block ``(i, j)`` equal to ``Phi(E_ij)``,
  i.e. ``choi[(i, i'), (j, j')] = Phi(E_ij)[i', j']``.
* A superoperator acts on vectorized density matrices,
  ``S[(i', j'), (i, j)] = choi[(i, i'), (j, j')]``.

The Schroedinger picture of a Kraus morphism ``f : A -> B ⊗ C`` sends
``rho`` to the ancilla partial trace of ``f rho f†``.

The Choi matrix and that picture are relabellings of one BLAS Gram
product of the Kraus tensor, :func:`cpcat.core.kraus_gram`, which each
Kraus morphism computes once and keeps.  The certificate of
:func:`kraus_from_choi` compares the extracted operators' Gram tensor
with the Hermitian part under the Choi relabelling, as a strided view,
so it builds no second Choi matrix; that tensor then stays on the
result for later comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import COMPLEX, DEFAULT_TOL, KRAUS_EIG_TOL, Mor, Obj, kraus_gram
from .cp import KrausMor
from .errors import (DimensionMismatch, InvalidArgument, NotCompletelyPositive,
                     NotHermitian, ShapeMismatch)


def _gram(k: KrausMor) -> np.ndarray:
    """:func:`cpcat.core.kraus_gram` of a complex ``k``: ``H[b, a, d, e]``."""
    if not k.semiring.supports_channels:
        raise InvalidArgument("channel-level operations need an instance "
                              "with supports_channels, such as complex")
    return kraus_gram(k)


def _of(cls, in_dim: int, out_dim: int, matrix: np.ndarray):
    """A ``cls`` over a complex matrix the package just computed.

    The matrix must already have the right shape, and nothing else may
    write to it; it is marked read-only and kept as it is.  The public
    constructors copy instead.  Never pass caller data.
    """
    matrix.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "in_dim", in_dim)
    object.__setattr__(obj, "out_dim", out_dim)
    object.__setattr__(obj, "matrix", matrix)
    return obj


@dataclass(frozen=True)
class ChoiMatrix:
    """The Choi matrix of a channel ``in_dim -> out_dim``.

    The matrix is read-only, so what is derived from it is computed at
    most once and kept: :attr:`hermitian_deviation` and the Hermitian
    part, both from one transposed copy, and the part's pivoted Cholesky
    factor.  An exactly Hermitian matrix is its own Hermitian part, so
    it keeps one ``n × n`` array, not two.  None of them depends on a
    tolerance; each caller compares the deviation with its own.
    """

    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.in_dim * self.out_dim
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (n, n):
            raise ShapeMismatch(
                f"Choi matrix for {self.in_dim}->{self.out_dim} must be "
                f"{n} x {n}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def hermitian_deviation(self) -> float:
        """Max-abs distance of the matrix from its adjoint."""
        return self._hermitian_split[0]

    @property
    def _hermitian(self) -> np.ndarray:
        return self._hermitian_split[1]

    @cached_property
    def _hermitian_split(self) -> tuple:
        """``(hermitian_deviation, part)`` from one transposed copy.

        ``t = m†`` is the only pass over ``m`` out of order, and the
        deviation is the streamed :meth:`cpcat.core.Semiring.deviation`
        of ``m`` against it, so no difference array is made.

        An exactly Hermitian ``m``, deviation 0, is its own part: the
        read-only matrix itself is returned and no second array is made.
        It is ``(m + m†)/2`` entry for entry; the halved sums would only
        round an odd subnormal or flip the sign of a zero, where ``m`` is
        the exact part.  Any other ``m``, NaN included, gets
        ``m/2 + (m/2)†``.  Entry ``[i, j]`` of ``(m/2)†`` is
        ``conj(mᵀ[i, j]/2)``: the same operations on the same values as
        in ``m - m.conj().T`` and ``h + h.conj().T`` with ``h = m/2``, so
        both results are bitwise theirs, signed zeros and subnormals
        included.
        """
        m = self.matrix
        t = np.conj(m.T, order="C")
        dev = COMPLEX.deviation(m, t)
        if dev == 0.0:
            return dev, m
        # summed halves: entries near the float limit do not overflow,
        # and in the normal range this rounds exactly as halving the sum.
        # t is conjugated back before it is halved: numpy's complex
        # product adds signed zero terms whose sign follows the
        # imaginary part's, so halving m† itself could flip a zero
        h = np.multiply(m, 0.5)
        np.conj(t, out=t)
        t *= 0.5
        h += np.conj(t, out=t)
        h.setflags(write=False)
        return dev, h

    @cached_property
    def _factor(self) -> tuple:
        # near the float limit the factor may overflow; the callers test
        # it, and an inf or NaN in it fails those tests
        with np.errstate(over="ignore", invalid="ignore"):
            lh, d = _pivoted_cholesky(self._hermitian)
        lh.setflags(write=False)
        d.setflags(write=False)
        return lh, d


@dataclass(frozen=True)
class Superoperator:
    """Matrix acting on row-major vectorized operators."""

    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.out_dim ** 2, self.in_dim ** 2):
            raise ShapeMismatch(
                f"superoperator for {self.in_dim}->{self.out_dim} must be "
                f"{self.out_dim ** 2} x {self.in_dim ** 2}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DilationResult:
    """Kraus operators recovered from a Choi matrix.

    ``mor`` stacks the operators into a single Kraus morphism
    ``A -> B ⊗ C`` whose ancilla index enumerates the operators, so
    ``ancilla_dim = len(kraus_ops)`` and never exceeds ``in * out``.
    """

    kraus_ops: tuple
    mor: KrausMor
    reconstruction_error: float

    @property
    def ancilla_dim(self) -> int:
        return len(self.kraus_ops)


def choi_of_kraus(k: KrausMor) -> ChoiMatrix:
    """Choi matrix of the Schroedinger channel of ``k``.

    A sum over the ancilla index,
    ``choi[(i, i'), (j, j')] = sum_c f[(i', c), i] conj(f[(j', c), j])``.
    """
    a, b = k.dom.dim, k.out.dim
    return _of(ChoiMatrix, a, b,
               _gram(k).transpose(3, 2, 1, 0).reshape(a * b, -1))


def _hermitian_part(choi: ChoiMatrix, tol: float) -> np.ndarray:
    """The cached Hermitian part ``(m + m†) / 2`` of the Choi matrix ``m``.

    It is ``m`` itself when ``m`` is exactly Hermitian.  Raises
    :class:`NotHermitian` unless ``m`` is within ``tol`` of its adjoint;
    a NaN deviation is not within any tolerance.
    """
    dev = choi.hermitian_deviation
    if not COMPLEX.within(dev, tol):
        raise NotHermitian(
            f"Choi matrix is {dev:.3e} from Hermitian (tol {tol:.3e})")
    return choi._hermitian


def check_cp(choi: ChoiMatrix, tol: float = DEFAULT_TOL) -> tuple:
    """Hermiticity then positivity: returns ``(is_cp, min_eigenvalue)``.

    Raises :class:`NotHermitian` when the matrix is further than ``tol``
    from its adjoint; otherwise the verdict is ``min_eigenvalue >= -tol``.

    The Hermitian part ``H`` has the cached pivoted Cholesky factor
    ``L`` of rank ``r``.  When ``r < n`` the residual ``R = H - L L†``
    decides: ``L L†`` is positive with a null direction, so by Weyl's
    inequalities the least eigenvalue of ``H`` lies between those of
    ``R``, and ``v = min(0, min_i(R_ii - sum_{j != i} |R_ij|))``, the
    Gershgorin bound, is at most it and within ``2·‖R‖∞`` (the largest
    row sum of ``|R|``) of it, up to the rounding in forming ``R``.  If
    ``v >= -tol`` the input is CP and ``min_eigenvalue`` is ``v``.  A
    full-rank factor, or a ``v`` below ``-tol``, leaves the verdict to
    the spectrum: ``min_eigenvalue`` is then the least eigenvalue from
    ``eigvalsh``.  As ``v`` is a lower bound, the shortcut accepts no
    input that the spectrum would refuse; nor does a residual that
    overflows, whose bound is NaN or ``-inf``.
    """
    h = _hermitian_part(choi, tol)
    lh, _ = choi._factor
    if len(lh) < len(h):
        with np.errstate(over="ignore", invalid="ignore"):
            res = lh.conj().T @ lh
            np.subtract(h, res, out=res)
            mag = np.abs(res)
            g = float((res.diagonal().real + mag.diagonal()
                       - mag.sum(axis=1)).min())
        # an overflow in R makes g NaN or -inf, and either fails here
        if g >= -tol:
            return True, min(0.0, g)
    min_eig = float(np.linalg.eigvalsh(h)[0])
    return min_eig >= -tol, min_eig


def _pivoted_cholesky(h: np.ndarray) -> tuple:
    """Left-looking pivoted Cholesky of a Hermitian ``h``: ``(lh, d)``.

    ``lh`` is ``L†`` for a factor ``L`` with ``L L† ≈ h``: row ``r`` is
    the conjugate of column ``r`` of ``L``.  Each step pivots on the
    largest remaining diagonal entry and stops once it is at most the
    rounding floor ``n·eps·max(diag h)`` (LAPACK ``xPSTRF``'s default).
    For a positive semi-definite ``h`` what is left is too, with trace
    at most ``n`` times the floor, so it holds no eigenvalue that
    ``eigh`` would resolve.  ``d`` is the diagonal left over, ``>= 0``
    up to rounding in that case.  Costs ``O(n² r)`` for rank ``r``: no
    ``n × n`` update is made, and ``lh`` grows by doubling.
    """
    n = h.shape[0]
    d = h.diagonal().real.copy()
    floor = n * np.finfo(np.float64).eps * d.max(initial=0.0)
    lh = np.empty((min(n, 1), n), dtype=np.complex128)
    r = 0
    while r < n:
        p = d.argmax()
        pivot = d[p]
        if pivot <= floor:
            break
        if r == len(lh):
            lh = np.concatenate([lh, np.empty_like(lh[:n - r])])
        row = lh[r]
        np.subtract(h[p], lh[:r, p].conj() @ lh[:r], out=row)
        row /= math.sqrt(pivot)
        d -= (row * row.conj()).real
        r += 1
    return lh[:r], d


def kraus_from_choi(choi: ChoiMatrix, tol: float = KRAUS_EIG_TOL) -> DilationResult:
    """Factor a CP Choi matrix into its canonical Kraus operators.

    The pivoted Cholesky (:func:`_pivoted_cholesky`) of the Hermitian
    part ``H``, cached on ``choi`` and shared with :func:`check_cp`,
    gives ``H ≈ L L†`` down to a rounding floor.  The small
    Gram matrix ``L†L`` is then diagonalised: the columns of ``L V`` are
    the eigenvectors of ``H`` scaled by ``sqrt(lam)``, and those with
    ``lam > tol`` are kept in ascending order of ``lam``.  Each kept
    column ``w`` yields the operator ``K[i', i] = w[(i, i')]``, so the
    operators are mutually orthogonal for the trace pairing.

    The reconstruction error, the max-abs entry of ``H`` minus the Choi
    matrix of the operators, is the certificate.  Its bound is ``tol``
    times ``max(1, max|diag H|)``, as rounding grows with the entries: a
    leftover pivot below minus the bound or an error above it raises
    :class:`NotCompletelyPositive`.  The transpose map's Choi matrix,
    the swap, rebuilds only its diagonal and is refused with error 1.
    """
    a, b = choi.in_dim, choi.out_dim
    h = _hermitian_part(choi, tol)
    bound = tol * max(1.0, float(np.abs(h.diagonal()).max(initial=0.0)))
    lh, d = choi._factor
    if d.min(initial=0.0) < -bound:
        raise NotCompletelyPositive(
            f"Choi matrix has pivot {d.min():.3e} < {-bound:.3e}")
    # near the float limit the small Gram matrix may overflow, as the
    # factor may; the certificate below tests what it gives
    with np.errstate(over="ignore", invalid="ignore"):
        vals, vecs = np.linalg.eigh(lh @ lh.conj().T)
    w = lh.conj().T @ vecs[:, vals > tol]
    if not w.shape[1]:
        # the zero channel still needs a carrier; use one zero operator
        w = np.zeros((a * b, 1), dtype=np.complex128)
    c = w.shape[1]
    # f[b', k, a'] = K_k[b', a'] = w[(a', b'), k]
    f = w.reshape(a, b, c).transpose(1, 2, 0).copy()
    # the operators and the Kraus morphism are all views of f
    f.setflags(write=False)
    out, anc = Obj(b), Obj(c)
    mor = KrausMor._of(Mor._of(Obj(a), out.tensor(anc), f.reshape(b * c, a),
                               COMPLEX), out, anc)
    # the Choi matrix of mor is a transpose of its Gram tensor, so the
    # tensor is compared with h under the inverse relabelling: the same
    # pairs of entries, no copy, and the tensor stays on mor
    err = COMPLEX.deviation(kraus_gram(mor),
                            h.reshape(a, b, a, b).transpose(3, 2, 1, 0))
    if not err <= bound:
        raise NotCompletelyPositive(
            f"Kraus factor misses the Choi matrix by {err:.3e} "
            f"(bound {bound:.3e})")
    return DilationResult(tuple(f[:, k] for k in range(c)), mor, err)


def schrodinger_of(k: KrausMor) -> Superoperator:
    """State picture ``rho -> Tr_C(f rho f†)`` as a matrix on vec(rho)."""
    a, b = k.dom.dim, k.out.dim
    return _of(Superoperator, a, b,
               _gram(k).transpose(2, 0, 3, 1).reshape(b * b, -1))


def superop_compose(s2: Superoperator, s1: Superoperator) -> Superoperator:
    if s1.out_dim != s2.in_dim:
        raise DimensionMismatch(
            f"superop_compose: {s1.out_dim} != {s2.in_dim}")
    return _of(Superoperator, s1.in_dim, s2.out_dim, s2.matrix @ s1.matrix)


def choi_of_superop(s: Superoperator) -> ChoiMatrix:
    """Reindex ``S[(i', j'), (i, j)]`` into ``choi[(i, i'), (j, j')]``."""
    a, b = s.in_dim, s.out_dim
    four = s.matrix.reshape(b, b, a, a)
    return _of(ChoiMatrix, a, b,
               four.transpose(2, 0, 3, 1).reshape(a * b, a * b))

