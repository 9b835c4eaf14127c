"""Strict monoidal kernel: objects, morphisms, composition, dagger.

Conventions used throughout the package:

* Objects are finite lists of positive integer factors.  The tensor of
  objects concatenates factor lists and the monoidal unit is the empty
  list (dimension 1).  Factor lists are metadata: two objects are
  composable whenever their total dimensions agree.
* A morphism ``f : A -> B`` is stored as a ``cod.dim x dom.dim`` matrix.
* Leading batch axes: a morphism the package builds may carry a stack
  of matrices of one type, shape ``(..., cod.dim, dom.dim)``, one per
  sample.  The kernels index from the end: :meth:`Semiring.matmul`,
  :meth:`Semiring.kron`, :func:`gram`, :func:`contract` (with ``...``),
  :meth:`Mor.dagger` and, one layer up, every CP and CPM construction
  act on the last axes and broadcast over the leading ones, so a batch
  gives bitwise the results of its slices, and one matrix is simply a
  batch with no leading axes.  :meth:`Semiring.deviation` takes the
  number of axes it compares.  Only the public constructors, which take
  caller data, insist on one matrix.
* Tensor indices are big-endian: the leftmost factor is the most
  significant digit of a flattened index, which is exactly the ordering
  ``np.kron`` produces.  :meth:`Semiring.kron` forms the same products
  as one broadcast multiply.
* :meth:`Mor._of` is the package's internal constructor.  It takes an
  array the package computed itself, never caller data: it neither
  validates, converts nor copies, and only marks the array read-only.
  Everything built from user input goes through the public ``Mor(...)``,
  which checks the shape and copies the entries at most once.
  :meth:`cpcat.cp.KrausMor._of` is its twin one layer up: it takes a
  morphism whose codomain the package built as ``out ⊗ ancilla`` and
  neither converts, checks nor retypes that split, while the public
  ``KrausMor(...)`` validates every split built from caller data.
* Two semirings are supported, complex doubles and booleans, as
  instances of two classes, :class:`ComplexSemiring` and
  :class:`BooleanSemiring`.  Each class owns what differs between them
  (see :class:`Semiring`), and no code outside them tests a dtype or
  which instance it holds.  Boolean matrix product is OR of ANDs, so
  there is no subtraction and equality is exact; complex equality is
  max-abs within a tolerance.  :meth:`Semiring.within` makes that
  decision for every comparison of morphisms, CP maps and axiom
  clauses, on the deviation that :meth:`Semiring.deviation` computes;
  large complex arrays are compared in blocks, with no temporary of
  their size.
* :meth:`Semiring.matmul` computes a boolean product by one of three
  exact routes, chosen by shape: at inner dim 1 as the outer AND, one
  broadcast; when both dims of the result are at least
  :data:`TABLE_MIN`, by lookup tables over bit-packed rows
  (:func:`_table_matmul`, the "Four Russians" method); otherwise by
  float32 BLAS.  The tables are exact because they only OR bits; BLAS
  is exact because every term is 0 or 1 and a float sum of such terms
  is positive exactly when one of them is.  The tables are built and
  used :data:`TABLE_BLOCK` groups of 8 rows at a time, so only one
  block's tables exist at once, 256 bytes per column of the result,
  not the ``4·k·n`` bytes of every group's table.
* Two kernels sum and rewire indices inside the package.
  :func:`gram` is the Hermitian Gram product ``conj(m) @ m.T``, one
  :meth:`Semiring.matmul`: the doubled form, the Choi matrix and the
  superoperator of a Kraus morphism are relabellings of one such
  product, :func:`kraus_gram`, kept on the morphism, and so is the
  realized matrix of a boolean one, as OR of ANDs never rounds.
  :func:`contract` is one ``np.einsum`` on its own loops over
  factor-shaped views, and the package's only call of it; it serves
  tensor products of factors, a relabelling that does not conjugate and
  the complex realized matrix of :func:`cpcat.cpm.cpm_form`, the one
  result whose mirror symmetry is tested bitwise.  A large one is
  summed a strip at a time into one preallocated result (``contract``'s
  ``out``), half its blocks, and the other half is filled as their
  exact mirrors.  :func:`factor_permutation` and :func:`swap` build the
  same rewirings as explicit morphisms for users and tests; nothing
  inside the package multiplies by them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, ShapeMismatch

DEFAULT_TOL = 1e-9
# kraus_from_choi's default cutoff: eigenvalues at or below it are trimmed,
# and times max(1, max|diag|) it bounds the reconstruction error
KRAUS_EIG_TOL = 1e-10

# Boolean products whose result has both dims at least this large take
# the table route.  Against float32 BLAS on one pinned thread (median
# of 41 paired rounds), the tables win squares from 256 up: 1.5x at 256,
# 2.9x at 448, 3.2x at 512 and 3.4x at 576.  Small inner dims set the
# threshold.  At 448 and 480, inner dims 2-16 lose by up to 1.9x.  At
# 512, inner dims 2-7 lost by up to 1.3x in one run or another, where
# BLAS needs only a few passes, and every other dim from 1 to 64 won
# (up to 7x at 1, where BLAS is slowest); at 576, 2 and 3 still tie.
# No lower value has every inner dim win, so 512 stays.
TABLE_MIN = 512

# :func:`_table_matmul` builds and uses the tables of this many 8-row
# groups at a time, so a block's gathered stack holds as many bytes as
# the result.  Against blocks of 2, 4, 16 and 32 on one pinned thread,
# 8 was the fastest at 1024^3 (2.9 ms; 4 took 1.06x as long, 16 1.15x)
# and tied with 2 at 2048^3.  At 512^3, 16 and 32 took 0.88x and 0.86x
# as long, as fewer blocks make fewer numpy calls, but their stacks
# hold 2 and 4 times the result.
TABLE_BLOCK = 8

# Complex deviations of arrays larger than this many entries stream in
# blocks of about this size (see :meth:`Semiring.deviation`): 128 KiB of
# differences and 64 KiB of magnitudes.  On one pinned thread, blocks of
# 1024-32768 entries all ran a kraus-large round within its spread, with
# the same page faults (1504 a round, against 1760 comparing whole); two
# 16^3 Gram tensors compared fastest at 8192, in 0.28 ms against
# 0.29-0.38 ms at the other sizes and 0.35 ms whole.
DEVIATION_BLOCK = 8192

# :meth:`ComplexSemiring.realized` sums half the blocks, strip by strip,
# when ``entries * (ancilla - 1) / out``, the products past each entry's
# first in one of its ``out`` strips, is at least this.  Filling a
# mirrored entry costs about one product and each strip is one more
# contraction call, so below it one sum is faster.  On one pinned
# thread, over batches of 1, 4 and 16 of ``a -> b ⊗ c`` with dims 2-20,
# the strips ran 1.10-1.70x as fast as one sum at every shape above
# 5000, and 0.40-1.42x between 500 and 5000: 8 -> 8 ⊗ 8 (3584) at
# 0.82x, 12 -> 12 ⊗ 12 (19008) at 1.33x and 16 -> 16 ⊗ 16 (61440) at
# 1.58x.
STRIP_MIN_TERMS = 8192

# :func:`check_laws` and the axiom runners draw and check at most this
# many consecutive samples at a time (:func:`chunks`): it bounds a run's
# peak memory, and every sweep call, at 200 samples or fewer, stays one
# chunk.  Chunks keep sample order, so no draw or report depends on it.
SAMPLE_CHUNK = 1000


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class Semiring:
    """Scalar arithmetic for one category instance.

    Each instance is an object of a subclass, and the package asks it,
    never its dtype or its identity, whatever differs between instances.
    :class:`ComplexSemiring` (``COMPLEX``) models finite-dimensional
    Hilbert spaces, :class:`BooleanSemiring` (``BOOLEAN``) finite sets
    and relations.  A subclass sets ``dtype`` and gives:

    * ``asarray``, which converts and checks the entries of a public
      ``Mor`` and of a DSL matrix literal, ``conj`` and ``within``, and
      the routes ``_product`` of :meth:`matmul` and ``_deviation`` of
      :meth:`deviation`;
    * ``random_entries(rng, shape)`` and ``random_unitary(rng, n)``, the
      draws of :func:`random_mor` and of env-b's ancilla rotations;
    * ``realized(k)``, the entries of :func:`cpcat.cpm.cpm_form`;
    * ``to_record``, ``from_record`` and ``row_text``, its entries in a
      morphism file and in the command line's ``entry[r][c]=`` lines.

    Three class attributes, which a subclass overrides, say what it can
    do: ``supports_channels`` (Choi matrices, Kraus extraction),
    ``phases`` (unit scalars other than 1) and ``compact`` (cups).  A
    subclass without cups sets ``compact = False``: the CP layer runs on
    it, and what needs cups refuses it with :class:`cpcat.errors.NotCompact`.
    """

    supports_channels = phases = False
    compact = True

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"Semiring({self.name})"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` by the instance's route, ``_product``.

        Every product enters here, where the benchmark's tracer times
        it per instance.
        """
        return self._product(a, b)

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``np.kron`` of two matrices: the same products, one broadcast."""
        prod = a[..., :, None, :, None] * b[..., None, :, None, :]
        *batch, p, r, q, t = prod.shape
        return prod.reshape(*batch, p * r, q * t)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def deviation(self, a: np.ndarray, b: np.ndarray, axes=None):
        """Max-abs difference; boolean arrays give 0.0 or 1.0.

        The maximum runs over every axis, or with ``axes`` over the last
        ``axes`` only.  Axes before those index a batch of comparisons:
        the result is then an array of their deviations, each bitwise
        the deviation of its slices.

        Complex arrays of more than :data:`DEVIATION_BLOCK` entries are
        compared in blocks of rows along the first axis, through two
        buffers of about one block reused for every block, so no
        temporary the size of the inputs is made.  Each entry's
        difference and magnitude are formed exactly as in
        ``np.abs(a - b).max()``, and the maximum of the blocks' maxima,
        NaN included, is that maximum, so the result is bitwise the
        same; in a batch, each block holds whole comparisons.  The
        inputs may have any strides, and they broadcast against each
        other as in ``a - b``.
        """
        if axes is not None and (a.ndim > axes or b.ndim > axes):
            return self._deviation(a, b, tuple(range(-axes, 0)))
        return self._deviation(a, b, None)


class ComplexSemiring(Semiring):
    """Complex doubles: finite-dimensional Hilbert spaces.

    Products go through BLAS, and equality is a max-abs deviation within
    a tolerance.  Entries are drawn with both parts uniform in [-1, 1],
    and unitaries from :func:`random_unitary`.  This is the instance of
    Choi matrices and Kraus extraction, and of global phases.
    """

    dtype = np.complex128
    supports_channels = phases = True
    _product = staticmethod(np.matmul)
    random_unitary = staticmethod(random_unitary)

    def asarray(self, entries) -> np.ndarray:
        return np.asarray(entries).astype(np.complex128, copy=False)

    def conj(self, a: np.ndarray) -> np.ndarray:
        """Entrywise conjugate as a fresh C-ordered array."""
        return np.conj(a, order="C")

    # a difference past the float range is inf, which is the right
    # deviation; numpy's overflow warning would only be noise.  As a
    # decorator errstate costs about half what a with block does a call,
    # and it stays thread-safe and re-entrant
    @np.errstate(over="ignore", invalid="ignore")
    def _deviation(self, a: np.ndarray, b: np.ndarray, axis):
        if axis is None and not a.size:
            return 0.0
        if a.size > DEVIATION_BLOCK:
            return _blocked_deviation(a, b, axis)
        if axis is None:
            return float(np.abs(a - b).max())
        # an empty comparison in a batch is 0.0, as one alone is
        return np.abs(a - b).max(axis=axis, initial=0.0)

    def within(self, dev: float, tol: float) -> bool:
        """Whether a :meth:`deviation` is at most ``tol``, per entry."""
        return dev <= tol

    def random_entries(self, rng: np.random.Generator, shape: tuple):
        # one draw of both parts consumes the generator exactly as two would
        parts = rng.uniform(-1, 1, (2,) + shape)
        out = np.empty(shape, np.complex128)
        out.real, out.imag = parts
        return out

    def realized(self, k) -> np.ndarray:
        """The sums over the ancilla rows of ``k`` in :func:`contract`.

        Block ``(x, y)`` of the realized matrix is ``R[x, y, a, e] =
        sum_c conj(m[x, a, c]) m[y, e, c]`` over the rows ``m`` of
        :meth:`cpcat.cp.KrausMor.as_rows`, and swapping the two copies
        conjugates it: ``R[y, x, e, a] = conj(R[x, y, a, e])``.  Past
        :data:`STRIP_MIN_TERMS`, one strip ``y >= x`` per output index
        ``x`` is summed into one preallocated result and block ``(y, x)``
        is filled from block ``(x, y)``, its last two axes swapped, so
        only about half the sums are taken.  Below it, one sum.

        The exact kernel rather than :func:`gram`: the realized matrix of
        :func:`cpcat.cpm.cpm_dagger` is then bitwise the dagger of this
        one, which BLAS rounding does not keep.  The filled half is
        bitwise what the kernel sums there: products commute, ``u - v``
        rounds to ``-(v - u)`` and every entry sums the ancilla in the
        same order, so the real part is the same and the imaginary part
        is ``0 - im``.  That is not ``np.conjugate``: the kernel's sums
        start from +0, so an imaginary part that cancels, as every one of
        a real map does, is +0 on both sides, where conjugating gives -0.
        """
        m = k.as_rows()
        nb, na, nc = m.shape[-3:]
        entries = m.size // nc * nb * na
        if entries * (nc - 1) < STRIP_MIN_TERMS * nb:
            return contract("...xac,...yec->...xyae", self.conj(m), m,
                            rows=nb * nb)
        out = np.empty(m.shape[:-3] + (nb, nb, na, na), np.complex128)
        for x in range(nb):
            # one strip's conjugated rows at a time, not a copy of all
            contract("...ac,...yec->...yae", self.conj(m[..., x, :, :]),
                     m[..., x:, :, :], out=out[..., x, x:, :, :])
            upper = out[..., x, x + 1:, :, :].swapaxes(-1, -2)
            lower = out[..., x + 1:, x, :, :]
            np.copyto(lower.real, upper.real)
            np.subtract(0.0, upper.imag, out=lower.imag)
        return out.reshape(out.shape[:-4] + (nb * nb, na * na))

    def to_record(self, array: np.ndarray) -> list:
        return np.stack((array.real, array.imag), axis=-1).tolist()

    def from_record(self, raw) -> np.ndarray:
        # a float dtype would read "1" and true as 1.0, and without one
        # [true, 0] promotes to int64, so each entry's type is checked
        arr = np.array(raw, dtype=object)
        if not set(map(type, arr.flat)) <= {int, float}:
            raise TypeError("complex entries must be numbers")
        arr = arr.astype(np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ShapeMismatch("complex entries must be [re, im] pairs, got "
                                f"shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidArgument("complex entries must be finite")
        return arr[:, :, 0] + 1j * arr[:, :, 1]

    def row_text(self, key: str, row: np.ndarray) -> str:
        # one tolist() gives Python scalars, which format several times
        # faster than numpy ones; each part is formatted as cli._f
        # formats a float, inline
        return "\n".join([f"{key}[{c}]={v.real + 0.0:.17g} {v.imag + 0.0:.17g}"
                          for c, v in enumerate(row.tolist())])


class BooleanSemiring(Semiring):
    """Booleans: finite sets and relations.

    A product is OR of ANDs, so no sum rounds and equality is exact
    whatever the tolerance.  Entries are drawn as fair coin flips, and
    unitaries, the relations whose converse inverts them, are
    permutations.
    """

    dtype = np.bool_

    def asarray(self, entries) -> np.ndarray:
        arr = np.asarray(entries)
        if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
            raise InvalidArgument("boolean matrix entries must be 0 or 1")
        return arr.astype(np.bool_, copy=False)

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Inner dim 1 is the outer AND, one broadcast.  Otherwise large
        # results come from lookup tables: about k/8 row gathers per
        # output row whatever the density, and exact, as they only OR
        # bits.  Small ones through float32 BLAS, whose setup costs a
        # tenth as much there (0.004 ms against 0.04 at dims <= 16), and
        # which is exact at any size: every term is 0 or 1, and a float
        # sum of non-negative terms that include a 1 never rounds below
        # 1, nor one of zeros above 0.
        if a.shape[-1] == 1:
            return a & b
        if a.ndim == b.ndim == 2 and min(a.shape[0], b.shape[1]) >= TABLE_MIN:
            return _table_matmul(a, b)
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0

    def conj(self, a: np.ndarray) -> np.ndarray:
        """A fresh C-ordered copy: conjugation is the identity."""
        return a.copy()

    def _deviation(self, a: np.ndarray, b: np.ndarray, axis):
        dev = (a != b).any(axis=axis) * 1.0
        return float(dev) if axis is None else dev

    def within(self, dev: float, tol: float) -> bool:
        """Whether a :meth:`deviation` is 0, whatever ``tol`` is."""
        return dev == 0.0

    def random_entries(self, rng: np.random.Generator, shape: tuple):
        return rng.random(shape) < 0.5

    def random_unitary(self, rng: np.random.Generator, n: int):
        return np.eye(n, dtype=np.bool_)[rng.permutation(n)]

    def realized(self, k) -> np.ndarray:
        """The kept Gram tensor ``H[..., x, a, y, e]`` of ``k`` relabelled.

        Its middle factors swapped, it is the realized matrix: OR of
        ANDs never rounds, so this is bitwise the contraction of the
        complex route, and one product serves both doubled forms.
        """
        h = kraus_gram(k)
        return h.swapaxes(-3, -2).reshape(h.shape[:-4] + (k.out.dim ** 2, -1))

    def to_record(self, array: np.ndarray) -> list:
        return array.astype(int).tolist()

    def from_record(self, raw) -> np.ndarray:
        return np.array(raw)

    def row_text(self, key: str, row: np.ndarray) -> str:
        return "\n".join([f"{key}[{c}]={int(v)}"
                          for c, v in enumerate(row.tolist())])


def _table_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean ``a @ b`` from 8-row lookup tables ("Four Russians").

    The rows of ``b`` are packed into ``uint64`` words.  For each group
    of 8 rows a 256-entry table holds the OR of every subset of them,
    built by doubling: entries ``2^j .. 2^(j+1) - 1`` are the first
    ``2^j`` ORed with row ``j``.  Output row ``i`` is then the OR, over
    the groups, of the table entry indexed by the byte of ``a[i]`` over
    that group's columns.

    The groups are taken :data:`TABLE_BLOCK` at a time.  A block's
    tables are laid out entry-major, ``t[entry, group, word]``, so each
    doubling ORs whole rows of the block's tables at once.  One ``take``
    with flat indices ``entry * s + group`` gathers every group of the
    block for every output row, and the gathered slices are ORed in
    place into one accumulator.  The tables of one block hold
    ``32·s·n`` bytes and its gathered stack ``s·m·n/8``, at most the
    ``m·n`` bytes of the result, both up to the padding of a row to
    whole words; both are reused from block to block and freed before
    the result is unpacked, once, as a fresh C-ordered ``bool`` array.
    ``a`` and ``b`` may have any strides; an inner dim of 0 gives the
    empty OR, all false.
    """
    bits = np.unpackbits(_table_or(a, b).view(np.uint8), axis=1,
                         bitorder="little")
    return np.ascontiguousarray(bits[:, :b.shape[1]]).view(np.bool_)


def _table_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of boolean ``a @ b`` packed into ``uint64`` words.

    The block buffers die when this returns, so the result unpacked
    next can take their memory rather than fresh pages.
    """
    (m, k), n = a.shape, b.shape[1]
    groups, words = -(-k // 8), -(-n // 64)
    packed = np.zeros((groups * 8, words * 8), np.uint8)
    packed[:k, :-(-n // 8)] = np.packbits(b, axis=1, bitorder="little")
    # rows[j, q] is row j of group q, so a block's rows j are contiguous
    rows = np.ascontiguousarray(
        packed.view(np.uint64).reshape(groups, 8, words).transpose(1, 0, 2))
    # bit j of index[q, i] is a[i, 8q + j], as bit j of a table index
    # selects row j of its group
    index = np.packbits(a.T, axis=0, bitorder="little")
    # s, the groups of a full block, is also the tables' group stride
    s = min(TABLE_BLOCK, groups)
    tables = np.empty((256, s, words), np.uint64)
    tables[0] = 0
    flat = tables.reshape(256 * s, words)
    offsets = np.arange(s)[:, None]
    at = np.empty((s, m), np.intp)
    stack = np.empty((s, m, words), np.uint64)
    acc = np.zeros((m, words), np.uint64)
    for q in range(0, groups, TABLE_BLOCK):
        g = min(s, groups - q)
        block = tables[:, :g]
        for j in range(8):
            np.bitwise_or(block[:1 << j], rows[j, q:q + g],
                          out=block[1 << j:2 << j])
        np.multiply(index[q:q + g], s, out=at[:g], dtype=np.intp)
        at[:g] += offsets[:g]
        # every index is in range; "clip" spares take the buffered copy
        # of its output that the default mode makes
        for got in flat.take(at[:g], axis=0, out=stack[:g], mode="clip"):
            acc |= got
    return acc


def _blocked_deviation(a: np.ndarray, b: np.ndarray, axis=None):
    """``np.abs(a - b).max(axis)`` over blocks of rows, for any strides.

    A row (``a[0]``) wider than :data:`DEVIATION_BLOCK` is one block.
    ``axis`` is ``None`` or trailing axes, which leave the first.
    """
    if a.shape != b.shape:
        # blocks are slices of both inputs, so both take the shape of
        # the difference first; shapes that do not broadcast raise here,
        # and an empty broadcast raises below, in peaks.max(), as the
        # one-liner's max() would
        a, b = np.broadcast_arrays(a, b)
    rows = max(1, DEVIATION_BLOCK * len(a) // max(a.size, 1))
    diff = np.empty((rows,) + a.shape[1:], np.result_type(a, b))
    mag = np.empty(diff.shape, diff.real.dtype)
    # one maximum per block, or per comparison of a batch
    peaks = np.empty(-(-len(a) // rows) if axis is None
                     else a.shape[:a.ndim - len(axis)])
    for q, i in enumerate(range(0, len(a), rows)):
        d = np.subtract(a[i:i + rows], b[i:i + rows], out=diff[:len(a) - i])
        peaks[q if axis is None else slice(i, i + rows)] = np.abs(
            d, out=mag[:len(d)]).max(axis=axis)
    # np.max, unlike the builtin, propagates a NaN from any block
    return float(peaks.max()) if axis is None else peaks


COMPLEX = ComplexSemiring("complex")
BOOLEAN = BooleanSemiring("bool")

SEMIRINGS = {"complex": COMPLEX, "bool": BOOLEAN}


class Obj:
    """A tensor-factor list.  ``Obj()`` is the monoidal unit."""

    __slots__ = ("factors", "dim")

    def __init__(self, *factors: int):
        for d in factors:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise InvalidArgument(f"factor dimensions must be >= 1, got {d!r}")
        self.factors = tuple(map(int, factors))
        self.dim = math.prod(self.factors)

    def tensor(self, other: "Obj") -> "Obj":
        if not other.factors:
            return self
        if not self.factors:
            return other
        obj = object.__new__(Obj)
        obj.factors = self.factors + other.factors
        obj.dim = self.dim * other.dim
        return obj

    __matmul__ = tensor

    def __eq__(self, other) -> bool:
        return isinstance(other, Obj) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return "Obj(%s)" % ", ".join(str(d) for d in self.factors)


UNIT = Obj()


def as_obj(x) -> Obj:
    """Accept an ``Obj``, a bare dimension, or a factor tuple."""
    if isinstance(x, Obj):
        return x
    if isinstance(x, (int, np.integer)):
        return Obj(int(x))
    return Obj(*x)


class Mor:
    """A morphism: domain, codomain and a codomain-by-domain matrix.

    One the package builds may hold a batch of such matrices along
    leading axes, one morphism per slice (see :meth:`_of`).  Instances
    are immutable; every operation returns a fresh morphism, so values
    can be shared freely between threads.
    """

    __slots__ = ("dom", "cod", "array", "semiring")

    def __init__(self, dom, cod, entries, semiring: Semiring = COMPLEX):
        self.dom = as_obj(dom)
        self.cod = as_obj(cod)
        self.semiring = semiring
        arr = semiring.asarray(entries)
        if arr.shape != (self.cod.dim, self.dom.dim):
            raise ShapeMismatch(
                f"entries shape {arr.shape} does not match "
                f"{self.cod.dim} x {self.dom.dim}")
        # Copy only what may alias the caller's entries; an array that
        # ``asarray`` just built, from a list or by a dtype conversion,
        # belongs to no one else.
        if arr.base is not None or (arr.flags.writeable and arr is entries):
            arr = arr.copy()
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def _of(cls, dom: Obj, cod: Obj, arr: np.ndarray,
            semiring: Semiring) -> "Mor":
        """A morphism over an array the package just computed.

        ``arr`` must already have ``semiring.dtype`` and the shape
        ``(..., cod.dim, dom.dim)``, and nothing else may write to it;
        it is marked read-only and kept as it is.  Never pass caller
        data.
        """
        m = object.__new__(cls)
        arr.setflags(write=False)
        m.dom, m.cod, m.array, m.semiring = dom, cod, arr, semiring
        return m

    def __repr__(self) -> str:
        return f"Mor({self.dom!r} -> {self.cod!r}, {self.semiring.name})"

    def dagger(self) -> "Mor":
        # conjugating the transpose in C order is one pass, and products
        # then see the same row-major layout as every other result
        return Mor._of(self.cod, self.dom,
                       self.semiring.conj(self.array.swapaxes(-1, -2)),
                       self.semiring)

    def conjugate(self) -> "Mor":
        """Entrywise conjugate, same type ``dom -> cod``."""
        return Mor._of(self.dom, self.cod, self.semiring.conj(self.array),
                       self.semiring)

    def retyped(self, dom, cod) -> "Mor":
        """Same entries under a new factor bracketing of equal total dims."""
        dom, cod = as_obj(dom), as_obj(cod)
        if (dom.dim, cod.dim) != (self.dom.dim, self.cod.dim):
            raise DimensionMismatch(
                f"cannot retype {self!r} to {dom!r} -> {cod!r}")
        return Mor._of(dom, cod, self.array, self.semiring)

    def then(self, other: "Mor") -> "Mor":
        """Diagrammatic composition: ``f.then(g)`` is g after f."""
        return compose(other, self)

    __rshift__ = then

    def __matmul__(self, other: "Mor") -> "Mor":
        return tensor(self, other)


def identity(obj, semiring: Semiring = COMPLEX) -> Mor:
    obj = as_obj(obj)
    return Mor._of(obj, obj, semiring.eye(obj.dim), semiring)


def compose(g: Mor, f: Mor) -> Mor:
    """Applicative-order composite ``g after f``."""
    if f.semiring is not g.semiring:
        raise DimensionMismatch("cannot compose across semirings")
    if f.cod.dim != g.dom.dim:
        raise DimensionMismatch(
            f"compose: codomain dim {f.cod.dim} != domain dim {g.dom.dim}")
    return Mor._of(f.dom, g.cod, g.semiring.matmul(g.array, f.array),
                   g.semiring)


def tensor(f: Mor, g: Mor) -> Mor:
    if f.semiring is not g.semiring:
        raise DimensionMismatch("cannot tensor across semirings")
    return Mor._of(f.dom.tensor(g.dom), f.cod.tensor(g.cod),
                   f.semiring.kron(f.array, g.array), f.semiring)


def gram(m: np.ndarray, semiring: Semiring) -> np.ndarray:
    """The Hermitian Gram product ``conj(m) @ m.T``, one matrix product.

    Entry ``[..., i, j]`` is ``sum_c conj(m[..., i, c]) m[..., j, c]``.
    Complex entries go through BLAS, booleans through either exact route
    of :meth:`Semiring.matmul`.
    """
    return semiring.matmul(semiring.conj(m), m.swapaxes(-1, -2))


def kraus_gram(k) -> np.ndarray:
    """``H[b, a, d, e] = sum_c conj(F[b, c, a]) F[d, c, e]``, one :func:`gram`.

    The doubled form, the Choi matrix and the superoperator of the
    :class:`cpcat.cp.KrausMor` ``k``, and the realized matrix of a
    boolean ``k``, are transposes of this tensor.  It is computed at the
    first call and kept on ``k``, read-only: ``(in·out)²`` entries, the
    size of the doubled form, for as long as ``k`` lives.
    """
    # kept in the instance dict, as functools.cached_property keeps its
    # values, but without the lock that it takes at every first access in
    # Python 3.11: that cost the axiom sweep, whose Kraus maps mostly live
    # for one comparison, 4%
    h = k.__dict__.get("_gram")
    if h is None:
        m = k.as_rows()
        batch, (b, a, c) = m.shape[:-3], m.shape[-3:]
        h = gram(m.reshape(batch + (b * a, c)), k.semiring)
        h.setflags(write=False)
        h = k.__dict__["_gram"] = h.reshape(batch + (b, a, b, a))
    return h


def contract(spec: str, *operands: np.ndarray, rows: int | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """The package's exact contraction kernel, for either semiring.

    ``operands`` are morphism arrays reshaped to their factor tensors
    (big-endian, so each reshape is a view) and ``spec`` is an
    ``np.einsum`` subscript string over them.  The result is returned as
    a ``rows``-row matrix: list the output subscripts codomain factors
    first.  Batch axes are written ``...`` in front of every subscript
    and stay in front, one matrix per batch index.  A relabelling is a
    transpose and an index shared by two operands is summed, so no
    permutation matrix is ever built.  numpy sums boolean products as
    OR of AND, so booleans take the same path.

    Given ``out``, a preallocated array of the output subscripts' shape
    (a strided view into a larger result, say), the sums are written
    into it and it is returned as it stands, with no ``rows``: reshaping
    a strided view would copy it.
    """
    if out is not None:
        return np.einsum(spec, *operands, out=out)
    # einsum's own loops rather than ``optimize=True`` or :func:`gram`
    # (BLAS): they give every entry the same operations wherever it sits,
    # so a map and its adjoint contract to exactly mirrored results.
    # BLAS rounding depends on where a row sits and how its buffer is
    # aligned: with :func:`gram` in ``cpm_form``, ``cpm_form(cpm_dagger(k))
    # == cpm_form(k)†`` failed bitwise on 80 of the 240 shapes that
    # ``tests/test_cpm.py`` checks (up to 24^3, one BLAS thread).
    out = np.einsum(spec, *operands)
    factors = len(spec[spec.index(">") + 1:].replace("...", ""))
    return out.reshape(out.shape[:out.ndim - factors] + (rows, -1))


def factor_permutation(factors, perm, semiring: Semiring = COMPLEX) -> Mor:
    """Permutation morphism from ``⊗factors`` to the permuted factors.

    ``perm[k]`` names which input factor lands in output slot ``k``, so
    the result maps the basis vector with multi-index ``i`` to the one
    with multi-index ``(i[perm[0]], i[perm[1]], ...)``.
    """
    factors = tuple(int(d) for d in factors)
    if sorted(perm) != list(range(len(factors))):
        raise InvalidArgument(f"{perm!r} is not a permutation of the factors")
    dom = Obj(*factors)
    cod = Obj(*(factors[p] for p in perm))
    n = dom.dim
    # no factors is the unit: one entry, reshaped to and from a scalar
    source = np.arange(n).reshape(factors).transpose(perm).reshape(-1)
    return Mor._of(dom, cod, semiring.eye(n)[source], semiring)


def swap(a, b, semiring: Semiring = COMPLEX) -> Mor:
    """The symmetry ``A ⊗ B -> B ⊗ A``."""
    a, b = as_obj(a), as_obj(b)
    na, nb = len(a.factors), len(b.factors)
    perm = list(range(na, na + nb)) + list(range(na))
    return factor_permutation(a.factors + b.factors, perm, semiring)


def max_abs_diff(f: Mor, g: Mor) -> float:
    if f.semiring is not g.semiring:
        raise DimensionMismatch("cannot compare across semirings")
    if (f.dom.dim, f.cod.dim) != (g.dom.dim, g.cod.dim):
        raise DimensionMismatch(
            f"compare: {f.dom.dim}->{f.cod.dim} vs {g.dom.dim}->{g.cod.dim}")
    return f.semiring.deviation(f.array, g.array, 2)


def fold_max(old: float, new: float) -> float:
    """``max(old, new)``, except that a NaN in either gives NaN.

    The builtin drops a NaN that comes second (``max(0.0, nan)`` is
    ``0.0``), so a fold of deviations with it would hide a NaN residual.
    """
    return new if new > old or new != new else old


def mor_equal(f: Mor, g: Mor, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality: exact for booleans, max-abs <= tol otherwise."""
    return f.semiring.within(max_abs_diff(f, g), tol)


def random_mor(rng: np.random.Generator, dom, cod,
               semiring: Semiring = COMPLEX) -> Mor:
    """Entries from ``semiring.random_entries``, in one call."""
    dom, cod = as_obj(dom), as_obj(cod)
    return Mor._of(dom, cod, semiring.random_entries(rng, (cod.dim, dom.dim)),
                   semiring)


def chunks(count: int):
    """``range(count)`` cut into consecutive ranges of :data:`SAMPLE_CHUNK`."""
    return (range(start, min(start + SAMPLE_CHUNK, count))
            for start in range(0, count, SAMPLE_CHUNK))


def draw_objects(max_dim: int) -> Callable:
    """``draw(rng, count)``: ``count`` objects of dims ``1..max_dim``.

    One ``rng.integers`` call draws the dims; it gives the values, and
    leaves the generator in the state, that ``count`` scalar calls
    would.  Each dim maps to one object made here, so samples of equal
    shape share their objects, which keeps grouping them cheap.
    """
    objs = {d: Obj(d) for d in range(1, max_dim + 1)}
    return lambda rng, count: [
        objs[d] for d in rng.integers(1, max_dim + 1, size=count).tolist()]


def by_type(samples: list):
    """Group tuples of morphisms by their types, each group as one batch.

    Yields ``(members, batch)`` per group, in order of first appearance:
    ``members`` lists the indices in ``samples`` of the tuples whose
    morphisms have, position by position, the same domain and codomain,
    and ``batch`` holds one morphism per position whose leading axis
    stacks those tuples' entries in ``members`` order.
    """
    groups: dict = {}
    for n, mors in enumerate(samples):
        key = tuple((m.dom.factors, m.cod.factors) for m in mors)
        groups.setdefault(key, []).append(n)
    for members in groups.values():
        # np.array stacks equal shapes as np.stack does, at a fifth of
        # its cost on a few small matrices
        yield members, [
            Mor._of(m.dom, m.cod,
                    np.array([samples[n][j].array for n in members]),
                    m.semiring)
            for j, m in enumerate(samples[members[0]])]


LAW_NAMES = ("compose_assoc", "compose_unit_left", "compose_unit_right",
             "interchange", "tensor_unit_left", "tensor_unit_right",
             "dagger_involution", "dagger_antihomomorphism", "dagger_tensor",
             "dagger_identity", "swap_involution", "swap_naturality")


@dataclass
class LawReport:
    """Worst-case deviation per algebraic law over the sampled triples.

    ``ok`` asks :meth:`Semiring.within` of every law, so boolean laws
    are exact whatever ``tol`` is.
    """

    semiring: Semiring
    trials: int
    tol: float
    deviations: dict = field(default_factory=dict)

    @property
    def max_deviation(self) -> float:
        return functools.reduce(fold_max, self.deviations.values(), 0.0)

    @property
    def ok(self) -> bool:
        return all(self.semiring.within(dev, self.tol)
                   for dev in self.deviations.values())


def check_laws(semiring: Semiring, trials: int = 200, tol: float = DEFAULT_TOL,
               max_dim: int = 4, seed: int = 0) -> LawReport:
    """Sample random morphisms and measure every category-law residual.

    Laws covered: associativity and units of composition, interchange of
    tensor and composition, tensor units, dagger as an involutive
    anti-homomorphism compatible with tensor, and involution plus
    naturality of the swap.  Booleans must come out exactly, complex
    arithmetic within ``tol``.

    Each trial draws objects ``a, b, c, d`` in one :func:`draw_objects`
    call and morphisms ``f : a -> b``, ``g : b -> c``, ``h, f2 : c -> d``
    and ``g2 : d -> a``; each of the :func:`chunks` of trials is drawn
    first.  A law then runs once per group of a chunk's trials that agree
    on the objects it spans, as one batch (:func:`by_type`): the units,
    both involutions and the tensor units on ``(a, b)``, the dagger of a
    composite on ``(a, b, c)``, swap naturality on ``(b, c, d)``,
    associativity, interchange and the dagger of a tensor on all four,
    sharing ``g ∘ f`` and ``f ⊗ f2``; the dagger of an identity runs on
    ``a`` once per ``(a, b)`` group.  A batch gives each trial's residual
    bitwise, and a law reports only the ``np.max`` of its residuals,
    which neither order nor repetition changes and which keeps a NaN, so
    no grouping or chunking changes a report.

    The swap laws run on index permutations.  For each shape
    ``(x.dim, y.dim)`` one call computes, once, the source row of every
    output row of ``swap(x, y)`` from the index arithmetic alone, and the
    deviation of the public :func:`swap` from the permutation matrix of
    those rows.  Applying a swap is then a row gather on its left and a
    gather by the inverse rows on its right, which gives exactly the
    entries of the matrix product, and each swap law reports the larger
    of its residual and the deviations of the swaps it uses.  The rows of
    ``swap(y, x)`` invert those of ``swap(x, y)`` by the same arithmetic,
    so involution is exactly the two public swaps' deviations.  A wrong
    :func:`swap` therefore fails the laws while no permutation matrix is
    kept.  Identities are likewise built once per object in a call.
    """
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    if max_dim < 1:
        raise InvalidArgument(f"max_dim must be >= 1, got {max_dim}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    objects = draw_objects(max_dim)
    residuals: dict = {law: [] for law in LAW_NAMES}
    ident = functools.cache(lambda x: identity(x, semiring))

    @functools.cache
    def swap_rows(x: Obj, y: Obj) -> tuple:
        """``(rows, inverse rows, deviation of swap(x, y))`` for one shape."""
        rows = np.arange(x.dim * y.dim).reshape(x.dim, y.dim).T.reshape(-1)
        dev = semiring.deviation(swap(x, y, semiring).array,
                                 semiring.eye(rows.size)[rows])
        return rows, np.argsort(rows), dev

    def observe(law: str, x: Mor, y: Mor) -> None:
        residuals[law].append(np.max(max_abs_diff(x, y)))

    for chunk in chunks(trials):
        draws = []
        for _ in chunk:
            a, b, c, d = objects(rng, 4)
            draws.append((random_mor(rng, a, b, semiring),   # f
                          random_mor(rng, b, c, semiring),   # g
                          random_mor(rng, c, d, semiring),   # h
                          random_mor(rng, c, d, semiring),   # f2
                          random_mor(rng, d, a, semiring)))  # g2
        for _, (f,) in by_type([draw[:1] for draw in draws]):
            a, b = f.dom, f.cod
            observe("compose_unit_left", compose(ident(b), f), f)
            observe("compose_unit_right", compose(f, ident(a)), f)
            observe("tensor_unit_left", tensor(ident(UNIT), f), f)
            observe("tensor_unit_right", tensor(f, ident(UNIT)), f)
            observe("dagger_involution", f.dagger().dagger(), f)
            observe("dagger_identity", ident(a).dagger(), ident(a))
            # swap(b, a) after swap(a, b), against the identity: the
            # public swaps against their index permutations, which
            # invert each other by construction
            residuals["swap_involution"] += (swap_rows(a, b)[2],
                                             swap_rows(b, a)[2])
        for _, (f, g) in by_type([draw[:2] for draw in draws]):
            observe("dagger_antihomomorphism", compose(g, f).dagger(),
                    compose(f.dagger(), g.dagger()))
        for _, (g, h) in by_type([draw[1:3] for draw in draws]):
            cd_rows, _, cd_dev = swap_rows(h.dom, h.cod)
            _, bc_inverse, bc_dev = swap_rows(g.dom, h.dom)
            # swap(c, d) after g ⊗ h, against h ⊗ g after swap(b, c)
            residuals["swap_naturality"] += (
                cd_dev, bc_dev, semiring.deviation(
                    tensor(g, h).array[..., cd_rows, :],
                    tensor(h, g).array[..., bc_inverse]))
        for _, (f, g, h, f2, g2) in by_type(draws):
            gf, ff2 = compose(g, f), tensor(f, f2)
            observe("compose_assoc", compose(h, gf),
                    compose(compose(h, g), f))
            observe("interchange", compose(tensor(g, g2), ff2),
                    tensor(gf, compose(g2, f2)))
            observe("dagger_tensor", ff2.dagger(),
                    tensor(f.dagger(), f2.dagger()))
        # carry one residual per law over, so the lists stay short
        for devs in filter(None, residuals.values()):
            devs[:] = [np.max(devs)]
    # np.max, unlike the builtin, keeps a NaN residual wherever it sits
    return LawReport(semiring, trials, tol, {
        law: float(np.max(devs)) for law, devs in residuals.items()})

