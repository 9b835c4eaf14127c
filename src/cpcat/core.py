"""Strict monoidal kernel: objects, morphisms, composition, dagger.

Conventions used throughout the package:

* Objects are finite lists of positive integer factors.  The tensor of
  objects concatenates factor lists and the monoidal unit is the empty
  list (dimension 1).  Factor lists are metadata: two objects are
  composable whenever their total dimensions agree.
* A morphism ``f : A -> B`` is stored as a ``cod.dim x dom.dim`` matrix.
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
* Two semirings are supported, complex doubles and booleans.  Boolean
  matrix product is OR of ANDs, so there is no subtraction and equality
  is exact; complex equality is max-abs within a tolerance.
  :meth:`Semiring.within` makes that decision for every comparison of
  morphisms, CP maps and axiom clauses.
* :meth:`Semiring.matmul` computes a boolean product by one of two
  exact routes, chosen by one shape rule: when both dims of the result
  are at least :data:`TABLE_MIN`, by lookup tables over bit-packed rows
  (:func:`_table_matmul`, the "Four Russians" method), otherwise by
  float32 BLAS.  The tables are exact because they only OR bits; BLAS
  is exact because every term is 0 or 1 and a float sum of such terms
  is positive exactly when one of them is.
* Two kernels sum and rewire indices inside the package.
  :func:`gram` is the Hermitian Gram product ``conj(m) @ m.T``, one
  :meth:`Semiring.matmul`: the doubled form, the Choi matrix and both
  channel pictures of a Kraus morphism are relabellings of one such
  product.
  :func:`contract` is one ``np.einsum`` on its own loops over
  factor-shaped views; it serves every other rewiring (relabelling
  factors, lifting by identities) and the realized matrix of
  :func:`cpcat.cpm.cpm_form`, the one result whose mirror symmetry is
  tested bitwise.  :func:`factor_permutation` and :func:`swap` build the
  same rewirings as explicit morphisms for users and tests; nothing
  inside the package multiplies by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, ShapeMismatch

DEFAULT_TOL = 1e-9

# Boolean products whose result has both dims at least this large take
# the table route.  Against float32 BLAS on one pinned thread, squares
# break even at 256-320 and the tables win 2.2x at 512 and 3.7-4.6x from
# 1024 up, but inner dims 2-4 still lose up to 1.8x at 448; 512 is the
# smallest measured size at which no inner dim from 1 to 64 loses by
# more than the run-to-run spread, and from 576 every one wins.
TABLE_MIN = 512


class Semiring:
    """Scalar arithmetic for one category instance.

    ``COMPLEX`` models finite-dimensional Hilbert spaces, ``BOOLEAN``
    models finite sets and relations.  Both carry compact structure;
    the flag exists so operations needing cups can refuse a semiring
    without them.
    """

    def __init__(self, name: str, dtype: type, compact: bool = True):
        self.name = name
        self.dtype = dtype
        self.compact = compact

    def __repr__(self) -> str:
        return f"Semiring({self.name})"

    def asarray(self, entries) -> np.ndarray:
        arr = np.asarray(entries)
        if self.dtype is np.bool_:
            if arr.dtype != np.bool_:
                if not np.isin(arr, (0, 1)).all():
                    raise InvalidArgument(
                        "boolean entries must be 0/1, got %r" % (arr,))
                arr = arr.astype(np.bool_)
            return arr
        return arr.astype(np.complex128, copy=False)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.dtype is np.bool_:
            # Large results from lookup tables: about k/8 row gathers per
            # output row whatever the density, and exact, as they only OR
            # bits.  Small ones through float32 BLAS, whose setup costs a
            # tenth as much there (0.004 ms against 0.04 at dims <= 16),
            # and which is exact at any size: every term is 0 or 1, and a
            # float sum of non-negative terms that include a 1 never
            # rounds below 1, nor one of zeros above 0.
            if min(a.shape[0], b.shape[1]) >= TABLE_MIN:
                return _table_matmul(a, b)
            return (a.astype(np.float32) @ b.astype(np.float32)) > 0
        return a @ b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``np.kron`` of two matrices: the same products, one broadcast."""
        (p, q), (r, t) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * t)

    def conj(self, a: np.ndarray) -> np.ndarray:
        """Entrywise conjugate as a fresh C-ordered array."""
        return a.copy() if self.dtype is np.bool_ else np.conj(a, order="C")

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def deviation(self, a: np.ndarray, b: np.ndarray) -> float:
        """Max-abs difference; boolean arrays give 0.0 or 1.0."""
        if self.dtype is np.bool_:
            return float((a != b).any())
        if not a.size:
            return 0.0
        # a difference past the float range is inf, which is the right
        # deviation; numpy's overflow warning would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.abs(a - b).max())

    def within(self, dev: float, tol: float) -> bool:
        """Whether a :meth:`deviation` counts as equality in this semiring.

        Boolean equality is exact whatever ``tol`` is; complex equality
        is a deviation of at most ``tol``.
        """
        if self.dtype is np.bool_:
            return dev == 0.0
        return dev <= tol


def _table_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean ``a @ b`` from 8-row lookup tables ("Four Russians").

    The rows of ``b`` are packed into ``uint64`` words.  For each group
    of 8 rows a 256-entry table holds the OR of every subset of them,
    built by doubling: entries ``2^j .. 2^(j+1) - 1`` are the first
    ``2^j`` ORed with row ``j``.  Output row ``i`` is then the OR, over
    the groups, of the table entry indexed by the byte of ``a[i]`` over
    that group's columns.  The tables hold ``4·k·n`` bytes; the result
    is unpacked once, as a fresh C-ordered ``bool`` array.  ``a`` and
    ``b`` may have any strides; the inner dim must be at least 1.
    """
    (m, k), n = a.shape, b.shape[1]
    groups, words = -(-k // 8), -(-n // 64)
    packed = np.zeros((groups * 8, words * 8), np.uint8)
    packed[:k, :-(-n // 8)] = np.packbits(b, axis=1, bitorder="little")
    rows = packed.view(np.uint64).reshape(groups, 8, words)
    tables = np.empty((groups, 256, words), np.uint64)
    tables[:, 0] = 0
    for j in range(8):
        np.bitwise_or(tables[:, :1 << j], rows[:, j, None],
                      out=tables[:, 1 << j:2 << j])
    # bit j of index[q, i] is a[i, 8q + j], as bit j of a table index
    # selects row j of its group
    index = np.packbits(a.T, axis=0, bitorder="little")
    acc = tables[0].take(index[0], axis=0)
    buf = np.empty_like(acc)
    for q in range(1, groups):
        acc |= tables[q].take(index[q], axis=0, out=buf)
    bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :n]).view(np.bool_)


COMPLEX = Semiring("complex", np.complex128)
BOOLEAN = Semiring("bool", np.bool_)

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

    Instances are immutable; every operation returns a fresh morphism,
    so values can be shared freely between threads.
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
        ``(cod.dim, dom.dim)``, and nothing else may write to it; it is
        marked read-only and kept as it is.  Never pass caller data.
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
        return Mor._of(self.cod, self.dom, self.semiring.conj(self.array.T),
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

    Entry ``[i, j]`` is ``sum_c conj(m[i, c]) m[j, c]``.  Complex entries
    go through BLAS, booleans through either exact route of
    :meth:`Semiring.matmul`.
    """
    return semiring.matmul(semiring.conj(m), m.T)


def contract(spec: str, *operands: np.ndarray, rows: int) -> np.ndarray:
    """The package's exact contraction kernel, for either semiring.

    ``operands`` are morphism arrays reshaped to their factor tensors
    (big-endian, so each reshape is a view) and ``spec`` is an
    ``np.einsum`` subscript string over them.  The result is returned as
    a ``rows``-row matrix: list the output subscripts codomain factors
    first.  A relabelling is a transpose and an index shared by two
    operands is summed, so no permutation matrix is ever built.  numpy
    sums boolean products as OR of AND, so booleans take the same path.
    """
    # einsum's own loops rather than ``optimize=True`` or :func:`gram`
    # (BLAS): they give every entry the same operations wherever it sits,
    # so a map and its adjoint contract to exactly mirrored results.
    # BLAS rounding depends on where a row sits and how its buffer is
    # aligned: with :func:`gram` in ``cpm_form``, ``cpm_form(cpm_dagger(k))
    # == cpm_form(k)†`` failed bitwise on 80 of the 240 shapes that
    # ``tests/test_cpm.py`` checks (up to 24^3, one BLAS thread).
    return np.einsum(spec, *operands).reshape(rows, -1)


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
    if factors:
        source = np.arange(n).reshape(factors).transpose(perm).reshape(-1)
    else:
        source = np.arange(n)
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
    return f.semiring.deviation(f.array, g.array)


def mor_equal(f: Mor, g: Mor, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality: exact for booleans, max-abs <= tol otherwise."""
    return f.semiring.within(max_abs_diff(f, g), tol)


def random_obj(rng: np.random.Generator, max_dim: int = 4) -> Obj:
    return Obj(int(rng.integers(1, max_dim + 1)))


def random_mor(rng: np.random.Generator, dom, cod,
               semiring: Semiring = COMPLEX) -> Mor:
    """Entries uniform in [-1, 1] per real part; booleans fair coin flips."""
    dom, cod = as_obj(dom), as_obj(cod)
    shape = (cod.dim, dom.dim)
    if semiring.dtype is np.bool_:
        return Mor._of(dom, cod, rng.random(shape) < 0.5, semiring)
    # one draw of both parts consumes the generator exactly as two would
    parts = rng.uniform(-1, 1, (2,) + shape)
    return Mor._of(dom, cod, parts[0] + 1j * parts[1], semiring)


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
        return max(self.deviations.values(), default=0.0)

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
    report = LawReport(semiring, trials, tol)
    swaps: dict = {}
    identities: dict = {}

    def ident(x: Obj) -> Mor:
        hit = identities.get(x)
        if hit is None:
            hit = identities[x] = identity(x, semiring)
        return hit

    def swap_rows(x: Obj, y: Obj) -> tuple:
        """``(rows, inverse rows, deviation of swap(x, y))`` for one shape."""
        key = (x.dim, y.dim)
        hit = swaps.get(key)
        if hit is None:
            rows = np.arange(x.dim * y.dim).reshape(key).T.reshape(-1)
            dev = semiring.deviation(swap(x, y, semiring).array,
                                     semiring.eye(rows.size)[rows])
            hit = swaps[key] = (rows, np.argsort(rows), dev)
        return hit

    for _ in range(trials):
        a, b, c, d = (random_obj(rng, max_dim) for _ in range(4))
        f = random_mor(rng, a, b, semiring)
        g = random_mor(rng, b, c, semiring)
        h = random_mor(rng, c, d, semiring)
        f2 = random_mor(rng, c, d, semiring)
        g2 = random_mor(rng, d, a, semiring)
        for law, x, y in (
                ("compose_assoc", compose(h, compose(g, f)),
                 compose(compose(h, g), f)),
                ("compose_unit_left", compose(ident(b), f), f),
                ("compose_unit_right", compose(f, ident(a)), f),
                ("interchange", compose(tensor(g, g2), tensor(f, f2)),
                 tensor(compose(g, f), compose(g2, f2))),
                ("tensor_unit_left", tensor(ident(UNIT), f), f),
                ("tensor_unit_right", tensor(f, ident(UNIT)), f),
                ("dagger_involution", f.dagger().dagger(), f),
                ("dagger_antihomomorphism", compose(g, f).dagger(),
                 compose(f.dagger(), g.dagger())),
                ("dagger_tensor", tensor(f, f2).dagger(),
                 tensor(f.dagger(), f2.dagger())),
                ("dagger_identity", ident(a).dagger(), ident(a))):
            report.deviations[law] = max(report.deviations.get(law, 0.0),
                                         max_abs_diff(x, y))
        cd_rows, _, cd_dev = swap_rows(c, d)
        _, bc_inverse, bc_dev = swap_rows(b, c)
        for law, dev in (
                # swap(b, a) after swap(a, b), against the identity: the
                # public swaps against their index permutations, which
                # invert each other by construction
                ("swap_involution",
                 max(swap_rows(a, b)[2], swap_rows(b, a)[2])),
                # swap(c, d) after g ⊗ h, against h ⊗ g after swap(b, c)
                ("swap_naturality",
                 max(cd_dev, bc_dev,
                     semiring.deviation(tensor(g, h).array[cd_rows],
                                        tensor(h, g).array[:, bc_inverse])))):
            report.deviations[law] = max(report.deviations.get(law, 0.0), dev)
    return report
