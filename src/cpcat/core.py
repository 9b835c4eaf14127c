"""Strict monoidal kernel: objects, morphisms, composition, dagger.

Conventions used throughout the package:

* Objects are finite lists of positive integer factors.  The tensor of
  objects concatenates factor lists and the monoidal unit is the empty
  list (dimension 1).  Factor lists are metadata: two objects are
  composable whenever their total dimensions agree.
* A morphism ``f : A -> B`` is stored as a ``cod.dim x dom.dim`` matrix.
* Tensor indices are big-endian: the leftmost factor is the most
  significant digit of a flattened index, which is exactly the ordering
  ``np.kron`` produces.
* Two semirings are supported, complex doubles and booleans.  Boolean
  matrix product is OR of ANDs, so there is no subtraction and equality
  is exact; complex equality is max-abs within a tolerance.
  :meth:`Semiring.within` makes that decision for every comparison of
  morphisms, CP maps and axiom clauses.
* Every internal index rewiring (relabelling factors, lifting by
  identities, summing an ancilla) goes through :func:`contract`, one
  ``np.einsum`` over factor-shaped views.  :func:`factor_permutation`
  and :func:`swap` build the same rewirings as explicit morphisms for
  users and tests; nothing inside the package multiplies by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, ShapeMismatch

DEFAULT_TOL = 1e-9


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
            # OR of ANDs through float32 BLAS.  Exact at any size: every
            # term is 0 or 1, and a float sum of non-negative terms that
            # include a 1 never rounds below 1, nor one of zeros above 0.
            return (a.astype(np.float32) @ b.astype(np.float32)) > 0
        return a @ b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.kron(a, b)

    def conj(self, a: np.ndarray) -> np.ndarray:
        return a.copy() if self.dtype is np.bool_ else np.conj(a)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def deviation(self, a: np.ndarray, b: np.ndarray) -> float:
        """Max-abs difference; boolean arrays give 0.0 or 1.0."""
        if self.dtype is np.bool_:
            return float((a != b).any())
        return float(np.max(np.abs(a - b))) if a.size else 0.0

    def within(self, dev: float, tol: float) -> bool:
        """Whether a :meth:`deviation` counts as equality in this semiring.

        Boolean equality is exact whatever ``tol`` is; complex equality
        is a deviation of at most ``tol``.
        """
        if self.dtype is np.bool_:
            return dev == 0.0
        return dev <= tol


COMPLEX = Semiring("complex", np.complex128)
BOOLEAN = Semiring("bool", np.bool_)

SEMIRINGS = {"complex": COMPLEX, "bool": BOOLEAN}


class Obj:
    """A tensor-factor list.  ``Obj()`` is the monoidal unit."""

    __slots__ = ("factors",)

    def __init__(self, *factors: int):
        for d in factors:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise InvalidArgument(f"factor dimensions must be >= 1, got {d!r}")
        self.factors = tuple(int(d) for d in factors)

    @property
    def dim(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def tensor(self, other: "Obj") -> "Obj":
        return Obj(*(self.factors + other.factors))

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

    def __repr__(self) -> str:
        return f"Mor({self.dom!r} -> {self.cod!r}, {self.semiring.name})"

    def dagger(self) -> "Mor":
        return Mor(self.cod, self.dom, self.semiring.conj(self.array).T,
                   self.semiring)

    def conjugate(self) -> "Mor":
        """Entrywise conjugate, same type ``dom -> cod``."""
        return Mor(self.dom, self.cod, self.semiring.conj(self.array),
                   self.semiring)

    def retyped(self, dom, cod) -> "Mor":
        """Same entries under a new factor bracketing of equal total dims."""
        dom, cod = as_obj(dom), as_obj(cod)
        if (dom.dim, cod.dim) != (self.dom.dim, self.cod.dim):
            raise DimensionMismatch(
                f"cannot retype {self!r} to {dom!r} -> {cod!r}")
        return Mor(dom, cod, self.array, self.semiring)

    def then(self, other: "Mor") -> "Mor":
        """Diagrammatic composition: ``f.then(g)`` is g after f."""
        return compose(other, self)

    __rshift__ = then

    def __matmul__(self, other: "Mor") -> "Mor":
        return tensor(self, other)


def identity(obj, semiring: Semiring = COMPLEX) -> Mor:
    obj = as_obj(obj)
    return Mor(obj, obj, semiring.eye(obj.dim), semiring)


def compose(g: Mor, f: Mor) -> Mor:
    """Applicative-order composite ``g after f``."""
    if f.semiring is not g.semiring:
        raise DimensionMismatch("cannot compose across semirings")
    if f.cod.dim != g.dom.dim:
        raise DimensionMismatch(
            f"compose: codomain dim {f.cod.dim} != domain dim {g.dom.dim}")
    return Mor(f.dom, g.cod, g.semiring.matmul(g.array, f.array), g.semiring)


def tensor(f: Mor, g: Mor) -> Mor:
    if f.semiring is not g.semiring:
        raise DimensionMismatch("cannot tensor across semirings")
    return Mor(f.dom.tensor(g.dom), f.cod.tensor(g.cod),
               f.semiring.kron(f.array, g.array), f.semiring)


def contract(spec: str, *operands: np.ndarray, rows: int) -> np.ndarray:
    """The package's one contraction kernel, for either semiring.

    ``operands`` are morphism arrays reshaped to their factor tensors
    (big-endian, so each reshape is a view) and ``spec`` is an
    ``np.einsum`` subscript string over them.  The result is returned as
    a ``rows``-row matrix: list the output subscripts codomain factors
    first.  A relabelling is a transpose and an index shared by two
    operands is summed, so no permutation matrix is ever built.  numpy
    sums boolean products as OR of AND, so booleans take the same path.
    """
    # einsum's own loops rather than ``optimize=True`` (BLAS): they give
    # every entry the same operations wherever it sits, so a map and its
    # adjoint contract to exactly mirrored results; BLAS tiles do not.
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
    return Mor(dom, cod, semiring.eye(n)[source], semiring)


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
        return Mor(dom, cod, rng.random(shape) < 0.5, semiring)
    entries = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    return Mor(dom, cod, entries, semiring)


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
    """
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    if max_dim < 1:
        raise InvalidArgument(f"max_dim must be >= 1, got {max_dim}")
    rng = np.random.default_rng(seed)
    report = LawReport(semiring, trials, tol)
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
                ("compose_unit_left", compose(identity(b, semiring), f), f),
                ("compose_unit_right", compose(f, identity(a, semiring)), f),
                ("interchange", compose(tensor(g, g2), tensor(f, f2)),
                 tensor(compose(g, f), compose(g2, f2))),
                ("tensor_unit_left", tensor(identity(UNIT, semiring), f), f),
                ("tensor_unit_right", tensor(f, identity(UNIT, semiring)), f),
                ("dagger_involution", f.dagger().dagger(), f),
                ("dagger_antihomomorphism", compose(g, f).dagger(),
                 compose(f.dagger(), g.dagger())),
                ("dagger_tensor", tensor(f, f2).dagger(),
                 tensor(f.dagger(), f2.dagger())),
                ("dagger_identity", identity(a, semiring).dagger(),
                 identity(a, semiring)),
                ("swap_involution",
                 compose(swap(b, a, semiring), swap(a, b, semiring)),
                 identity(a.tensor(b), semiring)),
                ("swap_naturality",
                 compose(swap(c, d, semiring), tensor(g, h)),
                 compose(tensor(h, g), swap(b, c, semiring)))):
            report.deviations[law] = max(report.deviations.get(law, 0.0),
                                         max_abs_diff(x, y))
    return report
