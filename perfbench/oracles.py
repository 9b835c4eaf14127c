"""Reference results the benchmark checks cpcat against.

Each oracle computes its answer by a route the program does not take: an
einsum over the Kraus tensor instead of dense permutation products,
broadcasting instead of ``np.kron``, and closed-form counts for the axiom
reports.  They import nothing from cpcat.  (The boolean compose oracle,
numpy's native ``bool`` matmul, is one expression in ``workloads.py``.)
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9

# Doubled form from the cp.py docstring,
#   form[(a', b'), (a, b)] = sum_c conj(f[(b, c), a']) * f[(b', c), a],
# with F[b, c, a] = f[(b, c), a].
_FORM = "bcx,ycz->xyzb"


def kraus_tensor(entries: np.ndarray, out: int, ancilla: int) -> np.ndarray:
    """Kraus matrix ``(out * ancilla) x dom`` as ``F[out, ancilla, dom]``."""
    return np.asarray(entries).reshape(out, ancilla, -1)


def doubled_form(f: np.ndarray) -> np.ndarray:
    """Canonical doubled form of ``F[b, c, a]``, typed ``A⊗B -> A⊗B``.

    Boolean tensors give the exact OR of ANDs, through integer counts.
    """
    b, _, a = f.shape
    if f.dtype == np.bool_:
        g = f.astype(np.int64)
        return (np.einsum(_FORM, g, g) > 0).reshape(a * b, a * b)
    return np.einsum(_FORM, f.conj(), f).reshape(a * b, a * b)


def realized_view(form: np.ndarray, a: int, b: int) -> np.ndarray:
    """The cpm.py relabelling ``cp_form[(a', b'), (a, b)] = realized[(b, b'), (a', a)]``.

    Returns a view shaped ``(b, b', a', a)``, so no copy is made.
    """
    return form.reshape(a, b, a, b).transpose(3, 1, 0, 2)


def kraus_compose(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Kraus matrix of ``g after f``, ancillas ordered ``C_g ⊗ C_f``."""
    b2, cg, _ = g.shape
    _, cf, a = f.shape
    return np.einsum("ygb,bfa->ygfa", g, f).reshape(b2 * cg * cf, a)


def kraus_tensor_product(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Kraus matrix of the tensor: outputs ``B1 ⊗ B2`` then ancillas ``C1 ⊗ C2``."""
    b1, c1, a1 = f1.shape
    b2, c2, a2 = f2.shape
    six = f1[:, None, :, None, :, None] * f2[None, :, None, :, None, :]
    return six.reshape(b1 * b2 * c1 * c2, a1 * a2)


def kraus_adjoint(f: np.ndarray) -> np.ndarray:
    """Kraus matrix ``B -> A ⊗ C`` of the adjoint: ``g[(a, c), b] = conj(f[(b, c), a])``."""
    b, c, a = f.shape
    return f.conj().transpose(2, 1, 0).reshape(a * c, b)


def choi(f: np.ndarray) -> np.ndarray:
    """``choi[(i, i'), (j, j')] = sum_c f[(i', c), i] conj(f[(j', c), j])``."""
    b, _, a = f.shape
    return np.einsum("ycx,wcv->xyvw", f, f.conj()).reshape(a * b, a * b)


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tensor of matrices by a broadcast product (AND on booleans),
    big-endian like ``np.kron``."""
    (p, q), (r, s) = x.shape, y.shape
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(p * r, q * s)


# Entries compared per slice, so checking a 4096^2 result allocates
# megabytes rather than another copy of the result.
_CHUNK = 2 ** 20


def _slices(a: np.ndarray):
    step = max(1, _CHUNK // max(1, a[:1].size))
    return (slice(i, i + step) for i in range(0, len(a), step))


def close(actual: np.ndarray, expected: np.ndarray, tol: float = TOL) -> bool:
    """Exact for booleans, max-abs within ``tol`` otherwise; NaN never matches."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return False
    if expected.dtype == np.bool_:
        return actual.dtype == np.bool_ and bool((actual == expected).all())
    return all(np.all(np.abs(actual[s] - expected[s]) <= tol)
               for s in _slices(expected))


def max_abs_diff(x: np.ndarray, y: np.ndarray) -> float:
    """Largest entrywise distance, NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(x[s] - y[s])) for s in _slices(x)]))


def axiom_checked(axiom: str, samples: int, max_dim: int = 4) -> int:
    """Clauses an axiom runner reports for ``samples`` samples at its defaults.

    env-a walks the unit plus every ordered pair of the objects
    ``I, 1, ..., max_dim``; xi checks three functor laws and one doubling
    pair per sample; replay checks two steps on each of f and g plus their
    agreement, since its pairs share a codomain.
    """
    per_sample = {"env-b": 1, "env-c": 1, "doubling": 1, "prep-state": 1,
                  "xi": 4, "replay": 5}
    if axiom == "env-a":
        return 1 + (max_dim + 1) ** 2
    return per_sample[axiom] * samples


LAW_COUNT = 12


def parse_lines(text: str) -> list:
    """``key=value`` lines as ordered pairs."""
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        pairs.append((key, value))
    return pairs


def matches_output(text: str, head: list, entries: dict,
                   tol: float = TOL) -> bool:
    """Compare CLI output with expected lines.

    ``head`` lists the ``(key, value)`` pairs that are not matrix entries,
    in order; a string value must match exactly and a float value within
    ``tol``.  ``entries`` maps an entry-key prefix such as ``check[0].``
    to the expected matrix, compared row-major within ``tol`` scaled by
    the largest expected magnitude.
    """
    pairs = parse_lines(text)
    plain = [(k, v) for k, v in pairs if ".entry[" not in k
             and not k.startswith("entry[")]
    if [k for k, _ in plain] != [k for k, _ in head]:
        return False
    for (_, got), (_, want) in zip(plain, head):
        if isinstance(want, float):
            if not abs(float(got) - want) <= tol * (1.0 + abs(want)):
                return False
        elif got != want:
            return False
    for prefix, matrix in entries.items():
        values = [v for k, v in pairs if k.startswith(prefix + "entry[")]
        if len(values) != matrix.size:
            return False
        got = np.array([complex(*map(float, v.split())) for v in values])
        want = matrix.reshape(-1)
        scale = 1.0 + float(np.max(np.abs(want))) if want.size else 1.0
        if not np.all(np.abs(got - want) <= tol * scale):
            return False
    return True
