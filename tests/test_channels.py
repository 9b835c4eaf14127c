"""Choi matrices, superoperators, and Kraus extraction.

Kraus operators are the ancilla slices of ``f : A -> B ⊗ C``; densities
are vectorized row-major.  The transpose map supplies the standard
non-CP witness: its Choi matrix is the swap, with an eigenvalue of -1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcat import channels
from cpcat import (BOOLEAN, DEFAULT_TOL, KRAUS_EIG_TOL, ChoiMatrix, KrausMor,
                   Mor, Obj, Superoperator, check_cp, choi_of_kraus,
                   choi_of_superop, cp_deviation, heisenberg_of,
                   kraus_from_choi, random_isometry, random_mor,
                   random_unitary, schrodinger_of, superop_compose,
                   superop_of_choi, swap)
from cpcat.errors import (DimensionMismatch, InvalidArgument,
                          NotCompletelyPositive, NotHermitian, ShapeMismatch)


def random_kraus(rng, na, nb, nc):
    m = random_mor(rng, Obj(na), Obj(nb, nc))
    return KrausMor(m, Obj(nb), Obj(nc))


def kraus_slices(k):
    t = k.mor.array.reshape(k.out.dim, k.ancilla.dim, k.dom.dim)
    return [t[:, c, :] for c in range(k.ancilla.dim)]


def apply_channel(k, rho):
    return sum(op @ rho @ op.conj().T for op in kraus_slices(k))


def test_identity_channel_choi_is_the_maximally_entangled_projector():
    k = KrausMor(Mor(Obj(2), Obj(2), np.eye(2)), Obj(2), Obj(1))
    choi = choi_of_kraus(k)
    want = np.zeros((4, 4))
    for spot in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        want[spot] = 1.0
    assert np.array_equal(choi.matrix, want)
    ok, min_eig = check_cp(choi)
    assert ok
    assert min_eig >= -1e-12


def test_choi_matches_entry_loop():
    rng = np.random.default_rng(41)
    k = random_kraus(rng, 2, 3, 2)
    choi = choi_of_kraus(k)
    t = k.mor.array.reshape(3, 2, 2)
    for i in range(2):
        for ip in range(3):
            for j in range(2):
                for jp in range(3):
                    want = sum(t[ip, c, i] * np.conj(t[jp, c, j])
                               for c in range(2))
                    assert abs(choi.matrix[i * 3 + ip, j * 3 + jp]
                               - want) < 1e-12


def test_choi_of_kraus_rejects_boolean():
    m = Mor(Obj(2), Obj(2, 1), np.eye(2) > 0, BOOLEAN)
    with pytest.raises(InvalidArgument):
        choi_of_kraus(KrausMor(m, Obj(2), Obj(1)))


def test_transpose_choi_is_not_cp():
    choi = ChoiMatrix(2, 2, swap(2, 2).array)
    ok, min_eig = check_cp(choi)
    assert not ok
    assert abs(min_eig + 1.0) < 1e-9
    eigs = np.linalg.eigvalsh(choi.matrix)
    assert np.max(np.abs(np.sort(eigs) - np.array([-1.0, 1.0, 1.0, 1.0]))) < 1e-12
    with pytest.raises(NotCompletelyPositive):
        kraus_from_choi(choi)


def test_check_cp_rejects_non_hermitian_input():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        check_cp(ChoiMatrix(1, 2, m))


def test_a_nan_entry_is_not_hermitian():
    choi = ChoiMatrix(1, 2, np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(NotHermitian):
        check_cp(choi)
    with pytest.raises(NotHermitian):
        kraus_from_choi(choi)


def test_choi_matrix_validates_shape():
    with pytest.raises(ShapeMismatch):
        ChoiMatrix(2, 2, np.eye(3))
    with pytest.raises(ShapeMismatch):
        Superoperator(2, 2, np.eye(3))


def test_kraus_from_choi_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(5):
        k = random_kraus(rng, 2, 3, 2)
        choi = choi_of_kraus(k)
        result = kraus_from_choi(choi)
        assert result.reconstruction_error < 1e-12
        again = choi_of_kraus(result.mor)
        assert np.max(np.abs(again.matrix - choi.matrix)) < 1e-12


def test_kraus_round_trip_at_24_cubed_holds_at_the_default_tolerance():
    # a dense permutation of the doubled wires here would have 13824^2
    # entries (3 GB); the contraction kernel never builds one
    k = random_kraus(np.random.default_rng(43), 24, 24, 24)
    dilation = kraus_from_choi(choi_of_kraus(k))
    assert dilation.ancilla_dim == 24
    assert cp_deviation(dilation.mor, k) <= DEFAULT_TOL


def test_kraus_from_choi_trims_null_directions():
    rng = np.random.default_rng(43)
    v = random_isometry(rng, 2, 3)
    pure_k = KrausMor(v.retyped(Obj(2), Obj(3)), Obj(3), Obj(1))
    result = kraus_from_choi(choi_of_kraus(pure_k))
    assert result.ancilla_dim == 1
    # single Kraus operator equal to the isometry up to phase
    op = result.kraus_ops[0]
    overlap = np.trace(op.conj().T @ v.array) / 2.0
    assert abs(abs(overlap) - 1.0) < 1e-9


def spectral_kraus(rng, na, nb, spectrum):
    """A Kraus map whose Choi matrix is ``U diag(spectrum) U†``.

    ``U`` is a random unitary; each non-zero eigenvalue gets one
    operator, so the ancilla dimension is the rank.
    """
    u = random_unitary(rng, na * nb)
    keep = spectrum > 0
    w = u[:, keep] * np.sqrt(spectrum[keep])
    nc = w.shape[1]
    stacked = w.reshape(na, nb, nc).transpose(1, 2, 0).reshape(nb * nc, na)
    return KrausMor(Mor(Obj(na), Obj(nb, nc), stacked), Obj(nb), Obj(nc))


def oracle_case(rng, kind, na, nb):
    """A Kraus map of the given kind whose Choi spectrum avoids the cutoff.

    Non-zero eigenvalues are at least 1e-6, four decades above
    ``KRAUS_EIG_TOL``; zero ones come out of ``eigh`` near 1e-15.
    """
    n = na * nb
    if kind == "random":
        # complex-uniform operators; ancilla below, at and above n
        return random_kraus(rng, na, nb, int(rng.integers(1, n + 3)))
    spectrum = 10.0 ** rng.uniform(-6, 1, n)
    if kind == "deficient":
        spectrum[rng.integers(1, n + 1):] = 0.0
    elif kind == "degenerate":
        # a few levels, each repeated with relative splits of 1e-10
        levels = 10.0 ** rng.uniform(-3, 1, int(rng.integers(1, 4)))
        spectrum = rng.choice(levels, n) * (1 + 1e-10 * rng.random(n))
    return spectral_kraus(rng, na, nb, spectrum)


ORACLE_KINDS = ("random", "full", "deficient", "degenerate")


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_kraus_from_choi_agrees_with_the_eigh_oracle(kind):
    rng = np.random.default_rng([65, ORACLE_KINDS.index(kind)])
    tol = KRAUS_EIG_TOL
    for _ in range(4):
        for na in range(1, 5):
            for nb in range(1, 5):
                k = oracle_case(rng, kind, na, nb)
                choi = choi_of_kraus(k)
                vals = np.linalg.eigvalsh(choi.matrix)
                assert not np.any((vals > tol / 100) & (vals < 1e-6))
                kept = vals[vals > tol]
                result = kraus_from_choi(choi)
                assert result.ancilla_dim == kept.size
                ops = np.array([op.ravel() for op in result.kraus_ops])
                gram = ops.conj() @ ops.T
                assert (np.max(np.abs(gram - np.diag(kept)))
                        <= 1e-12 * kept[-1])
                assert cp_deviation(result.mor, k) <= DEFAULT_TOL


def test_kraus_from_choi_scales_its_certificate_with_the_entries():
    # Kraus entries near 1e3 put Choi entries near 1e6, where one ulp is
    # above 1e-10; the full-rank maps are CP and keep all four operators
    rng = np.random.default_rng(66)
    for _ in range(5):
        f = 1e3 * random_kraus(rng, 2, 2, 4).mor.array
        k = KrausMor(Mor(Obj(2), Obj(2, 4), f), Obj(2), Obj(4))
        choi = choi_of_kraus(k)
        result = kraus_from_choi(choi)
        assert result.ancilla_dim == 4
        scale = np.max(np.abs(choi.matrix))
        assert result.reconstruction_error <= KRAUS_EIG_TOL * scale
        assert cp_deviation(result.mor, k) <= DEFAULT_TOL * scale


@pytest.mark.parametrize("skew", [0.0, 0.45e-10])
def test_kraus_from_choi_keeps_an_eigenvalue_spread_below_the_cutoff(skew):
    # eigenvalues 1, 1.8e-10 and 0: the middle one lies on two diagonal
    # entries of 0.9e-10, each below tol; an anti-Hermitian part within
    # tol is not counted against the reconstruction
    s = 0.9e-10
    m = np.array([[1, 0, 0], [0, s, s + skew], [0, s - skew, s]])
    result = kraus_from_choi(ChoiMatrix(1, 3, m))
    assert result.ancilla_dim == 2
    weights = [np.vdot(op, op).real for op in result.kraus_ops]
    assert np.allclose(weights, [2 * s, 1.0], rtol=1e-9, atol=0)
    assert result.reconstruction_error <= 1e-20


def test_zero_channel_keeps_one_zero_operator():
    k = KrausMor(Mor(Obj(2), Obj(2), np.zeros((2, 2))), Obj(2), Obj(1))
    result = kraus_from_choi(choi_of_kraus(k))
    assert result.ancilla_dim == 1
    assert np.max(np.abs(result.kraus_ops[0])) == 0.0


def test_schrodinger_matches_direct_kraus_action():
    rng = np.random.default_rng(44)
    k = random_kraus(rng, 2, 3, 2)
    s = schrodinger_of(k)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = apply_channel(k, rho)
    assert np.max(np.abs(s.apply(rho) - want)) < 1e-12
    assert np.max(np.abs(s.matrix @ rho.ravel() - want.ravel())) < 1e-12


def test_heisenberg_is_adjoint_under_the_trace_pairing():
    rng = np.random.default_rng(45)
    k = random_kraus(rng, 2, 3, 2)
    s = schrodinger_of(k)
    h = heisenberg_of(k)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = np.vdot(x.ravel(), s.matrix @ rho.ravel())
    rhs = np.vdot(h.matrix @ x.ravel(), rho.ravel())
    assert abs(lhs - rhs) < 1e-12


def test_heisenberg_of_isometry_channel_is_unital():
    rng = np.random.default_rng(46)
    v = random_isometry(rng, 2, 6)
    k = KrausMor(v.retyped(Obj(2), Obj(6)), Obj(3), Obj(2))
    h = heisenberg_of(k)
    assert np.max(np.abs(h.apply(np.eye(3)) - np.eye(2))) < 1e-12


def test_superop_compose_matches_staged_application():
    rng = np.random.default_rng(47)
    f = random_kraus(rng, 2, 3, 2)
    g = random_kraus(rng, 3, 2, 3)
    both = superop_compose(schrodinger_of(g), schrodinger_of(f))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = apply_channel(g, apply_channel(f, rho))
    assert np.max(np.abs(both.apply(rho) - want)) < 1e-12
    with pytest.raises(DimensionMismatch):
        superop_compose(schrodinger_of(f), schrodinger_of(f))


def test_choi_and_superop_views_convert_both_ways():
    rng = np.random.default_rng(48)
    k = random_kraus(rng, 3, 2, 2)
    s = schrodinger_of(k)
    choi = choi_of_kraus(k)
    assert np.max(np.abs(choi_of_superop(s).matrix - choi.matrix)) < 1e-12
    assert np.max(np.abs(superop_of_choi(choi).matrix - s.matrix)) < 1e-12


@pytest.mark.parametrize("shape", [(1, 3, 2), (3, 1, 2), (2, 3, 1),
                                   (1, 1, 1), (2, 3, 4), (5, 4, 3),
                                   (16, 16, 16)])
def test_channel_matrices_match_their_einsum_sums(shape):
    na, nb, nc = shape
    k = random_kraus(np.random.default_rng([64, *shape]), na, nb, nc)
    t = k.mor.array.reshape(nb, nc, na)
    for got, spec, left, right, rows in (
            (choi_of_kraus(k).matrix, "bca,dce->abed", t, t.conj(), na * nb),
            (schrodinger_of(k).matrix, "bca,dce->bdae", t, t.conj(), nb * nb),
            (heisenberg_of(k).matrix, "bca,dce->aebd", t.conj(), t, na * na)):
        want = np.einsum(spec, left, right).reshape(rows, -1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- check_cp: the factor's residual, then the spectrum --------------------

HERMITIAN_KINDS = ("low-rank", "full-rank", "indefinite", "low-rank-indefinite")


def hermitian_case(rng, kind, n):
    """An exactly Hermitian ``U diag(spectrum) U†`` of the given kind.

    Exactly Hermitian, so the Hermitian part ``check_cp`` reads is the
    matrix itself.  Non-zero eigenvalues are at least 1e-3 in magnitude,
    far from the 1e-9 tolerance either way.
    """
    u = random_unitary(rng, n)
    spectrum = 10.0 ** rng.uniform(-3, 1, n)
    if kind == "full-rank":
        spectrum = 10.0 ** rng.uniform(-1, 1, n)
    if kind in ("indefinite", "low-rank-indefinite"):
        spectrum *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
        spectrum[0] = -abs(spectrum[0])
    if kind == "low-rank":
        spectrum[rng.integers(0, n):] = 0.0
    elif kind == "low-rank-indefinite" and n > 1:
        spectrum[rng.integers(1, n):] = 0.0
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2


def assert_check_cp_matches_the_spectrum(m, tol=1e-9):
    """Verdict as ``eigvalsh``'s; value a lower bound within ``2·‖R‖∞``."""
    n = len(m)
    ok, value = check_cp(ChoiMatrix(1, n, m), tol)
    lam = np.linalg.eigvalsh(m)[0]
    assert ok == (lam >= -tol)
    lh, _ = channels._pivoted_cholesky(m)
    res = m - lh.conj().T @ lh
    rounding = 64 * n * np.finfo(float).eps * np.abs(m).sum(axis=1).max()
    assert value <= lam + rounding
    assert lam - value <= 2 * np.abs(res).sum(axis=1).max() + rounding
    if len(lh) == n or not ok:
        assert value == lam
    return len(lh)


SPECTRUM_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=200)


@SPECTRUM_SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(HERMITIAN_KINDS),
       st.integers(1, 12))
def test_check_cp_agrees_with_eigvalsh_on_generated_inputs(seed, kind, n):
    assert_check_cp_matches_the_spectrum(
        hermitian_case(np.random.default_rng(seed), kind, n))


@pytest.mark.parametrize("kind", HERMITIAN_KINDS)
def test_check_cp_agrees_with_eigvalsh_on_seeded_inputs(kind):
    rng = np.random.default_rng([67, HERMITIAN_KINDS.index(kind)])
    for n in range(1, 13):
        for _ in range(3):
            rank = assert_check_cp_matches_the_spectrum(
                hermitian_case(rng, kind, n))
            if kind == "full-rank":
                assert rank == n


def test_a_rank_deficient_cp_matrix_is_decided_without_the_spectrum(
        monkeypatch):
    def no_spectrum(h):
        raise AssertionError("eigvalsh called on a rank-deficient CP input")
    choi = choi_of_kraus(random_kraus(np.random.default_rng(68), 3, 4, 2))
    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    ok, value = check_cp(choi)
    assert ok and -1e-12 <= value <= 0.0


def rank_deficient_indefinite():
    # eigenvalues 1, 0.5, 0, 0, 0 and -2e-9: singular, indefinite by 2·tol
    u = random_unitary(np.random.default_rng(69), 6)
    m = (u * np.array([1.0, 0.5, 0.0, 0.0, 0.0, -2e-9])) @ u.conj().T
    return (m + m.conj().T) / 2


def zero_diagonal():
    rng = np.random.default_rng(70)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    zero = np.zeros((3, 3))
    return np.block([[zero, b], [b.conj().T, zero]])


def overflowing_residual():
    # exactly Hermitian, eigenvalues about ±1.41e308: the first pivot
    # leaves -inf on the diagonal, so R and its Gershgorin bound are not
    # finite, and the bound must not pass for zero
    return np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)


@pytest.mark.parametrize("make", [lambda: swap(2, 2).array,
                                  lambda: swap(3, 3).array, zero_diagonal,
                                  rank_deficient_indefinite,
                                  overflowing_residual])
def test_an_undecided_residual_falls_back_to_the_exact_eigenvalue(make):
    m = make()
    n = len(m)
    assert len(ChoiMatrix(1, n, m)._factor[0]) < n
    ok, value = check_cp(ChoiMatrix(1, n, m))
    assert not ok
    assert value == np.linalg.eigvalsh(m)[0] < -1e-9


# --- the cached factor -----------------------------------------------------

def test_check_cp_and_kraus_from_choi_share_one_factorization(monkeypatch):
    calls = []
    factor = channels._pivoted_cholesky

    def counted(h):
        calls.append(h.shape)
        return factor(h)
    monkeypatch.setattr(channels, "_pivoted_cholesky", counted)
    choi = choi_of_kraus(random_kraus(np.random.default_rng(71), 3, 3, 2))
    assert check_cp(choi)[0]
    kraus_from_choi(choi)
    check_cp(choi, 1e-6)
    assert calls == [(9, 9)]
    lh, d = choi._factor
    assert not lh.flags.writeable and not d.flags.writeable


def two_transposed_passes(m):
    """Hermitian deviation and part, each from its own transposed pass."""
    dev = float(np.abs(m - m.conj().T).max())
    h = m * 0.5
    h += h.conj().T
    return dev, h


def choi_input(kind, n, rng):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "hermitian":
        return x + x.conj().T
    if kind == "huge":
        return x * 4e307
    if kind == "subnormal":
        # odd multiples of the least subnormal: halving them rounds
        return np.round(x * 8) * 5e-324
    if kind == "signed-zero":
        # zeros of either sign in either part, next to nonzero parts
        return np.round(x) * np.where(rng.random((n, n)) < 0.5, -0.0, 1.0)
    return x


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kind", ["random", "hermitian", "huge", "subnormal",
                                  "signed-zero"])
@pytest.mark.parametrize("in_dim,out_dim", [(1, 1), (2, 3), (4, 4), (16, 16)])
def test_one_transposed_copy_gives_the_deviation_and_part_bitwise(
        kind, in_dim, out_dim):
    n = in_dim * out_dim
    choi = ChoiMatrix(in_dim, out_dim,
                      choi_input(kind, n, np.random.default_rng([n, 5])))
    with np.errstate(over="ignore"):
        dev, h = two_transposed_passes(choi.matrix)
    assert choi.hermitian_deviation == dev
    assert choi._hermitian.tobytes() == h.tobytes()
    assert not choi._hermitian.flags.writeable


def test_the_cached_deviation_is_compared_with_each_callers_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-6
    choi = ChoiMatrix(1, 2, m)
    assert check_cp(choi, 1e-3)[0]
    with pytest.raises(NotHermitian):
        check_cp(choi, 1e-12)
    with pytest.raises(NotHermitian):
        kraus_from_choi(choi, 1e-12)
    assert choi.hermitian_deviation == 1e-6
