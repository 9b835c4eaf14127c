"""Acceptance gate: thirteen desk-scale checks covering the whole stack.

Each criterion is one test that prints a single ``criterion NN ...:
PASS`` or ``FAIL`` line (run pytest with ``-s`` to see them on success;
failures show the line in the captured output).  Dimensions stay small
(<= 4) so the full gate runs in seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cpcat import (BOOLEAN, COMPLEX, ChoiMatrix, CpmMor, KrausMor, Mor, Obj,
                   UNIT, check_cp, check_doubling_base, check_doubling_pair,
                   check_env_a, check_laws, check_prep_state_base,
                   check_prep_state_pair, choi_of_kraus, choi_of_superop,
                   compose, cp_compose, cp_equal, cp_form, cp_tensor,
                   cpm_form, cup, identity, kraus_from_choi, max_abs_diff,
                   pure, random_mor, random_unitary, schrodinger_of,
                   superop_compose, swap, tensor, transpose, EnvStructure)
from cpcat.axioms import run_doubling, run_env_b, run_env_c, run_replay

GOLDEN = Path(__file__).parent / "golden"


def verdict(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {label} failed{suffix}"


def random_kraus(rng, semiring=COMPLEX, max_dim=3):
    na, nb, nc = rng.integers(1, max_dim + 1, size=3)
    m = random_mor(rng, Obj(int(na)), Obj(int(nb), int(nc)), semiring)
    return KrausMor(m, Obj(int(nb)), Obj(int(nc)))


def test_c01_category_laws():
    complex_report = check_laws(COMPLEX, trials=200, seed=101, max_dim=4)
    bool_report = check_laws(BOOLEAN, trials=200, seed=101, max_dim=4)
    ok = (complex_report.ok and complex_report.max_deviation <= 1e-9
          and bool_report.ok and bool_report.max_deviation == 0.0)
    verdict(1, "category laws", ok,
            f"max deviation {complex_report.max_deviation:.3g}")


def test_c02_compact_structure():
    rng = np.random.default_rng(102)
    worst = 0.0
    ok = True
    for semiring in (COMPLEX, BOOLEAN):
        exact = semiring is BOOLEAN
        for n in range(1, 5):
            wire = identity(n, semiring)
            bend = cup(n, semiring)
            left = compose(tensor(bend.dagger(), wire), tensor(wire, bend))
            right = compose(tensor(wire, bend.dagger()), tensor(bend, wire))
            for snake in (left, right):
                dev = max_abs_diff(snake, wire)
                worst = max(worst, dev)
                ok = ok and (dev == 0.0 if exact else dev <= 1e-12)
        for a in range(1, 5):
            for b in range(1, 5):
                f = random_mor(rng, Obj(a), Obj(b), semiring)
                slid = compose(tensor(f, identity(a, semiring)),
                               cup(a, semiring))
                other = compose(tensor(identity(b, semiring), transpose(f)),
                                cup(b, semiring))
                dev = max_abs_diff(slid, other)
                worst = max(worst, dev)
                ok = ok and (dev == 0.0 if exact else dev <= 1e-12)
    verdict(2, "snake and sliding identities", ok, f"max deviation {worst:.3g}")


def test_c03_cp_soundness():
    rng = np.random.default_rng(103)
    min_seen = np.inf
    for _ in range(100):
        choi = choi_of_kraus(random_kraus(rng))
        _, min_eig = check_cp(choi)
        min_seen = min(min_seen, min_eig)
    verdict(3, "Choi positivity of Kraus maps", min_seen >= -1e-9,
            f"min eigenvalue {min_seen:.3g}")


def test_c04_cp_completeness():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        choi = choi_of_kraus(random_kraus(rng))
        result = kraus_from_choi(choi)
        again = choi_of_kraus(result.mor)
        worst = max(worst, float(np.max(np.abs(again.matrix - choi.matrix))))
    verdict(4, "dilation round trip", worst <= 1e-8,
            f"max reconstruction error {worst:.3g}")


def test_c05_cpm_cp_isomorphism():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        k = random_kraus(rng)
        na, nb = k.dom.dim, k.out.dim
        form = cp_form(k).array.reshape(na, nb, na, nb)
        real = cpm_form(k).array.reshape(nb, nb, na, na)
        dev = float(np.max(np.abs(form - real.transpose(2, 1, 3, 0))))
        worst = max(worst, dev)
    # the realized matrix alone determines the map: relabel it to the
    # Choi matrix, extract Kraus operators and compare with the original
    preserved = True
    for _ in range(100):
        k = random_kraus(rng)
        na, nb = k.dom.dim, k.out.dim
        real = cpm_form(k).array.reshape(nb, nb, na, na)
        choi = real.transpose(3, 1, 2, 0).reshape(na * nb, na * nb)
        back = kraus_from_choi(ChoiMatrix(na, nb, choi)).mor
        preserved = preserved and cp_equal(back, k)
    verdict(5, "doubled-form relabelling", worst <= 1e-12 and preserved,
            f"max entry deviation {worst:.3g}")


def test_c06_functoriality():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        f = random_kraus(rng)
        # composition through pure representatives and superoperators
        mid = f.out.dim
        g = KrausMor(random_mor(rng, f.out, Obj(mid, 2)), Obj(mid), Obj(2))
        gf = cp_compose(g, f)
        s_direct = schrodinger_of(gf).matrix
        s_staged = superop_compose(schrodinger_of(g),
                                   schrodinger_of(f)).matrix
        worst = max(worst, float(np.max(np.abs(s_direct - s_staged))))
        c_direct = choi_of_kraus(gf).matrix
        c_staged = choi_of_superop(superop_compose(
            schrodinger_of(g), schrodinger_of(f))).matrix
        worst = max(worst, float(np.max(np.abs(c_direct - c_staged))))
        # pure is functorial on plain morphisms
        x = random_mor(rng, Obj(2), Obj(3))
        y = random_mor(rng, Obj(3), Obj(2))
        dev = max_abs_diff(cp_form(pure(compose(y, x))),
                           cp_form(cp_compose(pure(y), pure(x))))
        worst = max(worst, dev)
        # tensor against the interleaved Kronecker of superoperators
        k1 = random_kraus(rng, max_dim=2)
        k2 = random_kraus(rng, max_dim=2)
        joint = schrodinger_of(cp_tensor(k1, k2)).matrix
        a1, a2 = k1.dom.dim, k2.dom.dim
        b1, b2 = k1.out.dim, k2.out.dim
        parts = np.kron(schrodinger_of(k1).matrix, schrodinger_of(k2).matrix)
        reordered = (joint.reshape(b1, b2, b1, b2, a1, a2, a1, a2)
                     .transpose(0, 2, 1, 3, 4, 6, 5, 7)
                     .reshape(parts.shape))
        worst = max(worst, float(np.max(np.abs(reordered - parts))))
    verdict(6, "functoriality of lifting and Choi", worst <= 1e-9,
            f"max deviation {worst:.3g}")


def test_c07_equality_equivalence():
    rng = np.random.default_rng(107)
    agree = True
    worst_gap = 0.0
    for i in range(100):
        k1 = random_kraus(rng)
        if i % 2 == 0:
            k2 = random_kraus(rng)
            if (k2.dom, k2.out, k2.ancilla) != (k1.dom, k1.out, k1.ancilla):
                continue
        else:
            u = random_unitary(rng, k1.ancilla.dim)
            rotated = tensor(identity(k1.out), Mor(k1.ancilla, k1.ancilla, u))
            k2 = KrausMor(compose(rotated, k1.mor), k1.out, k1.ancilla)
        by_form = cp_equal(k1, k2, tol=1e-9)
        choi_gap = float(np.max(np.abs(choi_of_kraus(k1).matrix
                                       - choi_of_kraus(k2).matrix)))
        by_choi = choi_gap <= 1e-9
        agree = agree and (by_form == by_choi)
        if by_form:
            worst_gap = max(worst_gap, choi_gap)
    verdict(7, "form equality matches Choi equality", agree,
            f"max Choi gap on equal pairs {worst_gap:.3g}")


def test_c08_environment_axioms():
    objects = [UNIT, Obj(2), Obj(3), Obj(4)]
    a_complex = check_env_a(EnvStructure.standard(COMPLEX), objects)
    a_bool = check_env_a(EnvStructure.standard(BOOLEAN), objects)
    part_a = (a_complex.holds and a_complex.max_deviation <= 1e-12
              and a_bool.holds and a_bool.max_deviation == 0.0)
    b_complex = run_env_b(COMPLEX, samples=100, seed=108, tol=1e-9)
    b_bool = run_env_b(BOOLEAN, samples=100, seed=108, tol=1e-9)
    part_b = b_complex.holds and b_bool.holds and b_complex.checked >= 100
    c_report = run_env_c(COMPLEX, samples=100, seed=108, tol=1e-8)
    part_c = c_report.holds
    verdict(8, "environment structure", part_a and part_b and part_c,
            f"a={part_a} b={part_b} c={part_c}")


def test_c09_doubling():
    sampled = run_doubling(COMPLEX, samples=100, seed=109)
    sampled_bool = run_doubling(BOOLEAN, samples=100, seed=109)
    rng = np.random.default_rng(109)
    k = random_kraus(rng)
    phases = all(
        check_doubling_pair(
            k, KrausMor(Mor(k.dom, k.mor.cod,
                            np.exp(2j * np.pi * j / 12) * k.mor.array),
                        k.out, k.ancilla)).holds
        for j in range(12))
    base = check_doubling_base(Mor(UNIT, UNIT, np.array([[1.0]])),
                               Mor(UNIT, UNIT, np.array([[-1.0]])))
    flagged = (not base.holds and base.status == "counterexample"
               and base.witness["single_deviation"] == 2.0)
    ok = sampled.holds and sampled_bool.holds and phases and flagged
    verdict(9, "doubling biconditional", ok,
            f"sampled={sampled.checked} phases=12 counterexample={flagged}")


def test_c10_preparation_state_agreement():
    rng = np.random.default_rng(110)
    m = random_mor(rng, UNIT, Obj(2, 2))
    grid_ok = True
    for j in range(12):
        theta = 2.0 * np.pi * j / 12.0
        phi = CpmMor.of(KrausMor(m, Obj(2), Obj(2)))
        psi = CpmMor.of(KrausMor(
            Mor(UNIT, Obj(2, 2), np.exp(1j * theta) * m.array),
            Obj(2), Obj(2)))
        grid_ok = grid_ok and check_prep_state_pair(phi, psi).holds
    base = check_prep_state_base(Mor(UNIT, UNIT, np.array([[1.0]])),
                                 Mor(UNIT, UNIT, np.array([[-1.0]])))
    flagged = not base.holds and "states=False" in " ".join(base.notes)
    verdict(10, "preparation-state agreement", grid_ok and flagged,
            f"grid=12 base counterexample={flagged}")


def test_c11_proposition_replay():
    complex_report = run_replay(COMPLEX, samples=50, seed=111, tol=1e-9)
    bool_report = run_replay(BOOLEAN, samples=50, seed=111)
    ok = (complex_report.holds and complex_report.max_deviation <= 1e-9
          and bool_report.holds and bool_report.max_deviation == 0.0)
    verdict(11, "rewrite-step replay", ok,
            f"{complex_report.checked}+{bool_report.checked} identities")


def test_c12_transpose_witness():
    is_cp, min_eig = check_cp(ChoiMatrix(2, 2, swap(2, 2).array))
    ok = (not is_cp) and abs(min_eig + 1.0) <= 1e-9
    verdict(12, "transpose non-CP witness", ok,
            f"min eigenvalue {min_eig:.12g}")


def test_c13_dsl_cli_corpus():
    good = sorted(GOLDEN.glob("*.cps"))
    bad = sorted(GOLDEN.glob("*.bad"))
    ok = len(good) == 20 and len(bad) == 3
    for path in good:
        first = path.read_text().splitlines()[0]
        semiring = "bool" if "semiring: bool" in first else "complex"
        proc = subprocess.run(
            [sys.executable, "-m", "cpcat", "eval", "--script", str(path),
             "--semiring", semiring],
            capture_output=True, text=True, env=dict(os.environ))
        ok = ok and proc.returncode == 0
        ok = ok and proc.stdout == path.with_suffix(".out").read_text()
    for path in bad:
        proc = subprocess.run(
            [sys.executable, "-m", "cpcat", "eval", "--script", str(path)],
            capture_output=True, text=True, env=dict(os.environ))
        ok = ok and proc.returncode == 2 and "error: line" in proc.stderr
    verdict(13, "script corpus and CLI exits", ok,
            f"{len(good)} scripts, {len(bad)} malformed")
