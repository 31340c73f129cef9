"""Extended symplectic pencil: construction, the Riccati-based congruence,
reachability staircase, canonical block form, and the generalized
eigenstructure of the (possibly singular) pencil."""

import dataclasses

import numpy as np
import pytest

from lqpencil import (
    DecompositionError,
    PopovTriple,
    RiccatiDivergenceError,
    RiccatiNoConvergenceError,
    certify,
    iterate_grde,
)
from lqpencil.linalg import rank_of
from lqpencil.pencil import (
    Pencil,
    PencilDecomposition,
    build_esp,
    canonical_form,
    generalized_spectrum,
    normal_rank,
    probe_ranks,
    reachability_decomposition,
    riccati_congruence,
)
from lqpencil.riccati import InputSplit, split_inputs

from conftest import random_singular_triple


def esp_blocks(dec, z):
    """Expected canonical block form, assembled independently of the
    implementation: rows (x1, l1, u2, x2, l2, u1), and the regular part
    (x2, l2, u1) decoupled in the trailing corner."""
    r, nr, m1, m2 = dec.r, dec.n - dec.r, dec.m1, dec.m2
    A11, A12, A22 = dec.A_X11, dec.A_X12, dec.A_X22
    B11, B12, B21 = dec.B11, dec.B12, dec.B21
    R0 = dec.split.R_X0
    Ir, Inr = np.eye(r), np.eye(nr)

    def Z(a, b):
        return np.zeros((a, b))

    rows = [
        [A11 - z * Ir, B21, Z(r, r), A12, Z(r, nr), B11],
        [Z(r, r), Z(r, m2), Ir - z * A11.T, Z(r, nr), Z(r, nr), Z(r, m1)],
        [Z(m2, r), Z(m2, m2), -z * B21.T, Z(m2, nr), Z(m2, nr), Z(m2, m1)],
        [Z(nr, r), Z(nr, m2), Z(nr, r), A22 - z * Inr, Z(nr, nr), B12],
        [Z(nr, r), Z(nr, m2), -z * A12.T, Z(nr, nr), Inr - z * A22.T, Z(nr, m1)],
        [Z(m1, r), Z(m1, m2), -z * B11.T, Z(m1, nr), -z * B12.T, R0],
    ]
    return np.block(rows)


def test_build_esp_scalar_layout():
    sigma = PopovTriple([[2.0]], [[3.0]], [[5.0]], [[7.0]], [[11.0]])
    p = build_esp(sigma)
    assert p.size == 3
    np.testing.assert_array_equal(p.N, [[2.0, 0.0, 3.0],
                                        [5.0, -1.0, 7.0],
                                        [7.0, 0.0, 11.0]])
    np.testing.assert_array_equal(p.M, [[1.0, 0.0, 0.0],
                                        [0.0, -2.0, 0.0],
                                        [0.0, -3.0, 0.0]])
    np.testing.assert_array_equal(p.at(2.0), p.N - 2.0 * p.M)


def test_esp_rank_running_example(sing_triple):
    p = build_esp(sing_triple)
    assert p.size == 6
    assert rank_of(p.at(1.0)) == 5
    assert normal_rank(p) == 5


def test_congruence_matches_hand_display(sing_cert):
    U_X, V_X = riccati_congruence(sing_cert)
    p = build_esp(sing_cert.sigma)

    def display(z):
        return np.array([
            [1 - z, 0, 0, 0, 2, 0],
            [0, -z, 0, 0, 1, 1],
            [0, 0, 1 - z, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, -2 * z, -z, 1, 1],
            [0, 0, 0, -z, 1, 1],
        ], dtype=float)

    for z in (0.0, 1.0, 0.7, 2.3):
        np.testing.assert_allclose(U_X @ p.at(z) @ V_X, display(z),
                                   atol=1e-12)


def test_congruence_trivial_for_zero_solution():
    sigma = PopovTriple([[0.5]], [[1.0]], [[0.0]], [[0.0]], [[1.0]])
    cert = certify(sigma, [[0.0]])
    U_X, V_X = riccati_congruence(cert)
    np.testing.assert_array_equal(U_X, np.eye(3))
    np.testing.assert_array_equal(V_X, np.diag([1.0, -1.0, 1.0]))


def test_congruence_units_are_unimodular(sing_cert):
    U_X, V_X = riccati_congruence(sing_cert)
    assert abs(np.linalg.det(U_X)) == pytest.approx(1.0)
    assert abs(np.linalg.det(V_X)) == pytest.approx(1.0)


def test_congruence_rejects_tampered_certificate(sing_cert):
    fake = dataclasses.replace(sing_cert, X=sing_cert.X + 0.1 * np.eye(2))
    with pytest.raises(DecompositionError):
        riccati_congruence(fake)


def test_determinant_identity_regular_family():
    rng = np.random.default_rng(101)
    done = 0
    while done < 8:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        W = rng.normal(size=(n + m + 1, n + m))
        pi = W.T @ W
        sigma = PopovTriple(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                            pi[:n, :n], pi[:n, n:], pi[n:, n:])
        try:
            cert = iterate_grde(sigma)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        riccati_congruence(cert)  # raises if the identity fails at 0, 1
        p = build_esp(sigma)
        for _ in range(3):
            z = complex(rng.normal(), rng.normal())
            lhs = np.linalg.det(p.at(z))
            rhs = (-1.0) ** n * (
                np.linalg.det(cert.A_X - z * np.eye(n))
                * np.linalg.det(np.eye(n) - z * cert.A_X.T)
                * np.linalg.det(cert.R_X))
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))
        done += 1


def test_reachability_decomposition_running_example(sing_dec):
    dec = sing_dec
    assert dec.r == 1
    assert dec.n == 2 and dec.m1 == 1 and dec.m2 == 1
    np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(2), atol=1e-14)
    # closed-loop reachable subspace of the free part is span e1
    np.testing.assert_allclose(np.abs(dec.U[:, 0]), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(dec.A_X11, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(dec.A_X12, [[0.0]], atol=1e-14)
    np.testing.assert_allclose(dec.A_X22, [[0.0]], atol=1e-14)
    # basis-independent block invariants
    R0inv = np.linalg.inv(dec.split.R_X0)
    np.testing.assert_allclose(dec.B12 @ R0inv @ dec.B12.T, [[1.0]],
                               atol=1e-12)
    np.testing.assert_allclose(dec.B21 @ dec.B21.T, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(dec.B11 @ R0inv @ dec.B11.T, [[1.0]],
                               atol=1e-12)


def test_reachability_decomposition_staircase_structure(sing_cert, sing_dec):
    U1 = sing_dec.U[:, :sing_dec.r]
    U2 = sing_dec.U[:, sing_dec.r:]
    # invariance: A_X maps the reachable part into itself, B2 lands in it
    np.testing.assert_allclose(U2.T @ sing_cert.A_X @ U1, 0.0, atol=1e-12)
    np.testing.assert_allclose(U2.T @ sing_dec.split.B2, 0.0, atol=1e-12)
    # (A_X11, B21) is reachable by construction
    ctrl = np.hstack([np.linalg.matrix_power(sing_dec.A_X11, k) @ sing_dec.B21
                      for k in range(sing_dec.r)])
    assert rank_of(ctrl) == sing_dec.r


def test_reachability_decomposition_regular_case():
    sigma = PopovTriple(np.diag([2.0, 0.5]), np.eye(2), np.zeros((2, 2)),
                        np.zeros((2, 2)), np.eye(2))
    cert = certify(sigma, np.zeros((2, 2)))
    dec = reachability_decomposition(cert, split_inputs(cert))
    assert dec.r == 0 and dec.m2 == 0
    assert dec.B21.shape == (0, 0)
    np.testing.assert_allclose(dec.U.T @ cert.A_X @ dec.U, dec.A_X22)


def test_canonical_form_equals_block_assembly(sing_dec):
    can = canonical_form(sing_dec)
    for z in (0.0, 1.0, 2.5, -0.3):
        np.testing.assert_allclose(can.at(z), esp_blocks(sing_dec, z),
                                   atol=1e-12)


def test_canonical_form_paper_basis_display(sing_cert):
    # hand-picked split/staircase: T1 = (1,1), T2 = (-1,1), U = I
    split = InputSplit(T1=np.array([[1.0], [1.0]]),
                       T2=np.array([[-1.0], [1.0]]),
                       R_X0=np.array([[4.0]]),
                       B1=np.array([[2.0], [2.0]]),
                       B2=np.array([[-2.0], [0.0]]))
    U_X, V_X = riccati_congruence(sing_cert)
    dec = PencilDecomposition(
        cert=sing_cert, split=split, U_X=U_X, V_X=V_X, U=np.eye(2), r=1,
        index=1, A_X11=np.array([[1.0]]), A_X12=np.array([[0.0]]),
        A_X22=np.array([[0.0]]), B11=np.array([[2.0]]),
        B12=np.array([[2.0]]), B21=np.array([[-2.0]]),
        pencil=build_esp(sing_cert.sigma))
    can = canonical_form(dec)

    def display(z):
        return np.array([
            [1 - z, -2, 0, 0, 0, 2],
            [0, 0, 1 - z, 0, 0, 0],
            [0, 0, 2 * z, 0, 0, 0],
            [0, 0, 0, -z, 0, 2],
            [0, 0, 0, 0, 1, 0],
            [0, 0, -2 * z, 0, -2 * z, 4],
        ], dtype=float)

    for z in (0.0, 1.0, 0.7):
        np.testing.assert_allclose(can.at(z), display(z), atol=1e-12)


def test_canonical_form_random_singular_instances(pol):
    rng = np.random.default_rng(211)
    done = 0
    while done < 6:
        sigma = random_singular_triple(rng)
        try:
            cert = iterate_grde(sigma)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        can = canonical_form(dec)
        scale = 1.0 + np.abs(can.N).max() + np.abs(can.M).max()
        for z in (0.0, 1.0, -0.8):
            np.testing.assert_allclose(can.at(z), esp_blocks(dec, z),
                                       atol=1e-10 * scale)
        done += 1


def test_canonical_form_empty_blocks():
    """The canonical reordering with empty blocks: a regular
    decomposition (r = 0, m2 = 0, so x1, l1 and u2 are empty) and an
    all-free one (Pi = 0 and X = 0, so m1 = 0 and, with (A, B)
    reachable, x2, l2 and u1 are empty)."""
    rng = np.random.default_rng(17)
    n, m = 3, 2
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
    W = rng.normal(size=(n + m + 1, n + m))
    pi = W.T @ W
    regular = iterate_grde(PopovTriple(0.5 * A, B, pi[:n, :n], pi[:n, n:],
                                       pi[n:, n:]))
    free = certify(PopovTriple(A, B, np.zeros((n, n)), np.zeros((n, m)),
                               np.zeros((m, m))), np.zeros((n, n)))
    cases = []
    for cert in (regular, free):
        dec = reachability_decomposition(cert, split_inputs(cert))
        cases.append((dec.r, dec.m1, dec.m2))
        can = canonical_form(dec)
        scale = 1.0 + np.abs(can.N).max() + np.abs(can.M).max()
        for z in (0.0, 1.0, 2.5, -0.3):
            np.testing.assert_allclose(can.at(z), esp_blocks(dec, z),
                                       atol=1e-12 * scale)
    assert cases == [(0, m, 0), (n, 0, m)]


def test_probe_ranks_deterministic(sing_triple):
    p = build_esp(sing_triple)
    a = probe_ranks(p)
    b = probe_ranks(p)
    assert a == b
    assert len(a) == p.size + 1
    assert all(rk == 5 for _, rk in a)
    c = probe_ranks(p, seed=7)
    assert c != a
    assert max(rk for _, rk in c) == 5


def test_probe_ranks_avoid_list(sing_triple):
    p = build_esp(sing_triple)
    first = probe_ranks(p)
    taboo = [z for z, _ in first]
    second = probe_ranks(p, avoid=taboo)
    assert all(min(abs(z - w) for w in taboo) > 1e-3 for z, _ in second)


def test_normal_rank_examples(sing_triple):
    assert normal_rank(build_esp(sing_triple)) == 5
    sigma = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert normal_rank(build_esp(sigma)) == 3
    assert normal_rank(Pencil(np.zeros((2, 2)), np.zeros((2, 2)))) == 0


def test_spectrum_running_example(sing_dec):
    spec = generalized_spectrum(sing_dec)
    assert spec.normal_rank == 5
    assert len(spec.finite_eigenvalues) == 1
    ev = spec.finite_eigenvalues[0]
    assert abs(ev.value) <= 1e-9
    assert ev.multiplicity == 1
    assert ev.rank_at_value == 4
    assert (spec.infinite_algebraic, spec.infinite_geometric) == (2, 1)
    assert (spec.refined_algebraic, spec.refined_geometric) == (1, 1)
    assert len(spec.probes) == 7
    # z = 1 is not an eigenvalue: full normal rank there
    assert rank_of(sing_dec.pencil.at(1.0)) == spec.normal_rank


def test_spectrum_regular_reciprocal_pairs():
    sigma = PopovTriple(np.diag([2.0, 0.5]), np.eye(2), np.zeros((2, 2)),
                        np.zeros((2, 2)), np.eye(2))
    cert = certify(sigma, np.zeros((2, 2)))
    dec = reachability_decomposition(cert, split_inputs(cert))
    spec = generalized_spectrum(dec)
    assert spec.normal_rank == 6
    got = sorted((round(ev.value.real, 6), ev.multiplicity)
                 for ev in spec.finite_eigenvalues)
    assert got == [(0.5, 2), (2.0, 2)]
    # regular pencil: m1 infinite eigenvalues, all in one chain here
    assert spec.infinite_algebraic == 2
    assert spec.infinite_geometric == 2
    assert spec.refined_algebraic == spec.infinite_algebraic


def test_spectrum_invariants_random_singular():
    rng = np.random.default_rng(307)
    done = 0
    while done < 8:
        sigma = random_singular_triple(rng)
        try:
            cert = iterate_grde(sigma)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        spec = generalized_spectrum(dec)
        assert spec.normal_rank == 2 * sigma.n + dec.m1
        vals = [ev.value for ev in spec.finite_eigenvalues]
        mults = [ev.multiplicity for ev in spec.finite_eigenvalues]
        for ev in spec.finite_eigenvalues:
            # each finite eigenvalue is an actual rank drop
            assert ev.rank_at_value < spec.normal_rank
            if abs(ev.value) <= 1e-8:
                continue
            recip = 1.0 / ev.value
            match = [k for k, w in enumerate(vals)
                     if abs(w - recip) <= 1e-6 * (1.0 + abs(recip))]
            assert match, f"missing reciprocal of {ev.value}"
            assert mults[match[0]] == ev.multiplicity
        done += 1
