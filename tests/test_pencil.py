"""Extended symplectic pencil: construction, the Riccati-based congruence,
reachability staircase, canonical block form, and the generalized
eigenstructure of the (possibly singular) pencil."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag

from lqpencil import (
    DecompositionError,
    PopovTriple,
    RiccatiDivergenceError,
    RiccatiNoConvergenceError,
    certify,
    iterate_grde,
)
from lqpencil.linalg import ranked_svd
from lqpencil import pencil
from lqpencil.pencil import (
    PencilDecomposition,
    _reachable_staging,
    canonical_form,
    generalized_spectrum,
    reachability_decomposition,
    riccati_congruence,
)
from lqpencil.riccati import InputSplit, split_inputs

from conftest import measured_normal_rank, random_singular_triple, rank_of, subspace_distance


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


def infinite_structure(p):
    """(algebraic, geometric) multiplicity of the eigenvalue at infinity
    of N - zM, computed independently of the canonical blocks.

    For the reversed pencil M - mu N, W_k is the k x k block
    lower-bidiagonal matrix with M on the diagonal and -N below it;
    dim ker W_k - dim ker W_(k-1) counts one vector per right minimal
    index (size - normal rank of them) plus one per Jordan block at
    mu = 0 (z = infinity) of size >= k.
    """
    right = p.size - measured_normal_rank(p)
    blocks, kernel_prev = [], 0
    for k in range(1, p.size + 1):
        W = np.kron(np.eye(k), p.M) - np.kron(np.eye(k, k=-1), p.N)
        kernel = k * p.size - rank_of(W)
        count = kernel - kernel_prev - right
        if count == 0:
            break
        blocks.append(count)
        kernel_prev = kernel
    return sum(blocks), blocks[0] if blocks else 0


def test_build_esp_scalar_layout():
    sigma = PopovTriple([[2.0]], [[3.0]], [[5.0]], [[7.0]], [[11.0]])
    p = sigma.esp
    assert p.size == 3
    np.testing.assert_array_equal(p.N, [[2.0, 0.0, 3.0],
                                        [5.0, -1.0, 7.0],
                                        [7.0, 0.0, 11.0]])
    np.testing.assert_array_equal(p.M, [[1.0, 0.0, 0.0],
                                        [0.0, -2.0, 0.0],
                                        [0.0, -3.0, 0.0]])
    np.testing.assert_array_equal(p.at(2.0), p.N - 2.0 * p.M)
    # assembled once, and read-only like Pi
    assert sigma.esp is p
    assert not (p.N.flags.writeable or p.M.flags.writeable)


def assert_rank_structure(spec, esp):
    """The spectrum's normal rank is the one measured on the pencil, and
    the pencil's rank drops at every reported finite eigenvalue."""
    assert spec.normal_rank == measured_normal_rank(esp)
    for ev in spec.finite_eigenvalues:
        assert rank_of(esp.at(ev.value)) < spec.normal_rank


def test_esp_rank_running_example(sing_dec):
    p = sing_dec.cert.sigma.esp
    assert p.size == 6
    assert rank_of(p.at(1.0)) == 5
    spec = generalized_spectrum(sing_dec)
    assert spec.normal_rank == 5
    assert_rank_structure(spec, p)


def test_congruence_matches_hand_display(sing_cert):
    U_X, V_X, _, _ = riccati_congruence(sing_cert)
    p = sing_cert.sigma.esp

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
    U_X, V_X, _, _ = riccati_congruence(cert)
    np.testing.assert_array_equal(U_X, np.eye(3))
    np.testing.assert_array_equal(V_X, np.diag([1.0, -1.0, 1.0]))


def test_congruence_units_are_unimodular(sing_cert):
    U_X, V_X, _, _ = riccati_congruence(sing_cert)
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
        p = sigma.esp
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


def staging_by_separate_rules(A, B, pol):
    """(U1, U2, index) by three separate rules: the image of the n-block
    Krylov stack of (A, B), the kernel of U1', and the prefix ranks of
    the Krylov stack of (U1'AU1, U1'B)."""
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    U1 = ranked_svd(np.hstack(blocks), pol).image
    r = U1.shape[1]
    A11, blocks = U1.T @ A @ U1, [U1.T @ B]
    for _ in range(r - 1):
        blocks.append(A11 @ blocks[-1])
    ranks = [rank_of(np.hstack(blocks[:k]), pol) for k in range(1, r + 1)]
    return U1, ranked_svd(U1.T, pol).kernel, ranks.index(r) + 1 if r else 0


def staging_pairs(rng):
    """Seeded (A, B) pairs for n = 1..8, m = 0..3: B = 0, a generic
    reachable pair, a shift chain of index n, and a block-triangular
    pair with an unreachable part, each in a random orthogonal basis."""
    for n in range(1, 9):
        for m in range(4):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            yield np.diag(rng.uniform(-1.5, 1.5, n)), np.zeros((n, m))
            yield rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=(n, m))
            e1 = np.zeros((n, m))
            e1[0, :1] = 1.0
            yield Q @ np.eye(n, k=-1) @ Q.T, Q @ e1
            k = int(rng.integers(1, n)) if n > 1 else 1
            A = rng.normal(size=(n, n)) / np.sqrt(n)
            A[k:, :k] = 0.0
            B = rng.normal(size=(n, m))
            B[k:] = 0.0
            yield Q @ A @ Q.T, Q @ B


@pytest.mark.parametrize("angle, message", [
    (np.pi / 4, "reachable subspace is not A_X-invariant"),
    (np.pi / 2, "im B2 escapes the reachable subspace"),
])
def test_decomposition_rejects_a_rotated_basis(monkeypatch, sing_cert, angle,
                                               message):
    # In the running example A_X = diag(1, 0) up to rounding, im B2 = e1
    # and r = 1.  Turning [U1 U2] by 45 degrees makes U1 = (e1 + e2)/sqrt 2,
    # which A_X does not keep; by 90 degrees U1 = e2, which A_X keeps
    # but which misses im B2.
    staging = pencil._reachable_staging

    def rotated(A, B, pol):
        U1, U2, index = staging(A, B, pol)
        c, s = np.cos(angle), np.sin(angle)
        return c * U1 + s * U2, c * U2 - s * U1, index

    monkeypatch.setattr(pencil, "_reachable_staging", rotated)
    with pytest.raises(DecompositionError, match=message):
        reachability_decomposition(sing_cert, split_inputs(sing_cert))


def test_reachable_staging_matches_separate_rules(pol):
    rng = np.random.default_rng(13)
    for A, B in staging_pairs(rng):
        U1, U2, index = _reachable_staging(A, B, pol)
        W1, _, old_index = staging_by_separate_rules(A, B, pol)
        assert (U1.shape[1], index) == (W1.shape[1], old_index)
        assert subspace_distance(U1, W1) <= 1e-10
        U = np.hstack([U1, U2])
        np.testing.assert_allclose(U.T @ U, np.eye(len(A)), atol=1e-12)


def test_canonical_form_equals_block_assembly(sing_dec):
    can = canonical_form(sing_dec)
    for z in (0.0, 1.0, 2.5, -0.3):
        np.testing.assert_allclose(can.at(z), esp_blocks(sing_dec, z),
                                   atol=1e-12)


def test_canonical_form_rejects_tampered_certificate(sing_cert, sing_dec):
    fake = dataclasses.replace(sing_cert, X=sing_cert.X + 0.1 * np.eye(2))
    with pytest.raises(DecompositionError, match="congruence"):
        canonical_form(dataclasses.replace(sing_dec, cert=fake))


def test_canonical_form_paper_basis_display(sing_cert):
    # hand-picked split/staircase: T1 = (1,1), T2 = (-1,1), U = I
    split = InputSplit(T1=np.array([[1.0], [1.0]]),
                       T2=np.array([[-1.0], [1.0]]),
                       R_X0=np.array([[4.0]]),
                       B1=np.array([[2.0], [2.0]]),
                       B2=np.array([[-2.0], [0.0]]))
    dec = PencilDecomposition(
        cert=sing_cert, split=split, U=np.eye(2), r=1,
        index=1, A_X11=np.array([[1.0]]), A_X12=np.array([[0.0]]),
        A_X22=np.array([[0.0]]), B11=np.array([[2.0]]),
        B12=np.array([[2.0]]), B21=np.array([[-2.0]]))
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


def test_spectrum_running_example(sing_dec):
    spec = generalized_spectrum(sing_dec)
    assert spec.normal_rank == 5
    assert len(spec.finite_eigenvalues) == 1
    ev = spec.finite_eigenvalues[0]
    assert abs(ev.value) <= 1e-9
    assert ev.multiplicity == 1
    assert (spec.infinite_algebraic, spec.infinite_geometric) == (2, 1)
    esp = sing_dec.cert.sigma.esp
    assert rank_of(esp.at(ev.value)) == 4
    assert infinite_structure(esp) == (2, 1)
    assert_rank_structure(spec, esp)
    # z = 1 is not an eigenvalue: full normal rank there
    assert rank_of(esp.at(1.0)) == spec.normal_rank


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
    # regular pencil: m1 = 2 infinite eigenvalues, in two 1 x 1 blocks
    assert spec.infinite_algebraic == 2
    assert spec.infinite_geometric == 2
    esp = dec.cert.sigma.esp
    assert infinite_structure(esp) == (2, 2)
    assert_rank_structure(spec, esp)


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
        esp = dec.cert.sigma.esp
        assert spec.normal_rank == 2 * sigma.n + dec.m1
        assert_rank_structure(spec, esp)
        assert infinite_structure(esp) == (
            spec.infinite_algebraic, spec.infinite_geometric)
        vals = [ev.value for ev in spec.finite_eigenvalues]
        mults = [ev.multiplicity for ev in spec.finite_eigenvalues]
        for ev in spec.finite_eigenvalues:
            if abs(ev.value) <= 1e-8:
                continue
            recip = 1.0 / ev.value
            match = [k for k, w in enumerate(vals)
                     if abs(w - recip) <= 1e-6 * (1.0 + abs(recip))]
            assert match, f"missing reciprocal of {ev.value}"
            assert mults[match[0]] == ev.multiplicity
        done += 1


def cluster_by_loop(values, tol):
    """The greedy clustering as one Python loop: values in order of
    their real, then imaginary parts rounded to 12 digits, each joining
    the first earlier centre within tol or starting a cluster."""
    ordered = sorted(values, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    clusters = []  # [centre, count]
    for z in ordered:
        for c in clusters:
            if abs(z - c[0]) <= tol:
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    return clusters


def cluster_inputs(tol):
    a = 0.3 - 0.7j
    rng = np.random.default_rng(5)
    yield "chain", np.array([a, a + 0.6 * tol, a + 1.2 * tol])
    yield "chain reversed", np.array([a + 1.2 * tol, a + 0.6 * tol, a])
    yield "real chain", np.array([2.0 + 1.2 * tol, 2.0, 2.0 + 0.6 * tol, -1.0])
    yield "duplicates", np.array([a, 1.5, a, a, 1.5 + 0j])
    yield "conjugate pairs", np.array([a, np.conj(a), 1j * tol / 4, -1j * tol / 4])
    # equal sort keys: the stable sort keeps input order, so the centre
    # is whichever came first
    yield "rounding ties", np.array([1.0 + 2e-13, 1.0 - 2e-13, 1.0 + 1e-13j, 1.0])
    yield "rounding ties reversed", np.array([1.0, 1.0 + 1e-13j, 1.0 - 2e-13,
                                              1.0 + 2e-13])
    yield "jittered", a + tol * (rng.uniform(0, 3, 40) + 1j * rng.uniform(0, 1, 40))
    yield "empty", np.zeros(0)


@pytest.mark.parametrize("name, values", list(cluster_inputs(1e-7)))
def test_cluster_matches_greedy_loop(name, values):
    tol = 1e-7
    centres, counts = pencil._cluster(values, tol)
    expected = cluster_by_loop(values, tol)
    want = np.array([c for c, _ in expected], dtype=values.dtype)
    assert centres.dtype == values.dtype
    assert centres.tobytes() == want.tobytes()
    assert counts.tolist() == [k for _, k in expected]


def infinite_by_full_chain(A22, B12, pol):
    """(algebraic, geometric) multiplicity of the eigenvalue 0 of the
    whole P_inf = [[I, 0, 0], [0, A22', 0], [0, B12', 0]], from the
    ranks of its powers."""
    d, m1 = B12.shape
    size = 2 * d + m1
    if size == 0:
        return 0, 0
    P = np.zeros((size, size))
    P[:d, :d] = np.eye(d)
    P[d:2 * d, d:2 * d] = A22.T
    P[2 * d:, d:2 * d] = B12.T
    geometric = size - rank_of(P, pol)
    prev, power, algebraic = size, np.eye(size), 0
    for _ in range(size):
        power = power @ P
        rank = rank_of(power, pol)
        if rank == prev:
            break
        algebraic, prev = size - rank, rank
    return algebraic, geometric


def jordan_at_zero(*sizes):
    """Nilpotent matrix with one Jordan block at 0 of each size."""
    return block_diag(*[np.eye(k, k=1) for k in sizes])


def infinite_cases():
    """(A22, B12, nilpotent) triples; nilpotent is None where the
    entries are too large for the unit-scale rank identities below."""
    rng = np.random.default_rng(23)
    J = jordan_at_zero(3, 2)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    for A22 in (J, Q @ J @ Q.T, jordan_at_zero(6)):
        d = len(A22)
        for m1, rank in ((3, 0), (3, 1), (3, 2), (3, 3), (0, 0)):
            B12 = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, m1))
            yield A22, B12, True
    yield np.zeros((0, 0)), np.zeros((0, 2)), True
    yield np.zeros((0, 0)), np.zeros((0, 0)), True
    # a nonsingular A22 beside a nilpotent one: a chain that stops early
    yield block_diag(np.diag([0.5, -2.0]), J), rng.normal(size=(7, 2)), False
    # entries so large that the rank cutoff passes the unit singular
    # values of the I block of P_inf
    yield np.diag([1e11, 0.0]), rng.normal(size=(2, 1)), None


def test_infinite_multiplicities_on_long_rank_chains(sing_dec, pol):
    for A22, B12, nilpotent in infinite_cases():
        d, m1 = B12.shape
        # the spectrum reads m1 off the split, as the column count of T1
        split = dataclasses.replace(sing_dec.split, T1=np.eye(m1))
        spec = generalized_spectrum(
            dataclasses.replace(sing_dec, split=split, A_X22=A22, B12=B12), pol)
        got = (spec.infinite_algebraic, spec.infinite_geometric)
        assert got == infinite_by_full_chain(A22, B12, pol)
        if nilpotent is None:
            continue
        # P_inf = blkdiag(I, M) with M nilpotent when A22 is
        if nilpotent:
            assert got[0] == d + m1
        assert got[1] == d + m1 - rank_of(np.vstack([A22.T, B12.T]), pol)
