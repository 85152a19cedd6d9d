"""Eigendecomposition, spectral evolution, tridiagonal inverse/determinant."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.chain import ChainSpec, build_chain, interior_block
from zenochain.dynamics import default_time_grid
from zenochain.errors import SingularMatrixError, ValidationError
from zenochain.qzd import analyze_watch
from zenochain.linalg import (
    PHASE_EPS,
    SymTridiagMatrix,
    _fix_phases,
    det_tridiag,
    eig_sym_dense,
    eig_sym_tridiag,
    eigvals_sym_tridiag,
    eigvecs_sym_tridiag,
    evolve,
    evolve_grid,
    inverse_corner_tridiag,
    invert_tridiag,
    phase_sums,
    solve_bordered_tridiag,
)

from .oracles import (
    cofactor_det,
    direct_exp_evolve,
    gaussian_elimination_inverse,
    rk4_evolve,
    scan_fix_phases,
)

K = 1.0

# even, odd and shifted-odd chains, small and large
ORACLE_CHAINS = [
    ChainSpec(4, 20.0),
    ChainSpec(40, 20.0),
    ChainSpec(5, 20.0),
    ChainSpec(95, 20.0),
    ChainSpec(5, 20.0, delta_omega=20.0),
    ChainSpec(95, 20.0, delta_omega=20.0),
]
ORACLE_IDS = ["even4", "even40", "odd5", "odd95", "shifted5", "shifted95"]


def tridiag(diag, offdiag) -> SymTridiagMatrix:
    return SymTridiagMatrix(np.asarray(diag, float), np.asarray(offdiag, float))


@st.composite
def well_conditioned_tridiag(draw, max_size: int = 50):
    """Diagonally dominant random tridiagonal matrices (safely invertible)."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    diag = draw(
        st.lists(
            st.floats(min_value=2.0, max_value=5.0), min_size=n, max_size=n
        )
    )
    off = draw(
        st.lists(
            st.floats(min_value=-0.9, max_value=0.9), min_size=n - 1, max_size=n - 1
        )
    )
    return tridiag(diag, off)


class TestEig:
    def test_two_site(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        assert_allclose(d.eigenvalues, [-K, K], atol=1e-14)
        assert_allclose(d.eigenvectors[:, 0], [1, -1] / np.sqrt(2), atol=1e-14)
        assert_allclose(d.eigenvectors[:, 1], [1, 1] / np.sqrt(2), atol=1e-14)

    def test_four_site_watch_spectrum(self):
        watch = build_chain(ChainSpec(n_sites=4, lambda_inv=5.0)).h_watch
        d = eig_sym_tridiag(watch)
        assert_allclose(d.eigenvalues, [-K, 0.0, 0.0, K], atol=1e-14)

    def test_five_site_interior_block(self):
        # brute-force characteristic polynomial of the 3x3 block:
        # x^3 - 2 k^2 x, roots {-sqrt(2) k, 0, +sqrt(2) k}
        watch = build_chain(ChainSpec(n_sites=5, lambda_inv=5.0)).h_watch
        block = interior_block(watch)
        d = eig_sym_tridiag(block)
        roots = np.sort(np.roots([1.0, 0.0, -2.0 * K**2, 0.0]).real)
        assert_allclose(d.eigenvalues, roots, atol=1e-12)
        assert_allclose(d.eigenvalues, [-np.sqrt(2) * K, 0.0, np.sqrt(2) * K], atol=1e-12)

    def test_size_one(self):
        d = eig_sym_tridiag(tridiag([3.0], []))
        assert_allclose(d.eigenvalues, [3.0])
        assert_allclose(d.eigenvectors, [[1.0]])

    @given(well_conditioned_tridiag(max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, m):
        d = eig_sym_tridiag(m)
        n = m.size
        assert np.all(np.diff(d.eigenvalues) >= 0)
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10
        rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
        scale = max(1e-300, m.max_abs_entry())
        assert np.max(np.abs(rebuilt - m.to_dense())) < 1e-10 * scale
        for col in d.eigenvectors.T:
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_dense_matches_tridiag(self):
        m = tridiag([0.0, 1.0, -2.0, 0.5], [1.0, 0.3, 2.0])
        dt = eig_sym_tridiag(m)
        dd = eig_sym_dense(m.to_dense())
        assert_allclose(dd.eigenvalues, dt.eigenvalues, atol=1e-12)
        assert_allclose(dd.eigenvectors, dt.eigenvectors, atol=1e-10)

    def test_dense_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            eig_sym_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_dense_symmetry_check_is_relative(self):
        # one triangle only: eigh would silently read the lower one
        with pytest.raises(ValidationError, match="symmetric"):
            eig_sym_dense(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        assert_allclose(eig_sym_dense(np.zeros((2, 2))).eigenvalues, [0.0, 0.0])

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(4, 20.0, k=1e-11), ChainSpec(5, 20.0, k=1e-11),
         ChainSpec(5, 20.0, k=1e-11, delta_omega=20e-11)],
        ids=["even4", "odd5", "modified5"],
    )
    def test_dense_accepts_small_effective_matrices(self, spec):
        # both orders, including the odd chain's order 1, which is round-off
        hams = build_chain(spec)
        analysis = analyze_watch(hams.h_watch, hams.h_weak, spec.lam)
        for rep in (analysis.order0, analysis.order1):
            padding = np.zeros(spec.n_sites - rep.block.shape[0])
            expect = np.sort(np.concatenate([np.linalg.eigvalsh(rep.block), padding]))
            got = eig_sym_dense(rep.matrix).eigenvalues
            assert_allclose(got, expect, rtol=0.0, atol=1e-12 * spec.k)


class TestPhases:
    @given(
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_of_every_entry(self, n, seed, data):
        # a random orthogonal matrix with the leading rows of some columns
        # zeroed or shrunk to at most PHASE_EPS, down to whole zero columns
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for j in range(n):
            lead = data.draw(st.integers(0, n))
            scale = data.draw(st.sampled_from([0.0, 1.0, PHASE_EPS, 0.5 * PHASE_EPS]))
            q[:lead, j] *= scale
        want = scan_fix_phases(q, PHASE_EPS)
        got = _fix_phases(q.copy())
        assert np.array_equal(got, want)


class TestPartialEig:
    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_match_full_decomposition(self, spec):
        h = build_chain(spec).h_watch
        d = eig_sym_tridiag(h)
        assert_allclose(eigvals_sym_tridiag(h), d.eigenvalues, rtol=0.0, atol=1e-14)
        # the d0 columns of the watch's zero level span its zero eigenspace
        lo, hi = np.searchsorted(d.eigenvalues, [-1e-9, 1e-9])
        v = eigvecs_sym_tridiag(h, lo, hi)
        assert v.shape == (spec.n_sites, hi - lo)
        assert np.max(np.abs(v.T @ v - np.eye(hi - lo))) < 1e-14
        p, want = v @ v.T, d.eigenvectors[:, lo:hi] @ d.eigenvectors[:, lo:hi].T
        assert np.max(np.abs(p - want)) < 1e-13
        for col in v.T:
            assert col[np.abs(col) > PHASE_EPS][0] > 0

    def test_size_one(self):
        m = tridiag([3.0], [])
        assert_allclose(eigvals_sym_tridiag(m), [3.0])
        assert_allclose(eigvecs_sym_tridiag(m, 0, 1), [[1.0]])


@st.composite
def singular_tridiag(draw):
    """An irreducible random tridiagonal matrix shifted so that one of its
    eigenvalues is zero, optionally between two isolated zero sites."""
    n = draw(st.integers(1, 40))
    diag = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    off = draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    m = tridiag(diag, off)
    w = eig_sym_tridiag(m).eigenvalues
    i = draw(st.integers(0, n - 1))
    m = tridiag(diag - w[i], off)
    if draw(st.booleans()):
        m = tridiag(np.concatenate(([0.0], m.diag, [0.0])), np.concatenate(([0.0], off, [0.0])))
    return m


class TestBorderedSolve:
    @given(singular_tridiag(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_is_the_sum_over_the_other_eigenpairs(self, m, seed):
        d = eig_sym_tridiag(m)
        zero = np.abs(d.eigenvalues) <= 1e-12 * max(1.0, m.max_abs_entry())
        v, u, eta = d.eigenvectors[:, zero], d.eigenvectors[:, ~zero], d.eigenvalues[~zero]
        b = np.random.default_rng(seed).normal(size=(m.size, 3))
        b -= v @ (v.T @ b)
        x = solve_bordered_tridiag(m, v, b)
        want = u @ ((u.T @ b) / eta[:, None])
        gap = np.min(np.abs(eta), initial=np.inf)
        tol = 1e-13 * m.max_abs_entry() * np.linalg.norm(b) / gap**2
        assert np.max(np.abs(x - want)) <= max(tol, 1e-13)
        assert np.max(np.abs(v.T @ x)) <= max(tol, 1e-13)

    def test_lifts_distinct_rows_of_a_shared_block(self):
        # an irreducible matrix with eigenvalues -+1e-9, which a grouping
        # tolerance can merge into one level: both eigenvectors have their
        # largest entry on one row, and the pivoted rows must still differ
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(6, 6)))
        t = scipy.linalg.hessenberg(q @ np.diag([-1e-9, 1e-9, 1.0, -2.0, 3.0, 1.5]) @ q.T)
        m = tridiag(np.diag(t), np.diag(t, 1))
        d = eig_sym_tridiag(m)
        v, u = d.eigenvectors[:, 1:3], np.delete(d.eigenvectors, [1, 2], axis=1)
        eta = np.delete(d.eigenvalues, [1, 2])
        assert len(set(np.argmax(np.abs(v), axis=0))) == 1
        b = u[:, :2] + u[:, 2:]
        want = u @ ((u.T @ b) / eta[:, None])
        assert_allclose(solve_bordered_tridiag(m, v, b), want, rtol=0.0, atol=1e-13)


class TestEvolve:
    def test_t_zero_is_identity(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0, 0.0], [1.0, 1.0]))
        psi0 = np.array([0.6, 0.8j, 0.0], dtype=complex)
        out = evolve(d, psi0, 0.0)
        assert np.array_equal(out, psi0)

    def test_two_level_rabi_transfer(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        psi = evolve(d, np.array([1.0, 0.0]), np.pi / (2 * K))
        assert_allclose(np.abs(psi) ** 2, [0.0, 1.0], atol=1e-12)

    def test_norm_mismatch_rejected(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        with pytest.raises(ValidationError):
            evolve(d, np.array([1.0, 1.0]), 0.5)
        with pytest.raises(ValidationError):
            evolve(d, np.array([1.0, 0.0, 0.0]), 0.5)

    def test_matches_rk4_on_four_site_chain(self):
        hams = build_chain(ChainSpec(n_sites=4, lambda_inv=20.0))
        d = eig_sym_tridiag(hams.h_total)
        psi0 = np.zeros(4)
        psi0[0] = 1.0
        samples = np.linspace(0.0, 8.0, 21)
        spectral = evolve_grid(d, psi0, samples)
        reference = rk4_evolve(hams.h_total.to_dense(), psi0, samples, dt=1e-3)
        # global phase is shared (both integrate the same equation exactly)
        assert np.max(np.abs(spectral - reference)) < 1e-6

    # steps + 1 = 2, 38, 4001 samples are not multiples of the ceil(sqrt)
    # block length of the factored phases
    @pytest.mark.parametrize("n_steps", [1, 2, 37, 4000])
    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_grid_matches_direct_exp(self, spec, n_steps):
        hams = build_chain(spec)
        d = eig_sym_tridiag(hams.h_total)
        times = default_time_grid(hams, n_steps).times
        site_one = np.eye(spec.n_sites)[0]
        want = direct_exp_evolve(d.eigenvectors, d.eigenvalues, site_one, times)
        assert np.max(np.abs(evolve_grid(d, site_one, times) - want)) <= 1e-13

        # a random complex state weights the fast modes as much as the slow
        # ones; both sides then round phase arguments as large as
        # max|eta| * t_max, which sets the tolerance
        rng = np.random.default_rng(spec.n_sites * 10_000 + n_steps)
        psi0 = rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites)
        psi0 /= np.linalg.norm(psi0)
        want = direct_exp_evolve(d.eigenvectors, d.eigenvalues, psi0, times)
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(d.eigenvalues)) * times[-1]
        assert np.max(np.abs(evolve_grid(d, psi0, times) - want)) <= tol

    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_grid_populations_match_direct_exp(self, spec):
        # the README's accuracy statement for every site's population
        hams = build_chain(spec)
        d = eig_sym_tridiag(hams.h_total)
        times = default_time_grid(hams).times
        site_one = np.eye(spec.n_sites)[0]
        want = np.abs(direct_exp_evolve(d.eigenvectors, d.eigenvalues, site_one, times)) ** 2
        assert np.max(np.abs(np.abs(evolve_grid(d, site_one, times)) ** 2 - want)) <= 3e-15

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(0.5, 2.0, 11),
            np.array([1.0]),
            np.array([0.0, 0.1, 0.3, 0.6]),
            np.linspace(0.0, 2.0, 11) + np.eye(11)[5] * 1e-9,
        ],
        ids=["offset", "single_nonzero", "growing_steps", "one_sample_off"],
    )
    def test_grid_must_be_uniform_from_zero(self, times):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        with pytest.raises(ValidationError, match="uniform grid starting at 0"):
            evolve_grid(d, np.array([1.0, 0.0]), times)

    def test_phase_sums_need_real_vectors(self):
        # the real product over (re, im) pairs would mix complex vectors' parts
        with pytest.raises(ValidationError, match="real"):
            phase_sums(np.eye(2) * 1j, np.zeros(2), np.ones(2), np.linspace(0.0, 1.0, 5))

    def test_grid_check_allows_rounding(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        times = np.linspace(0.0, 2.0, 11)
        psi0 = np.array([1.0, 0.0])
        nudged = evolve_grid(d, psi0, times + np.eye(11)[5] * 1e-13)
        assert_allclose(nudged, evolve_grid(d, psi0, times), rtol=0.0, atol=1e-12)

    @given(well_conditioned_tridiag(max_size=20), st.floats(0.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_conservation_laws(self, m, t):
        d = eig_sym_tridiag(m)
        psi0 = np.full(m.size, 1.0 / np.sqrt(m.size), dtype=complex)
        psi = evolve(d, psi0, t)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        e0 = (psi0.conj() @ m.matvec(psi0)).real
        et = (psi.conj() @ m.matvec(psi)).real
        assert abs(et - e0) <= 1e-10 * max(1.0, abs(e0))


class TestInvert:
    def test_two_site(self):
        inv = invert_tridiag(tridiag([0.0, 0.0], [K]))
        assert_allclose(inv, [[0.0, 1.0 / K], [1.0 / K, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("n_sites", range(4, 21, 2))
    def test_even_interior_corner_elements(self, n_sites):
        # <2|Qtilde|N-1> = -inv[0, -1] must equal (-1)^(N/2-1)/k, and the
        # corner diagonal elements of the inverse vanish
        block = interior_block(build_chain(ChainSpec(n_sites, 5.0)).h_watch)
        inv = invert_tridiag(block)
        sign = (-1.0) ** (n_sites // 2 - 1)
        assert_allclose(-inv[0, -1], sign / K, atol=1e-12)
        assert_allclose(-inverse_corner_tridiag(block), sign / K, atol=1e-12)
        assert_allclose(inv[0, 0], 0.0, atol=1e-12)
        assert_allclose(inv[-1, -1], 0.0, atol=1e-12)

    def test_odd_interior_block_is_singular(self):
        block = interior_block(build_chain(ChainSpec(5, 5.0)).h_watch)
        with pytest.raises(SingularMatrixError):
            invert_tridiag(block)

    @given(well_conditioned_tridiag())
    @settings(max_examples=50, deadline=None)
    def test_matches_gaussian_elimination(self, m):
        inv = invert_tridiag(m)
        assert np.max(np.abs(inv - gaussian_elimination_inverse(m.to_dense()))) < 1e-10
        assert np.max(np.abs(inv @ m.to_dense() - np.eye(m.size))) < 1e-10
        assert np.max(np.abs(inv - inv.T)) < 1e-10


class TestInverseCorner:
    @given(well_conditioned_tridiag())
    @settings(max_examples=50, deadline=None)
    def test_matches_full_inverse(self, m):
        corner = invert_tridiag(m)[0, -1]
        assert abs(inverse_corner_tridiag(m) - corner) <= 1e-12 * abs(corner)

    def test_singular_guard_is_the_inverse_guard(self):
        for m in (
            interior_block(build_chain(ChainSpec(5, 5.0)).h_watch),
            tridiag([1.0, 1.0], [1.0]),
            tridiag([0.0, 0.0, 0.0], [0.0, 0.0]),
        ):
            with pytest.raises(SingularMatrixError) as want:
                invert_tridiag(m)
            with pytest.raises(SingularMatrixError) as got:
                inverse_corner_tridiag(m)
            assert str(got.value) == str(want.value)


class TestDet:
    def test_two_site(self):
        assert det_tridiag(tridiag([0.0, 0.0], [K])) == -(K**2)

    def test_odd_interior_block_vanishes(self):
        block = interior_block(build_chain(ChainSpec(5, 5.0)).h_watch)
        assert det_tridiag(block) == 0.0

    def test_modified_odd_interior_block(self):
        # first diagonal entry lam * delta_omega; for N=5, k=1 the
        # determinant is (-1)^((N-3)/2) k^(N-3) lam*dw = -lam*dw
        lam_dw = 1.0
        block = interior_block(
            build_chain(ChainSpec(5, 20.0, delta_omega=20.0)).h_watch
        )
        assert_allclose(det_tridiag(block), -lam_dw, rtol=1e-12)

    @given(well_conditioned_tridiag(max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_eigenvalue_product(self, m):
        det = det_tridiag(m)
        prod = float(np.prod(eig_sym_tridiag(m).eigenvalues))
        assert_allclose(det, prod, rtol=1e-8)

    @given(well_conditioned_tridiag(max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_matches_cofactor_expansion(self, m):
        assert_allclose(det_tridiag(m), cofactor_det(m.to_dense()), rtol=1e-10, atol=1e-12)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            tridiag([0.0, 0.0], [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            tridiag([0.0, np.inf], [1.0])
