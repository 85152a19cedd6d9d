"""Eigendecomposition, spectral evolution, tridiagonal inverse corner, the
continuant determinant referee."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.errors import NumericalFailureError, SingularMatrixError, ValidationError
from zenochain.harness import run_scenario
from zenochain.qzd import analyze_watch
from zenochain import linalg
from zenochain.linalg import (
    PARITY_MIN_SIZE,
    SpectralDecomposition,
    SymTridiagMatrix,
    TimeGrid,
    check_state,
    eig_sym_tridiag,
    eigvals_sym_tridiag,
    eigvecs_sym_tridiag,
    evolve_grid,
    inverse_corner_tridiag,
    orthonormal_columns,
    solve_bordered_tridiag,
)

from .oracles import (
    align_signs,
    cofactor_det,
    det_tridiag,
    direct_exp_evolve,
    gaussian_elimination_inverse,
    mp_watch_levels,
    rk4_evolve,
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
    def test_non_finite_vectors_are_a_failure(self):
        # next to a 5e298 diagonal entry dstein returns NaN columns with info 0;
        # they passed on to the effective Hamiltonians
        m = tridiag([0.0, 5e298, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0])
        with pytest.raises(NumericalFailureError, match="^tridiagonal eigenvector solver failed"):
            eigvecs_sym_tridiag(m, 0, 4)

    def test_two_site(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        assert_allclose(d.eigenvalues, [-K, K], atol=1e-14)
        want = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        assert_allclose(align_signs(d.eigenvectors, want), want, atol=1e-14)

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

    def test_watch_levels_match_fifty_digits(self):
        # the watch levels of the double matrices the program solves, against
        # 50 digits: at most 6.7 eps max|h_watch| over these chains when this
        # bound was set, so the bound is 8 eps max|h_watch|
        eps = np.finfo(float).eps
        for n in range(4, 14):
            shifts = [None] if n % 2 == 0 else [None, 20.0, -20.0, 1e3, -1e3, 1e7, -1e7]
            for delta_omega in shifts:
                h = build_chain(ChainSpec(n, 20.0, delta_omega=delta_omega)).unit.h_watch
                got, want = eigvals_sym_tridiag(h).tolist(), mp_watch_levels(h)
                err = max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want))
                assert err <= 8.0 * eps * h.max_abs_entry(), (n, delta_omega)

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

    def test_dense_matches_tridiag(self):
        m = tridiag([0.0, 1.0, -2.0, 0.5], [1.0, 0.3, 2.0])
        dt = eig_sym_tridiag(m)
        w, v = np.linalg.eigh(m.to_dense())
        assert_allclose(w, dt.eigenvalues, atol=1e-12)
        assert_allclose(align_signs(v, dt.eigenvectors), dt.eigenvectors, atol=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(4, 20.0, k=1e-11), ChainSpec(5, 20.0, k=1e-11),
         ChainSpec(5, 20.0, k=1e-11, delta_omega=20e-11)],
        ids=["even4", "odd5", "modified5"],
    )
    def test_dense_accepts_small_effective_matrices(self, spec):
        # both orders, including the odd chain's order 1, which is round-off:
        # each block is exactly symmetric, so a one-triangle read of it
        # (eigvalsh, the CLI's upper-triangle listing) sees all of it
        hams = build_chain(spec)
        analysis = analyze_watch(hams.h_watch, hams.h_weak, spec.lam)
        for rep in (analysis.order0, analysis.order1):
            assert np.array_equal(rep.block, rep.block.T)
            padding = np.zeros(spec.n_sites - rep.block.shape[0])
            expect = np.sort(np.concatenate([np.linalg.eigvalsh(rep.block), padding]))
            got = np.linalg.eigvalsh(rep.matrix)
            assert_allclose(got, expect, rtol=0.0, atol=1e-12 * spec.k)


@st.composite
def mirror_tridiag(draw):
    """Random mirror-symmetric tridiagonal matrices, below the parity floor
    up to N = 300, at scales 1e-9 to 1e9: generic, with zero end bonds (as
    H_watch), with a zero middle bond (equal parity blocks, so exactly
    degenerate pairs) or with a zero diagonal (as an unshifted chain)."""
    n = draw(st.integers(PARITY_MIN_SIZE - 8, 300))
    kind = draw(st.sampled_from(["generic", "zero_ends", "zero_middle", "zero_diag"]))
    scale = 10.0 ** draw(st.integers(-9, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = n // 2
    half_d = rng.uniform(-1.0, 1.0, n - h)
    half_e = rng.uniform(-1.0, 1.0, h)
    if kind == "zero_diag":
        half_d[:] = 0.0
    elif kind == "zero_ends":
        half_e[0] = 0.0
    elif kind == "zero_middle":
        half_e[-1] = 0.0
    diag = np.concatenate([half_d, half_d[:h][::-1]])
    off = np.concatenate([half_e, half_e[: n - 1 - h][::-1]])
    return tridiag(scale * diag, scale * off)


class TestParitySplit:
    @given(mirror_tridiag())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_solve(self, m):
        d = eig_sym_tridiag(m)
        w, v, n = d.eigenvalues, d.eigenvectors, m.size
        scale = m.max_abs_entry()
        assert np.all(np.diff(w) >= 0)
        want = scipy.linalg.eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=True)
        assert np.max(np.abs(w - want)) <= 1e-13 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.T - m.to_dense())) <= 1e-12 * scale
        assert np.max(np.abs(eigvals_sym_tridiag(m) - w)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [PARITY_MIN_SIZE, PARITY_MIN_SIZE + 1, 212, 293])
    def test_mirror_chains_get_parity_eigenvectors(self, n):
        # each eigenvector is exactly even or odd under the mirror: the
        # split was taken, for H_total and for H_watch
        hams = build_chain(ChainSpec(n, 20.0))
        for h in (hams.h_total, hams.h_watch):
            v = eig_sym_tridiag(h).eigenvectors
            even = np.all(v == v[::-1], axis=0)
            odd = np.all(v == -v[::-1], axis=0)
            assert np.all(even | odd)
            assert np.sum(even) == n - n // 2

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(PARITY_MIN_SIZE - 1, 20.0),
            ChainSpec(PARITY_MIN_SIZE - 2, 20.0),
            ChainSpec(101, 20.0, delta_omega=20.0),
            ChainSpec(100, 20.0, fluctuation=CouplingFluctuation(0.1, 3)),
        ],
        ids=["odd-below-floor", "even-below-floor", "shifted", "fluctuating"],
    )
    def test_other_inputs_keep_one_full_solve(self, spec):
        hams = build_chain(spec)
        for h in (hams.h_total, hams.h_watch):
            w, v, info = scipy.linalg.lapack.dstevd(h.diag, h.offdiag)
            assert info == 0
            d = eig_sym_tridiag(h)
            assert np.array_equal(d.eigenvalues, w)
            assert np.array_equal(d.eigenvectors, v)
            w0, _, _ = scipy.linalg.lapack.dstevd(h.diag, h.offdiag, compute_v=0)
            assert np.array_equal(eigvals_sym_tridiag(h), w0)

    @pytest.mark.parametrize("n", [PARITY_MIN_SIZE, PARITY_MIN_SIZE + 1])
    def test_block_failure_names_the_full_size(self, n, monkeypatch):
        real = linalg.lapack.dstevd

        def fail_second(*args, **kwargs):
            calls.append(len(args[0]))
            w, v, info = real(*args, **kwargs)
            return w, v, (1 if len(calls) == 2 else info)

        h = build_chain(ChainSpec(n, 20.0)).h_total
        monkeypatch.setattr(linalg.lapack, "dstevd", fail_second)
        for solve in (eig_sym_tridiag, eigvals_sym_tridiag):
            calls = []
            with pytest.raises(NumericalFailureError, match=f"on a {n}x{n} matrix"):
                solve(h)
            assert calls == [n - n // 2, n // 2]


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
        # dstein's sign: each column's largest-magnitude entry is positive
        assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(hi - lo)] > 0)

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
    def test_two_level_rabi_transfer(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        psi = evolve_grid(d, np.array([1.0, 0.0]), TimeGrid(np.pi / (2 * K), 1))[:, -1]
        assert_allclose(np.abs(psi) ** 2, [0.0, 1.0], atol=1e-12)

    def test_norm_mismatch_rejected(self):
        d = eig_sym_tridiag(tridiag([0.0, 0.0], [K]))
        with pytest.raises(ValidationError):
            evolve_grid(d, np.array([1.0, 1.0]), TimeGrid(0.5, 1))
        with pytest.raises(ValidationError):
            evolve_grid(d, np.array([1.0, 0.0, 0.0]), TimeGrid(0.5, 1))

    def test_matches_rk4_on_four_site_chain(self):
        hams = build_chain(ChainSpec(n_sites=4, lambda_inv=20.0))
        d = eig_sym_tridiag(hams.h_total)
        psi0 = np.zeros(4)
        psi0[0] = 1.0
        grid = TimeGrid(8.0, 20)
        spectral = evolve_grid(d, psi0, grid)
        reference = rk4_evolve(hams.h_total.to_dense(), psi0, grid.times, dt=1e-3)
        # global phase is shared (both integrate the same equation exactly)
        assert np.max(np.abs(spectral - reference)) < 1e-6

    # steps + 1 = 2, 38, 4001 samples are not multiples of the ceil(sqrt)
    # block length of the factored phases
    @pytest.mark.parametrize("n_steps", [1, 2, 37, 4000])
    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_grid_matches_direct_exp(self, spec, n_steps):
        hams = build_chain(spec)
        d = eig_sym_tridiag(hams.h_total)
        grid = run_scenario(spec, n_steps).grid
        times = grid.times
        site_one = np.eye(spec.n_sites)[0]
        want = direct_exp_evolve(d.eigenvectors, d.eigenvalues, site_one, times)
        assert np.max(np.abs(evolve_grid(d, site_one, grid) - want)) <= 1e-13

        # a random complex state weights the fast modes as much as the slow
        # ones; both sides then round phase arguments as large as
        # max|eta| * t_max, which sets the tolerance
        rng = np.random.default_rng(spec.n_sites * 10_000 + n_steps)
        psi0 = rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites)
        psi0 /= np.linalg.norm(psi0)
        want = direct_exp_evolve(d.eigenvectors, d.eigenvalues, psi0, times)
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(d.eigenvalues)) * times[-1]
        assert np.max(np.abs(evolve_grid(d, psi0, grid) - want)) <= tol

    @pytest.mark.parametrize("spec", ORACLE_CHAINS, ids=ORACLE_IDS)
    def test_grid_populations_match_direct_exp(self, spec):
        # the README's accuracy statement for every site's population
        hams = build_chain(spec)
        d = eig_sym_tridiag(hams.h_total)
        grid = run_scenario(spec).grid
        site_one = np.eye(spec.n_sites)[0]
        want = np.abs(direct_exp_evolve(d.eigenvectors, d.eigenvalues, site_one, grid.times)) ** 2
        assert np.max(np.abs(np.abs(evolve_grid(d, site_one, grid)) ** 2 - want)) <= 3e-15

    def test_phase_sums_need_real_vectors(self):
        # the real product over (re, im) pairs would mix complex vectors'
        # parts; the spectrum rejects them, so no evolution receives one
        with pytest.raises(ValidationError, match="^eigenvectors: must be real$"):
            SpectralDecomposition(np.zeros(2), np.eye(2) * 1j)

    def test_phases_need_real_finite_eigenvalues(self):
        # a complex eigenvalue evolved states of norm 1, 2.26 and 5.94 with
        # no error; a NaN one gave a NaN delta
        swap = np.eye(2)[:, ::-1].copy()
        for eigenvalues, what in (([0.5j, -1.0], "real"), ([np.nan, -1.0], "finite"),
                                  ([0.5, np.inf], "finite"), ([0.5 + 0j, -1.0], "real")):
            with pytest.raises(ValidationError, match=f"^eigenvalues: must be {what}$"):
                d = SpectralDecomposition(np.array(eigenvalues), swap)
                evolve_grid(d, np.array([0.6, 0.8]), TimeGrid(4.0, 2))

    def test_nan_state_rejected(self):
        # a NaN norm failed no comparison, so the state evolved to NaN
        d = eig_sym_tridiag(build_chain(ChainSpec(4, 5.0)).h_total)
        for psi0 in (np.array([np.nan, 0, 0, 0]), np.array([1, np.nan, 0, 0], complex)):
            with pytest.raises(ValidationError, match="^psi0: must have unit norm within 1e-12$"):
                evolve_grid(d, psi0, TimeGrid(1.0, 4))

    @given(
        well_conditioned_tridiag(max_size=20),
        st.floats(1e-3, 50.0),
        st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_laws(self, m, t, n_steps):
        # every column, t = 0 included
        d = eig_sym_tridiag(m)
        psi0 = np.full(m.size, 1.0 / np.sqrt(m.size), dtype=complex)
        states = evolve_grid(d, psi0, TimeGrid(t, n_steps))
        assert np.max(np.abs(np.linalg.norm(states, axis=0) - 1.0)) <= 1e-12
        e0 = (psi0.conj() @ m.matvec(psi0)).real
        et = np.einsum("ij,ij->j", states.conj(), m.matvec(states)).real
        assert np.max(np.abs(et - e0)) <= 1e-10 * max(1.0, abs(e0))


class TestInvert:
    def test_two_site(self):
        assert inverse_corner_tridiag(tridiag([0.0, 0.0], [K])) == 1.0 / K

    @pytest.mark.parametrize("n_sites", range(4, 21, 2))
    def test_even_interior_corner_elements(self, n_sites):
        # <2|Qtilde|N-1> = -inv[0, -1] must equal (-1)^(N/2-1)/k, and the
        # corner diagonal elements of the inverse vanish
        block = interior_block(build_chain(ChainSpec(n_sites, 5.0)).h_watch)
        inv = gaussian_elimination_inverse(block.to_dense())
        sign = (-1.0) ** (n_sites // 2 - 1)
        assert_allclose(-inv[0, -1], sign / K, atol=1e-12)
        assert_allclose(-inverse_corner_tridiag(block), sign / K, atol=1e-12)
        assert_allclose(inv[0, 0], 0.0, atol=1e-12)
        assert_allclose(inv[-1, -1], 0.0, atol=1e-12)

    def test_odd_interior_block_is_singular(self):
        block = interior_block(build_chain(ChainSpec(5, 5.0)).h_watch)
        with pytest.raises(SingularMatrixError):
            inverse_corner_tridiag(block)


class TestInverseCorner:
    @given(well_conditioned_tridiag())
    @settings(max_examples=50, deadline=None)
    def test_matches_full_inverse(self, m):
        # relative 1e-12 down to the smallest normal double; a subnormal
        # corner (draws reach 2.4e-312) holds fewer than 12 significant digits
        corner = gaussian_elimination_inverse(m.to_dense())[0, -1]
        bound = 1e-12 * max(abs(corner), np.finfo(float).tiny)
        assert abs(inverse_corner_tridiag(m) - corner) <= bound

    def test_singular_guard_is_the_inverse_guard(self):
        # the corner raises exactly where the referee inverse meets a zero pivot
        for m in (
            interior_block(build_chain(ChainSpec(5, 5.0)).h_watch),
            tridiag([1.0, 1.0], [1.0]),
            tridiag([0.0, 0.0, 0.0], [0.0, 0.0]),
            tridiag([0.0], []),
        ):
            with pytest.raises(ZeroDivisionError):
                gaussian_elimination_inverse(m.to_dense())
            with pytest.raises(SingularMatrixError, match="singular"):
                inverse_corner_tridiag(m)

    @pytest.mark.parametrize(
        "n_sites, k, amplitude",
        [(200, 1.0, 0.2), (200, 1e3, 0.05), (200, 1e-3, 0.05), (280, 1.0, 0.1), (550, 1.0, 0.05)],
    )
    def test_large_fluctuating_blocks_match_dense_inverse(self, n_sites, k, amplitude):
        # condition numbers 91-492, while |det| leaves the double range
        # (k = 1e3, 1e-3) or is 1e-11 to 1e-16 of max|entry|^N
        for seed in range(3):
            spec = ChainSpec(n_sites, 20.0, k=k, fluctuation=CouplingFluctuation(amplitude, seed))
            block = interior_block(build_chain(spec).h_watch)
            want = np.linalg.inv(block.to_dense())[0, -1]
            assert abs(inverse_corner_tridiag(block) - want) <= 1e-12 * abs(want)


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

    @pytest.mark.parametrize("k, log10_det", [(1e3, "594.0"), (1e-3, "-594.0")])
    def test_out_of_range_raises_with_its_log(self, k, log10_det):
        # the 198x198 interior block: |det| = k^198 over- or underflows
        block = interior_block(build_chain(ChainSpec(200, 20.0, k=k)).h_watch)
        with pytest.raises(NumericalFailureError, match=f"log10\\|det\\| = {log10_det}"):
            det_tridiag(block)

    def test_chain_blocks_match_slogdet(self):
        # even, shifted-odd and noisy interior blocks at k = 1e-3..1e3, N <= 60
        for n in range(4, 61):
            for k in (1e-3, 1.0, 1e3):
                for spec in (
                    ChainSpec(n, 20.0, k=k),
                    ChainSpec(n | 1, 20.0, k=k, delta_omega=7.0),
                    ChainSpec(n + n % 2, 20.0, k=k, fluctuation=CouplingFluctuation(0.2, n)),
                ):
                    block = interior_block(build_chain(spec).h_watch)
                    sign, logdet = np.linalg.slogdet(block.to_dense())
                    det = det_tridiag(block)
                    if sign == 0.0:
                        assert det == 0.0
                        continue
                    assert np.sign(det) == sign
                    assert abs(np.log(abs(det)) - logdet) <= 1e-12

    @given(well_conditioned_tridiag(max_size=60), st.integers(-300, 300))
    @settings(max_examples=40, deadline=None)
    def test_scaled_matches_slogdet(self, m, e):
        # m times 2^e: |det| from about 1e-5400 to 1e5400
        m = tridiag(np.ldexp(m.diag, e), np.ldexp(m.offdiag, e))
        sign, logdet = np.linalg.slogdet(m.to_dense())
        try:
            det = det_tridiag(m)
        except NumericalFailureError:
            assert not -707.0 < logdet < 709.0
            return
        assert np.sign(det) == sign
        assert abs(np.log(abs(det)) - logdet) <= 1e-12


class TestValidation:
    def test_state_keeps_its_kind(self):
        # a real state stays real; only a complex one is complex
        for v, kind in (([1, 0], float), (np.eye(2, dtype=np.float32)[0], float),
                        ([1j, 0], complex), (np.eye(2, dtype=np.complex64)[1], complex)):
            assert check_state(v, 2, "psi0").dtype == kind

    def test_complex_basis_rejected(self):
        # casting would drop the imaginary part with only a ComplexWarning
        v = np.eye(3)[:, :2]
        assert orthonormal_columns(v, 3, "v0").dtype == float
        for bad in (v + 0j, 1j * v, [[1, 0], [0, 1 + 0j], [0, 0]]):
            with pytest.raises(ValidationError, match="^v0: must be real$"):
                orthonormal_columns(bad, 3, "v0")

    def test_nan_fails_the_norm_checks(self):
        # NaN makes every comparison false: the checks must fail it, not pass it
        with pytest.raises(ValidationError, match="^psi0: must have unit norm within 1e-12$"):
            check_state([np.nan, 0, 0], 3, "psi0")
        one_nan = np.eye(6)[:, :2]
        one_nan[3, 1] = np.nan
        for v in (np.full((6, 2), np.nan), one_nan):
            with pytest.raises(ValidationError, match="^v0: columns must be orthonormal$"):
                orthonormal_columns(v, 6, "v0")

    @pytest.mark.parametrize("steps", [True, np.bool_(True), 2.0])
    def test_step_count_is_an_integer(self, steps):
        # TimeGrid(1.0, True) was a one-step grid: a bool is an int subclass
        with pytest.raises(ValidationError, match="^n_steps: must be a positive integer$"):
            TimeGrid(1.0, steps)
        assert TimeGrid(1.0, np.int32(3)).times.size == 4

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            tridiag([0.0, 0.0], [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            tridiag([0.0, np.inf], [1.0])
