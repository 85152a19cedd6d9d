"""Level grouping, projectors, reduced resolvent, effective Hamiltonians."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.analytic import (
    g_n,
    hqzd0_odd,
    hqzd1_even,
    hqzd1_odd_modified,
    qtilde_fluctuating_corner,
)
from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from zenochain.errors import (
    ClusteringError,
    UnsupportedConfigurationError,
    ValidationError,
)
from zenochain.linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    eig_sym_tridiag,
)
from zenochain.perturbation import (
    couple_zero_level,
    default_grouping_tolerance,
    first_order_corrections,
    group_levels,
    hqzd_order0,
    hqzd_order1,
    reduced_resolvent,
)

from .oracles import gaussian_elimination_inverse, group_levels_by_loop

K = 1.0


def watch_levels(spec: ChainSpec):
    hams = build_chain(spec)
    d = eig_sym_tridiag(hams.h_watch)
    ps = group_levels(d, default_grouping_tolerance(d.eigenvalues))
    return hams, d, ps


def end_basis(n: int) -> np.ndarray:
    e1, en = np.eye(n)[0], np.eye(n)[-1]
    return np.column_stack([(e1 + en) / np.sqrt(2), (e1 - en) / np.sqrt(2)])


class TestGroupLevels:
    def test_even_four_site(self):
        _, _, ps = watch_levels(ChainSpec(4, 5.0))
        assert [lvl.multiplicity for lvl in ps.levels] == [1, 2, 1]
        assert_allclose(
            [lvl.eigenvalue for lvl in ps.levels], [-K, 0.0, K], atol=1e-12
        )
        assert ps.zero_level_index == 1

    def test_odd_five_site_zero_level_is_threefold(self):
        _, _, ps = watch_levels(ChainSpec(5, 5.0))
        assert ps.zero_level.multiplicity == 3
        # zero level spans |1>, |N> and the alternating mid mode
        p0 = ps.zero_level.projector
        assert_allclose(p0[0, 0], 1.0, atol=1e-12)
        assert_allclose(p0[4, 4], 1.0, atol=1e-12)
        assert_allclose(p0[1, 1], 0.5, atol=1e-12)
        assert_allclose(p0[1, 3], -0.5, atol=1e-12)

    def test_nondegenerate_spectrum(self):
        d = eig_sym_tridiag(SymTridiagMatrix(np.array([1.0, 2.0, 3.0]), np.zeros(2)))
        ps = group_levels(d, 1e-8)
        assert [lvl.multiplicity for lvl in ps.levels] == [1, 1, 1]
        assert not ps.has_zero_level

    def test_projector_set_invariants(self):
        for spec in (ChainSpec(4, 5.0), ChainSpec(9, 3.0), ChainSpec(5, 20.0, delta_omega=20.0)):
            _, d, ps = watch_levels(spec)
            n = d.size
            total = sum(lvl.projector for lvl in ps.levels)
            assert np.max(np.abs(total - np.eye(n))) < 1e-10
            for i, a in enumerate(ps.levels):
                assert np.max(np.abs(a.projector @ a.projector - a.projector)) < 1e-10
                assert abs(np.trace(a.projector) - a.multiplicity) < 1e-10
                assert np.max(np.abs(a.projector - a.projector.T)) < 1e-12
                for b in ps.levels[i + 1 :]:
                    assert np.max(np.abs(a.projector @ b.projector)) < 1e-10
                    assert b.eigenvalue - a.eigenvalue > ps.grouping_tolerance

    def test_levels_hold_eigenvector_blocks(self):
        for spec in (ChainSpec(4, 5.0), ChainSpec(9, 3.0), ChainSpec(5, 20.0, delta_omega=20.0)):
            _, d, ps = watch_levels(spec)
            for lvl in ps.levels:
                assert lvl.vectors.shape == (d.size, lvl.multiplicity)
                assert_allclose(lvl.vectors, d.eigenvectors[:, list(lvl.member_indices)])
                assert np.array_equal(lvl.projector, lvl.vectors @ lvl.vectors.T)

    def test_ambiguous_chain_of_gaps(self):
        w = np.array([0.0, 0.9, 1.8])
        d = SpectralDecomposition(w, np.eye(3))
        with pytest.raises(ClusteringError, match="gaps"):
            group_levels(d, 1.0)

    def test_tolerance_must_be_positive(self):
        d = SpectralDecomposition(np.array([0.0, 1.0]), np.eye(2))
        with pytest.raises(ValidationError):
            group_levels(d, 0.0)

    @given(
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=10),
        st.sampled_from([1e-8, 1e-3, 1.0, 1e6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_level_referee(self, values, tol):
        # values within a few tol of each other: merged, split, ambiguous and
        # competing zero-level clusters all occur
        w = np.sort(np.array(values) * tol)
        d = SpectralDecomposition(w, np.eye(w.size))
        try:
            want, want_zero = group_levels_by_loop(w, tol)
        except ClusteringError as exc:
            with pytest.raises(ClusteringError) as got:
                group_levels(d, tol)
            assert str(got.value) == str(exc)
            return
        ps = group_levels(d, tol)
        assert [lvl.member_indices for lvl in ps.levels] == [m for _, m in want]
        # the two sum a level in different orders: means agree to round-off
        ulps = 4 * np.finfo(float).eps * np.max(np.abs(w))
        assert_allclose(ps.eigenvalues, [mean for mean, _ in want], rtol=0, atol=ulps)
        if ps.zero_level_index != want_zero:
            # only a tie in |mean| within round-off may pick another level
            assert None not in (ps.zero_level_index, want_zero)
            gap = abs(ps.eigenvalues[ps.zero_level_index]) - abs(want[want_zero][0])
            assert abs(gap) <= ulps
        for lvl in ps.levels:
            assert np.array_equal(lvl.vectors, np.eye(w.size)[:, list(lvl.member_indices)])

    def test_no_level_objects_are_held(self):
        _, d, ps = watch_levels(ChainSpec(9, 3.0))
        assert ps.vectors is d.eigenvectors
        assert {name: type(value) for name, value in vars(ps).items()} == {
            "eigenvalues": np.ndarray,
            "bounds": np.ndarray,
            "vectors": np.ndarray,
            "grouping_tolerance": float,
            "zero_level_index": int,
        }


class TestOrder0:
    def test_even_chain_vanishes_with_common_shift_zero(self):
        for n in (4, 8, 14):
            hams, _, ps = watch_levels(ChainSpec(n, 5.0))
            rep = hqzd_order0(couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()))
            assert np.max(np.abs(rep.matrix)) < 1e-12
            assert rep.eta1_common == pytest.approx(0.0, abs=1e-12)

    def test_odd_five_site_matches_closed_form(self):
        hams, _, ps = watch_levels(ChainSpec(5, 5.0))
        rep = hqzd_order0(couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()))
        assert_allclose(rep.matrix, hqzd0_odd(5, K), atol=1e-12)
        # couples each end to the mid mode with strength k/sqrt(2)
        assert_allclose(rep.matrix[0, 1], K / 2, atol=1e-12)
        assert rep.eta1_common is None

    def test_strong_bond_blocks_population_past_it(self):
        # 4-level ladder, strong bond on (3,4): watched dynamics reduces to
        # the bare coupling between 1 and 2
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = K
        h[1, 2] = h[2, 1] = K
        rep = hqzd_order0(couple_zero_level(np.eye(4)[:, :2], h))
        expect = np.zeros((4, 4))
        expect[0, 1] = expect[1, 0] = K
        assert_allclose(rep.matrix, expect, atol=1e-14)
        assert rep.eta1_common is None

    def test_proportionality_is_relative_to_h(self):
        # at k = 1e-11 the odd N=5 order-0 term is still k times the closed
        # form, so it is not a multiple of P0; the even N=4 one still is
        k = 1e-11
        hams, _, ps = watch_levels(ChainSpec(5, 20.0, k=k))
        rep = hqzd_order0(couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()))
        assert_allclose(rep.matrix, hqzd0_odd(5, k), rtol=0, atol=1e-12 * k)
        assert rep.eta1_common is None

        hams, _, ps = watch_levels(ChainSpec(4, 20.0, k=k))
        rep = hqzd_order0(couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()))
        assert rep.eta1_common == pytest.approx(0.0, abs=1e-12 * k)

    def test_zero_perturbation_has_common_shift_zero(self):
        zero = couple_zero_level(np.eye(3)[:, :2], np.zeros((3, 3)))
        assert hqzd_order0(zero).eta1_common == 0.0

    def test_common_shift_divides_by_zero_level_dimension(self):
        # a rotated d0 = 3 basis of R^5 whose block of h is c * 1; h also
        # couples the level to the rest, which the block does not see
        c = 0.7
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))
        v0, rest = q[:, :3], q[:, 3:]
        coupling = v0 @ np.array([[1.0, 0.0], [0.5, -0.2], [0.0, 2.0]]) @ rest.T
        h = q @ np.diag([c, c, c, 2.0, -1.0]) @ q.T + coupling + coupling.T
        rep = hqzd_order0(couple_zero_level(v0, h))
        assert rep.block.shape == (3, 3)
        assert rep.eta1_common == pytest.approx(c, rel=1e-13)
        assert_allclose(rep.matrix, c * v0 @ v0.T, atol=1e-13)

    def test_rejects_projector_as_basis(self):
        # an N x N projector gives the right P0 H P0 but a trace over N, not
        # d0, so it must not pass for V0
        for spec in (ChainSpec(4, 5.0), ChainSpec(5, 5.0)):
            hams, _, ps = watch_levels(spec)
            h = hams.h_weak.to_dense()
            for weak in (h, hams.h_weak):
                with pytest.raises(ValidationError, match="orthonormal"):
                    couple_zero_level(ps.zero_level.projector, weak)
        with pytest.raises(ValidationError, match="rows"):
            couple_zero_level(np.eye(5)[:, :2], np.zeros((4, 4)))

    def test_commutes_with_projector(self):
        for spec in (ChainSpec(4, 5.0), ChainSpec(5, 5.0), ChainSpec(7, 9.0)):
            hams, _, ps = watch_levels(spec)
            p0 = ps.zero_level.projector
            rep = hqzd_order0(couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense()))
            comm = rep.matrix @ p0 - p0 @ rep.matrix
            assert np.max(np.abs(comm)) < 1e-10


class TestReducedResolvent:
    def test_four_site_elements(self):
        hams, _, ps = watch_levels(ChainSpec(4, 5.0))
        q = reduced_resolvent(ps)
        assert_allclose(q[1, 2], -1.0 / K, atol=1e-12)
        assert_allclose(q[1, 1], 0.0, atol=1e-12)
        assert_allclose(q[2, 2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n_sites", range(4, 21, 2))
    def test_equals_negative_interior_inverse(self, n_sites):
        hams, _, ps = watch_levels(ChainSpec(n_sites, 7.0))
        q = reduced_resolvent(ps)
        inv = gaussian_elimination_inverse(interior_block(hams.h_watch).to_dense())
        embedded = np.zeros((n_sites, n_sites))
        embedded[1:-1, 1:-1] = -inv
        assert np.max(np.abs(q - embedded)) < 1e-10

    def test_single_level_sum(self):
        w = np.array([0.0, 0.0, 2.0])
        vecs = np.eye(3)
        ps = group_levels(SpectralDecomposition(w, vecs), 1e-8)
        q = reduced_resolvent(ps)
        expect = np.zeros((3, 3))
        expect[2, 2] = -0.5
        assert_allclose(q, expect, atol=1e-14)

    def test_requires_zero_level(self):
        d = eig_sym_tridiag(SymTridiagMatrix(np.array([1.0, 2.0]), np.zeros(1)))
        ps = group_levels(d, 1e-8)
        with pytest.raises(ValidationError):
            reduced_resolvent(ps)

    def test_annihilates_zero_level_and_symmetric(self):
        for spec in (ChainSpec(6, 5.0), ChainSpec(5, 20.0, delta_omega=20.0)):
            _, _, ps = watch_levels(spec)
            q = reduced_resolvent(ps)
            assert np.max(np.abs(q @ ps.zero_level.projector)) < 1e-10
            assert np.max(np.abs(q - q.T)) < 1e-12


class TestOrder1:
    def test_four_site_end_to_end(self):
        hams, _, ps = watch_levels(ChainSpec(4, 5.0))
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep = hqzd_order1(coupling, hams.h_watch)
        expect = np.zeros((4, 4))
        expect[0, 3] = expect[3, 0] = -0.2 * K
        assert_allclose(0.2 * rep.matrix, expect, atol=1e-12)

    @pytest.mark.parametrize("n_sites", range(4, 21, 2))
    def test_even_matches_closed_form(self, n_sites):
        lam = 1.0 / 7.0
        hams, _, ps = watch_levels(ChainSpec(n_sites, 7.0))
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep = hqzd_order1(coupling, hams.h_watch)
        assert np.max(np.abs(lam * rep.matrix - hqzd1_even(n_sites, K, lam))) < 1e-10

    @pytest.mark.parametrize("n_sites", (5, 7, 9))
    @pytest.mark.parametrize("lambda_inv", (20.0, 50.0))
    def test_modified_odd_matches_closed_form(self, n_sites, lambda_inv):
        dw = lambda_inv * K
        hams, _, ps = watch_levels(ChainSpec(n_sites, lambda_inv, delta_omega=dw))
        assert ps.zero_level.multiplicity == 2
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep = hqzd_order1(coupling, hams.h_watch)
        assert np.max(np.abs(rep.matrix / lambda_inv - hqzd1_odd_modified(n_sites, K, dw))) < 1e-8

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(4, 5.0),
            ChainSpec(12, 7.0),
            ChainSpec(9, 3.0),
            ChainSpec(7, 20.0, delta_omega=20.0),
            ChainSpec(10, 10.0, fluctuation=CouplingFluctuation(0.1, 3)),
        ],
        ids=["even4", "even12", "odd9", "mod7", "fluct10"],
    )
    def test_matches_dense_reduced_resolvent(self, spec):
        # referee: lam (H V0)^T Qtilde (H V0) with the dense N x N Qtilde; on
        # the unshifted odd chain both blocks are round-off of a zero block
        hams, _, ps = watch_levels(spec)
        v0, h = ps.zero_level.vectors, hams.h_weak.to_dense()
        ref = spec.lam * (h @ v0).T @ reduced_resolvent(ps) @ (h @ v0)
        rep = hqzd_order1(couple_zero_level(v0, h), hams.h_watch)
        assert np.max(np.abs(spec.lam * rep.block - ref)) <= 1e-13 * spec.lam * K

    @pytest.mark.parametrize("k", [1e-9, 1e-3, 1.0, 1e3, 1e9])
    @pytest.mark.parametrize(
        "n_sites, shifted",
        [(n, False) for n in (4, 5, 6, 7, 30, 31, 200, 201, 500, 501)]
        + [(n, True) for n in (5, 7, 31, 201, 501)],
    )
    def test_end_bond_rows_match_dense_referee(self, n_sites, k, shifted):
        # H_weak passed as tridiagonal: H V0 on the end-bond rows only; the
        # referee is the dense H_weak and the dense N x N Qtilde
        spec = ChainSpec(n_sites, 20.0, k=k, delta_omega=20.0 * k if shifted else None)
        hams, _, ps = watch_levels(spec)
        v0, h = ps.zero_level.vectors, hams.h_weak.to_dense()
        hv0 = h @ v0
        ref0 = v0.T @ hv0
        ref1 = spec.lam * hv0.T @ reduced_resolvent(ps) @ hv0
        coupling = couple_zero_level(v0, hams.h_weak)
        rep0, rep1 = hqzd_order0(coupling), hqzd_order1(coupling, hams.h_watch)
        assert np.max(np.abs(rep0.block - ref0)) <= 1e-12 * k
        assert np.max(np.abs(spec.lam * rep1.block - ref1)) <= 1e-12 * spec.lam * k
        assert rep0.eta1_common == hqzd_order0(couple_zero_level(v0, h)).eta1_common

    def test_block_product_matches_dense(self):
        # H V0 from the tridiagonal H_weak (two end bonds) and from a matrix
        # with a diagonal entry, N x 3 blocks and single vectors alike
        v = np.random.default_rng(0).normal(size=(9, 3))
        h = build_chain(ChainSpec(9, 20.0)).h_weak
        assert_allclose(h.matvec(v), h.to_dense() @ v, rtol=0, atol=1e-15)
        mixed = SymTridiagMatrix(np.array([0.0, 2.0, 0.0, 0.0, 0.0]), np.array([0, 0, 0, 3.0]))
        assert_allclose(mixed.matvec(v[:5]), mixed.to_dense() @ v[:5], rtol=0, atol=1e-15)
        assert_allclose(mixed.matvec(v[:5, 0]), mixed.to_dense() @ v[:5, 0], rtol=0, atol=1e-15)
        with pytest.raises(ValidationError, match="does not match"):
            mixed.matvec(v)

    def test_supported_inside_zero_level(self):
        hams, _, ps = watch_levels(ChainSpec(8, 5.0))
        p0 = ps.zero_level.projector
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep = hqzd_order1(coupling, hams.h_watch)
        outside = (np.eye(8) - p0) @ rep.matrix
        assert np.max(np.abs(outside)) < 1e-10
        assert np.max(np.abs(rep.matrix - rep.matrix.T)) < 1e-12


class TestPerturbationSumRule:
    """Zero-cluster eigenvalues of (H_watch + lam H) against the series."""

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(4, 5.0), ChainSpec(6, 5.0), ChainSpec(5, 20.0, delta_omega=20.0)],
        ids=["even4", "even6", "mod5"],
    )
    def test_quadratic_term_is_exact(self, spec):
        hams, _, ps = watch_levels(spec)
        n = spec.n_sites
        coupling = couple_zero_level(ps.zero_level.vectors, hams.h_weak.to_dense())
        rep1 = hqzd_order1(coupling, hams.h_watch)
        basis = end_basis(n)
        eta2 = np.sort(np.linalg.eigvalsh(basis.T @ rep1.matrix @ basis))

        residuals = []
        for lam in (1e-3, 1e-4):
            perturbed = SymTridiagMatrix(
                hams.h_watch.diag, hams.h_watch.offdiag + lam * hams.h_weak.offdiag
            )
            w = eig_sym_tridiag(perturbed).eigenvalues
            cluster = np.sort(w[np.abs(w) < 0.2])
            assert cluster.size == 2
            residuals.append(float(np.max(np.abs(cluster - lam**2 * eta2))))
        assert residuals[0] <= 2.0 * (1e-3) ** 3
        assert residuals[1] <= 2.0 * (1e-4) ** 3
        # at least cubic decay of the residual (down to the float noise floor)
        assert residuals[0] / max(residuals[1], 1e-16) > 100.0


class TestFluctuationRobustness:
    def test_corner_element_routes_agree(self):
        for n_sites in (6, 10, 16, 20):
            spec = ChainSpec(
                n_sites, 10.0, fluctuation=CouplingFluctuation(0.05, n_sites)
            )
            hams, _, ps = watch_levels(spec)
            q = reduced_resolvent(ps)
            closed = qtilde_fluctuating_corner(hams.h_watch.offdiag[1:-1])
            assert abs(q[1, -2] - closed) < 1e-10

    @pytest.mark.parametrize("n_sites", (6, 10, 20))
    def test_noise_averages_out_of_corner_element(self, n_sites):
        # per-bond noise largely cancels between the odd and even products,
        # so the trial mean stays close to 1/k
        values = []
        for seed in range(100):
            hams = build_chain(
                ChainSpec(n_sites, 10.0, fluctuation=CouplingFluctuation(0.05, seed))
            )
            values.append(
                abs(qtilde_fluctuating_corner(hams.h_watch.offdiag[1:-1]))
            )
        assert abs(np.mean(values) - 1.0 / K) < 0.1 / K


class TestFirstOrderCorrections:
    def test_weights_reproduce_mixing_coefficients(self):
        for n_sites in (4, 6, 10, 12):
            lam = 1.0 / 15.0
            hams, d, ps = watch_levels(ChainSpec(n_sites, 15.0))
            fc = first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(n_sites))
            from zenochain.analytic import toeplitz_eigenpair

            for n in range(1, n_sites - 1):
                _, vec = toeplitz_eigenpair(n_sites, K, n)
                w_sym = lam * float(vec @ fc.corrections[:, -2])
                w_asym = lam * float(vec @ fc.corrections[:, -1])
                coeff = g_n(n_sites, lam, n)
                if n % 2 == 1:
                    assert abs(w_sym + coeff) < 1e-10
                    assert abs(w_asym) < 1e-10
                else:
                    assert abs(w_asym + coeff) < 1e-10
                    assert abs(w_sym) < 1e-10

    def test_corrections_orthogonal_to_own_state(self):
        hams, d, ps = watch_levels(ChainSpec(8, 9.0))
        fc = first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(8))
        for j in range(fc.states.shape[1]):
            assert abs(fc.states[:, j] @ fc.corrections[:, j]) < 1e-10

    def test_vanishing_perturbation_gives_zero(self):
        hams, d, ps = watch_levels(ChainSpec(6, 5.0))
        fc = first_order_corrections(ps, np.zeros((6, 6)), end_basis(6))
        assert np.max(np.abs(fc.corrections[:, -2:])) == 0.0
        assert np.max(np.abs(fc.corrections[:, :-2])) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            *(ChainSpec(n, 10.0) for n in (6, 12, 30)),
            ChainSpec(10, 10.0, fluctuation=CouplingFluctuation(0.1, 3)),
            *(ChainSpec(n, 10.0, delta_omega=10.0) for n in (7, 11)),
        ],
        ids=["even6", "even12", "even30", "fluctuating10", "shifted7", "shifted11"],
    )
    def test_nonzero_corrections_match_eigenvector_derivative(self, spec):
        # referee: the central difference in eps of the eigenvectors of
        # H_watch + eps H (dense eigh), each matched to its state and sign
        hams, _, ps = watch_levels(spec)
        h = hams.h_weak.to_dense()
        fc = first_order_corrections(ps, h, end_basis(spec.n_sites))
        outer = fc.states[:, :-2]
        eps = 1e-5
        moved = []
        for sign in (1.0, -1.0):
            _, v = np.linalg.eigh(hams.h_watch.to_dense() + sign * eps * h)
            match = v[:, np.argmax(np.abs(outer.T @ v), axis=1)]
            moved.append(match * np.sign(np.sum(outer * match, axis=0)))
        derivative = (moved[0] - moved[1]) / (2.0 * eps)
        assert np.max(np.abs(derivative - fc.corrections[:, :-2])) <= 1e-6

    def test_threefold_zero_level_rejected(self):
        hams, d, ps = watch_levels(ChainSpec(5, 5.0))
        with pytest.raises(UnsupportedConfigurationError):
            first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(5))

    def test_zero_level_splitting_scale(self):
        # the zero pair of (H_watch + lam H) splits to -+lam^2 k at leading
        # order; check the quadratic coefficient by Richardson in lam
        hams, d, ps = watch_levels(ChainSpec(4, 5.0))
        fc = first_order_corrections(ps, hams.h_weak.to_dense(), end_basis(4))
        assert_allclose(np.sort(fc.zero_eta2), [-K, K], atol=1e-12)
        coeffs = []
        for lam in (1e-3, 1e-4):
            perturbed = SymTridiagMatrix(
                hams.h_watch.diag, hams.h_watch.offdiag + lam * hams.h_weak.offdiag
            )
            w = eig_sym_tridiag(perturbed).eigenvalues
            coeffs.append(float(np.max(w[np.abs(w) < 0.2])) / lam**2)
        # Richardson in lam^2: both estimates already agree with k closely
        assert coeffs[0] == pytest.approx(K, rel=1e-5)
        assert coeffs[1] == pytest.approx(K, rel=1e-6)
