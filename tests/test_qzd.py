"""Order classification and the leakage acceptance check."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zenochain.chain import ChainSpec, CouplingFluctuation, build_chain
from zenochain.dynamics import LeakageReport, simulate
from zenochain.errors import AssumptionViolationError, ClusteringError, ValidationError
from zenochain.harness import run_scenario
from zenochain.linalg import SymTridiagMatrix
from zenochain.qzd import QzdOrder, analyze_watch, check_prerequisite_ii, classify

from .oracles import eigenvector_sum_effective


def e_k(n: int, k: int) -> np.ndarray:
    v = np.zeros(n)
    v[k] = 1.0
    return v


def classify_chain(spec: ChainSpec, psi0=None):
    hams = build_chain(spec)
    if psi0 is None:
        psi0 = e_k(spec.n_sites, 0)
    return classify(hams.h_watch, hams.h_weak, psi0, lam=spec.lam)


class TestClassify:
    def test_even_chain_is_first_order(self):
        c = classify_chain(ChainSpec(4, 5.0))
        assert c.order is QzdOrder.FIRST
        assert c.prerequisite_i
        assert c.zero_level_dimension == 2
        assert c.commutator_norm_order1 > 0.0

    def test_odd_chain_is_zeroth_order(self):
        c = classify_chain(ChainSpec(5, 20.0))
        assert c.order is QzdOrder.ZEROTH
        assert c.zero_level_dimension == 3
        assert not c.prerequisite_i

    def test_nan_state_rejected(self):
        # was higher_or_none with watch_annihilates_initial=True
        hams = build_chain(ChainSpec(6, 5.0))
        psi0 = np.array([np.nan, 0, 0, 0, 0, 0])
        for run in (lambda: classify(hams.h_watch, hams.h_weak, psi0),
                    lambda: analyze_watch(hams.h_watch, hams.h_weak).classify(psi0)):
            with pytest.raises(ValidationError, match="^psi0: must have unit norm within 1e-12$"):
                run()

    def test_modified_odd_chain_is_first_order(self):
        c = classify_chain(ChainSpec(5, 20.0, delta_omega=20.0))
        assert c.order is QzdOrder.FIRST
        assert c.zero_level_dimension == 2

    def test_round_off_order1_commutator_is_reported_as_zero(self):
        # the unshifted odd chain's order-1 block vanishes in theory; what
        # round-off leaves of it lies below tol times lam ||H_weak||^2 / min|eta|
        for n in range(5, 30, 2):
            for k in (1e-9, 1.0, 1e9):
                c = classify_chain(ChainSpec(n, 20.0, k=k))
                assert c.commutator_norm_order1 == 0.0
                assert c.commutator_norm_order0 > 0.0

    def test_watch_must_annihilate_initial_state(self):
        hams = build_chain(ChainSpec(6, 5.0))
        with pytest.raises(AssumptionViolationError):
            classify(hams.h_watch, hams.h_weak, e_k(6, 2))

    def test_one_dimensional_zero_level_means_no_dynamics(self):
        watch = SymTridiagMatrix(np.array([0.0, 5.0, 7.0]), np.zeros(2))
        weak = SymTridiagMatrix(np.zeros(3), np.array([1.0, 0.0]))
        c = classify(watch, weak, e_k(3, 0))
        assert c.order is QzdOrder.NO_DYNAMICS
        assert c.zero_level_dimension == 1

    def test_eigenstate_of_order0_term_gives_no_order(self):
        # psi0 in the zero level but an eigenstate of P0 H P0: every order
        # commutes, so nothing moves
        watch = SymTridiagMatrix(np.array([0.0, 0.0, 5.0]), np.zeros(2))
        weak = SymTridiagMatrix(np.array([1.0, -1.0, 0.0]), np.zeros(2))
        c = classify(watch, weak, e_k(3, 0))
        assert c.order is QzdOrder.HIGHER_OR_NONE
        assert "eigenstate" in c.notes

    def test_invariant_under_weak_scaling(self):
        hams = build_chain(ChainSpec(6, 5.0))
        psi0 = e_k(6, 0)
        base = classify(hams.h_watch, hams.h_weak, psi0)
        for c_scale in (1e-3, 7.0, 1e3):
            scaled = SymTridiagMatrix(
                c_scale * hams.h_weak.diag, c_scale * hams.h_weak.offdiag
            )
            got = classify(hams.h_watch, scaled, psi0)
            assert got.order is base.order
            assert got.prerequisite_i == base.prerequisite_i

    @pytest.mark.parametrize("spec", [ChainSpec(6, 5.0), ChainSpec(7, 5.0)])
    def test_invariant_under_site_reversal(self, spec):
        hams = build_chain(spec)
        n = spec.n_sites
        flip = lambda m: SymTridiagMatrix(m.diag[::-1], m.offdiag[::-1])
        fwd = classify(hams.h_watch, hams.h_weak, e_k(n, 0), lam=spec.lam)
        rev = classify(flip(hams.h_watch), flip(hams.h_weak), e_k(n, n - 1), lam=spec.lam)
        assert fwd.order is rev.order
        assert fwd.prerequisite_i == rev.prerequisite_i
        assert fwd.commutator_norm_order0 == pytest.approx(rev.commutator_norm_order0, abs=1e-12)
        assert fwd.commutator_norm_order1 == pytest.approx(rev.commutator_norm_order1, abs=1e-12)

    def test_classification_table(self):
        for n in range(4, 31, 2):
            assert classify_chain(ChainSpec(n, 5.0)).order is QzdOrder.FIRST
        for n in range(5, 30, 2):
            assert classify_chain(ChainSpec(n, 5.0)).order is QzdOrder.ZEROTH
            modified = ChainSpec(n, 20.0, delta_omega=20.0)
            assert classify_chain(modified).order is QzdOrder.FIRST

    def test_unit_norm_required(self):
        hams = build_chain(ChainSpec(4, 5.0))
        with pytest.raises(ValidationError):
            classify(hams.h_watch, hams.h_weak, np.array([1.0, 0.0, 0.0, 1.0]))


ENERGY_SCALE_CHAINS = {
    "even": (lambda k: ChainSpec(4, 20.0, k=k), QzdOrder.FIRST),
    "odd": (lambda k: ChainSpec(5, 20.0, k=k), QzdOrder.ZEROTH),
    "modified": (lambda k: ChainSpec(5, 20.0, k=k, delta_omega=20.0 * k), QzdOrder.FIRST),
}


class TestWatchFloors:
    """Every zero test past the zero level reads a floor the analysis holds:
    ``tol`` for the psi0 check, its block's ``round_off`` for ``cycle`` and
    sqrt2 times it for each commutator."""

    def test_psi0_check_reads_the_zero_level_floor(self):
        hams = build_chain(ChainSpec(6, 5.0))
        analysis = analyze_watch(hams.h_watch, hams.h_weak)
        assert analysis.tol == 6 * np.finfo(float).eps * hams.h_watch.frobenius_norm()
        # psi0 = c |1> + s |3> leaves |H_watch psi0| = s |H_watch e_3|
        column = np.linalg.norm(hams.h_watch.matvec(e_k(6, 2)))
        s = 0.5 * analysis.tol / column
        analysis.classify(np.sqrt(1.0 - s * s) * e_k(6, 0) + s * e_k(6, 2))
        s = 2.0 * analysis.tol / column
        with pytest.raises(AssumptionViolationError):
            analysis.classify(np.sqrt(1.0 - s * s) * e_k(6, 0) + s * e_k(6, 2))

    @pytest.mark.parametrize("split, merged", [(0.5, True), (2.0, False)])
    def test_cycle_counts_levels_within_the_floor_as_one(self, split, merged):
        hams = build_chain(ChainSpec(6, 20.0))
        analysis = analyze_watch(hams.h_watch, hams.h_weak, hams.spec.lam)
        rep = analysis.blocks[1]
        gap = split * rep.round_off
        levels = dataclasses.replace(rep, block=np.diag([0.0, gap, 1.0]))
        probe = dataclasses.replace(analysis, blocks=(analysis.blocks[0], levels))
        smallest = 1.0 - gap if merged else gap
        assert probe.cycle(QzdOrder.FIRST) == pytest.approx(
            2.0 * np.pi / smallest / hams.spec.lam, rel=1e-12
        )

    @pytest.mark.parametrize("n", [5, 11, 31])
    def test_first_order_iff_the_listed_coupling_clears_the_floor(self, n):
        # the order-1 commutator of |1> is sqrt2 |B_1N|: across the band where
        # it clears the floor but B_1N does not, the decision follows B_1N
        for shift in np.geomspace(1e10, 1e15, 51):
            hams = build_chain(ChainSpec(n, 2.5, delta_omega=float(shift))).unit
            try:
                analysis = analyze_watch(hams.h_watch, hams.h_weak, hams.spec.lam)
            except ClusteringError:  # a shift that takes in an interior level
                continue
            c = analysis.classify(e_k(n, 0))
            rep = analysis.blocks[1]
            coupling = abs(rep.block[0, 1])
            assert (c.order is QzdOrder.FIRST) == (coupling > rep.round_off)
            if c.order is QzdOrder.FIRST:
                assert c.commutator_norm_order1 == pytest.approx(
                    np.sqrt(2.0) * coupling * hams.spec.lam, rel=1e-14
                )


class TestEnergyScale:
    @pytest.mark.parametrize("k", (1e-9, 1e-3, 1.0, 1e9))
    @pytest.mark.parametrize("chain", sorted(ENERGY_SCALE_CHAINS))
    def test_order_and_delta_do_not_depend_on_k(self, chain, k):
        # rescaling every energy by k (and the window by 1/k) changes nothing
        make, order = ENERGY_SCALE_CHAINS[chain]
        result = run_scenario(make(k))
        assert result.classification.order is order
        reference = run_scenario(make(1.0)).leakage.delta
        assert result.leakage.delta == pytest.approx(reference, rel=1e-9)


def flip(m: SymTridiagMatrix) -> SymTridiagMatrix:
    return SymTridiagMatrix(m.diag[::-1], m.offdiag[::-1])


@st.composite
def asymmetric_chains(draw):
    """Fluctuating chains of either parity, or odd chains shifted on site 2."""
    lambda_inv = draw(st.floats(3.0, 40.0))
    if draw(st.booleans()):
        n = draw(st.integers(4, 14))
        noise = CouplingFluctuation(draw(st.floats(0.01, 0.2)), draw(st.integers(0, 2**16)))
        return ChainSpec(n, lambda_inv, fluctuation=noise)
    n = 2 * draw(st.integers(2, 6)) + 1
    return ChainSpec(n, lambda_inv, delta_omega=draw(st.floats(5.0, 50.0)))


@st.composite
def chains(draw):
    """Even, odd and shifted-odd chains, some with fluctuating couplings."""
    if draw(st.booleans()):
        return draw(asymmetric_chains())
    return ChainSpec(draw(st.integers(4, 14)), draw(st.floats(3.0, 40.0)))


class TestPhysicalInvariances:
    @given(asymmetric_chains())
    @settings(max_examples=25, deadline=None)
    def test_reversed_chain_started_from_last_site(self, spec):
        # mirroring the chain and starting from |N> is the same physics
        hams = build_chain(spec)
        n = spec.n_sites
        fwd = classify(hams.h_watch, hams.h_weak, e_k(n, 0), lam=spec.lam)
        rev = classify(flip(hams.h_watch), flip(hams.h_weak), e_k(n, n - 1), lam=spec.lam)
        assert (rev.order, rev.prerequisite_i) == (fwd.order, fwd.prerequisite_i)
        grid = run_scenario(spec, 200).grid
        ends = np.eye(n)[:, [0, -1]]
        series = simulate(hams.h_total, ends[:, 0], grid, ends).leakage
        mirrored = simulate(flip(hams.h_total), ends[:, 1], grid, ends).leakage
        assert_allclose(mirrored, series, rtol=0, atol=1e-12)

    @given(chains(), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_energy_rescaling_keeps_order_and_delta(self, spec, log_c):
        # k -> c k (and any shift with it) with the window scaled by 1/c
        c = 10.0**log_c
        shift = None if spec.delta_omega is None else c * spec.delta_omega
        scaled = dataclasses.replace(spec, k=c * spec.k, delta_omega=shift)
        grid = run_scenario(spec, 200).grid
        base = run_scenario(spec, grid.n_steps, grid.t_max)
        got = run_scenario(scaled, grid.n_steps, grid.t_max / c)
        assert got.classification.order is base.classification.order
        assert got.leakage.delta == pytest.approx(base.leakage.delta, rel=1e-9)

    @given(st.integers(2, 15), st.floats(1.5, 1e4), st.floats(-300.0, 300.0))
    @settings(max_examples=40, deadline=None)
    def test_even_chains_are_first_order_at_every_energy_scale(self, half, lambda_inv, log_k):
        spec = ChainSpec(2 * half, lambda_inv, k=10.0**log_k)
        assert classify_chain(spec).order is QzdOrder.FIRST


@st.composite
def watched_chains(draw):
    """Even, odd, shifted-odd and fluctuating chains, N 4-301, k 1e-9...1e9."""
    family = draw(st.sampled_from(["even", "odd", "shifted", "fluctuating"]))
    half = draw(st.integers(2, 150))
    n = {"even": 2 * half, "fluctuating": draw(st.integers(4, 301))}.get(family, 2 * half + 1)
    k = 10.0 ** draw(st.floats(-9.0, 9.0))
    shift = draw(st.floats(5.0, 50.0)) * k if family == "shifted" else None
    noise = None
    if family == "fluctuating":
        noise = CouplingFluctuation(draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**16)))
    return ChainSpec(n, draw(st.floats(7.0, 40.0)), k=k, delta_omega=shift, fluctuation=noise)


class TestAgainstEigenvectorSums:
    """The analysis' blocks against eigenvector sums over a dense eigh of H_watch."""

    @given(watched_chains())
    @settings(max_examples=40, deadline=None)
    def test_blocks_and_zero_projector(self, spec):
        hams = build_chain(spec)
        analysis = analyze_watch(hams.h_watch, hams.h_weak, spec.lam)
        p0, m0, m1, eta_min = eigenvector_sum_effective(
            hams.h_watch.to_dense(), hams.h_weak.to_dense(), spec.lam
        )
        v0 = analysis.zero_basis
        assert v0.shape[1] == round(np.trace(p0))
        weak = hams.h_weak.frobenius_norm()
        order1_scale = spec.lam * weak**2 / eta_min  # classify's order-1 scale
        assert np.max(np.abs(analysis.order1.matrix - m1)) <= 1e-12 * order1_scale
        assert np.max(np.abs(analysis.order0.matrix - m0)) <= 1e-12 * weak
        assert np.max(np.abs(v0 @ v0.T - p0)) <= 1e-12


class TestPrerequisiteII:
    def report(self, delta: float) -> LeakageReport:
        return LeakageReport(delta=delta, attained_at=1.5)

    def test_large_leakage_fails(self):
        out = check_prerequisite_ii(self.report(0.138), 0.1)
        assert not out.passed
        assert out.delta == 0.138

    def test_small_leakage_passes(self):
        assert check_prerequisite_ii(self.report(0.01), 0.1).passed

    def test_zero_leakage_passes_any_threshold(self):
        for delta0 in (1e-6, 0.5, 0.999):
            assert check_prerequisite_ii(self.report(0.0), delta0).passed

    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            check_prerequisite_ii(self.report(0.1), 0.0)
        with pytest.raises(ValidationError):
            check_prerequisite_ii(self.report(0.1), 1.0)
