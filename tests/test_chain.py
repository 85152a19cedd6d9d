"""Chain construction: Hamiltonian triples, shifts, fluctuations."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zenochain.chain import (
    ChainSpec,
    CouplingFluctuation,
    build_chain,
    interior_block,
)
from zenochain.errors import ValidationError


class TestBuildChain:
    def test_four_site(self):
        hams = build_chain(ChainSpec(n_sites=4, lambda_inv=5.0))
        assert_allclose(hams.h_total.offdiag, [1.0, 5.0, 1.0])
        assert_allclose(hams.h_total.diag, np.zeros(4))
        assert_allclose(hams.h_weak.offdiag, [1.0, 0.0, 1.0])
        assert_allclose(hams.h_watch.offdiag, [0.0, 1.0, 0.0])

    def test_modified_five_site(self):
        hams = build_chain(ChainSpec(n_sites=5, lambda_inv=20.0, delta_omega=20.0))
        assert_allclose(hams.h_total.diag, [0.0, 20.0, 0.0, 0.0, 0.0])
        assert_allclose(hams.h_total.offdiag, [1.0, 20.0, 20.0, 1.0])
        # the watch matrix carries the shift scaled by lambda
        assert_allclose(hams.h_watch.diag, [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_zero_shift_is_unmodified(self):
        plain = build_chain(ChainSpec(5, 20.0))
        zero = build_chain(ChainSpec(5, 20.0, delta_omega=0.0))
        assert zero.spec.delta_omega is None and not zero.spec.is_modified
        assert ChainSpec(5, 20.0, delta_omega=1e-7).is_modified
        for name in ("h_total", "h_watch", "h_weak"):
            for part in ("diag", "offdiag"):
                a, b = getattr(getattr(plain, name), part), getattr(getattr(zero, name), part)
                assert np.array_equal(a, b)

    def test_zero_amplitude_fluctuation_is_identity(self):
        plain = build_chain(ChainSpec(n_sites=8, lambda_inv=10.0))
        fluct = build_chain(
            ChainSpec(
                n_sites=8,
                lambda_inv=10.0,
                fluctuation=CouplingFluctuation(0.0, 123),
            )
        )
        assert np.array_equal(plain.h_total.offdiag, fluct.h_total.offdiag)
        assert np.array_equal(plain.h_watch.offdiag, fluct.h_watch.offdiag)

    def test_watch_annihilates_boundary_states(self):
        for spec in (
            ChainSpec(6, 7.0),
            ChainSpec(5, 20.0, delta_omega=20.0),
            ChainSpec(9, 3.0, fluctuation=CouplingFluctuation(0.1, 7)),
        ):
            watch = build_chain(spec).h_watch
            n = spec.n_sites
            assert np.array_equal(watch.matvec(np.eye(n)[0]), np.zeros(n))
            assert np.array_equal(watch.matvec(np.eye(n)[-1]), np.zeros(n))

    def test_reconstruction_is_exact(self):
        for spec in (
            ChainSpec(4, 5.0),
            ChainSpec(7, 3.5, k=0.7),
            ChainSpec(5, 20.0, delta_omega=20.0),
            ChainSpec(10, 12.0, fluctuation=CouplingFluctuation(0.05, 42)),
        ):
            hams = build_chain(spec)
            rebuilt_off = spec.lambda_inv * hams.h_watch.offdiag + hams.h_weak.offdiag
            rebuilt_diag = spec.lambda_inv * hams.h_watch.diag + hams.h_weak.diag
            assert np.array_equal(rebuilt_off, hams.h_total.offdiag)
            assert np.array_equal(rebuilt_diag, hams.h_total.diag)

    def test_reversal_symmetry(self):
        hams = build_chain(ChainSpec(n_sites=9, lambda_inv=4.0))
        assert np.array_equal(hams.h_total.offdiag, hams.h_total.offdiag[::-1])
        assert np.array_equal(hams.h_total.diag, hams.h_total.diag[::-1])

    def test_seeded_fluctuation_reproducible(self):
        spec = ChainSpec(12, 8.0, fluctuation=CouplingFluctuation(0.1, 99))
        a = build_chain(spec)
        b = build_chain(spec)
        assert np.array_equal(a.h_total.offdiag, b.h_total.offdiag)
        other = build_chain(
            ChainSpec(12, 8.0, fluctuation=CouplingFluctuation(0.1, 100))
        )
        assert not np.array_equal(a.h_total.offdiag, other.h_total.offdiag)

    def test_fluctuation_only_touches_interior_bonds(self):
        spec = ChainSpec(10, 8.0, k=2.0, fluctuation=CouplingFluctuation(0.2, 5))
        hams = build_chain(spec)
        assert hams.h_weak.offdiag[0] == 2.0
        assert hams.h_weak.offdiag[-1] == 2.0
        assert hams.h_watch.offdiag[0] == 0.0
        assert hams.h_watch.offdiag[-1] == 0.0
        interior = hams.h_watch.offdiag[1:-1]
        assert np.all(np.abs(interior / 2.0 - 1.0) <= 0.2)


class TestInteriorBlock:
    def test_four_site(self):
        block = interior_block(build_chain(ChainSpec(4, 5.0)).h_watch)
        assert_allclose(block.diag, [0.0, 0.0])
        assert_allclose(block.offdiag, [1.0])

    def test_six_site_matches_dense_submatrix(self):
        watch = build_chain(ChainSpec(6, 5.0)).h_watch
        block = interior_block(watch)
        assert_allclose(block.to_dense(), watch.to_dense()[1:-1, 1:-1])

    def test_modified_five_site_carries_shift(self):
        watch = build_chain(ChainSpec(5, 20.0, delta_omega=20.0)).h_watch
        block = interior_block(watch)
        assert_allclose(block.diag, [1.0, 0.0, 0.0])
        assert_allclose(block.offdiag, [1.0, 1.0])


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n_sites=3, lambda_inv=5.0), "n_sites"),
            (dict(n_sites=6, lambda_inv=0.5), "lambda_inv"),
            (dict(n_sites=6, lambda_inv=5.0, k=0.0), "k"),
        ],
    )
    def test_invalid_spec_names_field(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            ChainSpec(**kwargs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["lambda_inv", "k", "delta_omega"])
    def test_non_finite_field_is_named(self, field, value):
        kwargs = dict(n_sites=5, lambda_inv=20.0, k=1.0, delta_omega=20.0) | {field: value}
        with pytest.raises(ValidationError, match=f"^{field}: must be finite, got {value}$"):
            ChainSpec(**kwargs)

    def test_invalid_fluctuation(self):
        with pytest.raises(ValidationError, match="relative_amplitude"):
            CouplingFluctuation(0.3, 0)
        with pytest.raises(ValidationError, match="rng_seed"):
            CouplingFluctuation(0.1, -1)

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_chain_length_is_not_a_bool(self, flag):
        # a bool is an int subclass
        with pytest.raises(ValidationError, match="^n_sites: must be an integer >= 4$"):
            ChainSpec(flag, 20.0)
        assert ChainSpec(np.int16(4), 20.0).n_sites == 4

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_seed_is_not_a_bool(self, flag):
        # CouplingFluctuation(0.1, True) seeded with 1
        with pytest.raises(ValidationError, match="^fluctuation.rng_seed: must be a non-negative"):
            CouplingFluctuation(0.1, flag)
        assert CouplingFluctuation(0.1, np.uint8(1)).rng_seed == 1
