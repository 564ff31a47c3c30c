import numpy as np
import pytest

from nhlattice.errors import ConfigurationError
from nhlattice.symmetry import (
    build_HDP,
    charge_conjugation_unitary,
    check_symmetries,
    chiral_unitary,
    time_reversal_unitary,
)

K_SAMPLES = np.linspace(0.0, np.pi / 2, 32)


class TestBuildHDP:
    def test_corner_block_at_k0(self):
        h, _, _ = build_HDP(0.0)
        assert np.allclose(h[0:2, 6:8], np.diag([-1.0, 1.0]))
        assert np.allclose(h[6:8, 0:2], np.diag([-1.0, 1.0]))

    def test_corner_block_carries_bloch_phase(self):
        k = 0.37
        h, _, _ = build_HDP(k)
        assert np.isclose(h[0, 6], -np.exp(-4j * k))
        assert np.isclose(h[1, 7], np.exp(4j * k))

    def test_dissipation_is_identity(self):
        _, d, _ = build_HDP(0.2)
        assert np.allclose(d, np.eye(8))

    def test_fluctuation_matrix_structure(self):
        # i times real sigma_z blocks: purely imaginary, so anti-Hermitian
        for case in ("nontrivial", "trivial"):
            _, _, p = build_HDP(0.1, case=case)
            assert np.allclose(p.real, 0.0)
            assert np.allclose(p, -p.conj().T)

    def test_trivial_case_permutes_fluctuation_blocks(self):
        _, _, p_nt = build_HDP(0.0, case="nontrivial")
        _, _, p_tr = build_HDP(0.0, case="trivial")
        sz = np.diag([1.0, -1.0])
        assert np.allclose(p_nt[2:4, 2:4], 1j * sz) and np.allclose(p_nt[6:8, 6:8], 0)
        assert np.allclose(p_tr[6:8, 6:8], 1j * sz) and np.allclose(p_tr[0:4, 0:4], 0)

    def test_rejects_bad_case(self):
        with pytest.raises(ConfigurationError):
            build_HDP(0.0, case="other")


class TestUnitaries:
    def test_unitarity(self):
        for u in (time_reversal_unitary(), charge_conjugation_unitary(), chiral_unitary()):
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-14

    def test_chiral_is_product(self):
        assert np.array_equal(
            chiral_unitary(), time_reversal_unitary() @ charge_conjugation_unitary()
        )


class TestCheckSymmetries:
    def test_nontrivial_case_is_bdi(self):
        rep = check_symmetries(K_SAMPLES, case="nontrivial")
        assert rep.class_label == "BDI"
        assert rep.residual_T < 1e-12
        assert rep.residual_C < 1e-12
        assert rep.residual_S < 1e-12
        assert rep.holds_T and rep.holds_C and rep.holds_S

    def test_trivial_case_is_also_bdi(self):
        rep = check_symmetries(K_SAMPLES, case="trivial")
        assert rep.class_label == "BDI"
        assert max(rep.residual_T, rep.residual_C, rep.residual_S) < 1e-12

    def test_perturbation_control(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        noise = 1e-3 * (noise + noise.conj().T) / np.linalg.norm(noise + noise.conj().T)

        def perturbed(k):
            return build_HDP(k)[0] + noise

        clean = check_symmetries(K_SAMPLES)
        rep = check_symmetries(K_SAMPLES, h_builder=perturbed)
        assert not rep.holds_T
        assert rep.class_label != "BDI"
        assert rep.residual_T == pytest.approx(2e-3, rel=1.0)
        # at least six orders of magnitude above the clean residual
        assert rep.residual_T > 1e6 * max(clean.residual_T, 1e-300)

    def test_chiral_residual_compatibility(self):
        rng = np.random.default_rng(9)
        noise = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        noise = 1e-5 * noise / np.linalg.norm(noise)

        def perturbed(k):
            return build_HDP(k)[0] + noise

        rep = check_symmetries(K_SAMPLES, h_builder=perturbed)
        assert rep.residual_S <= rep.residual_T + rep.residual_C + 1e-12
