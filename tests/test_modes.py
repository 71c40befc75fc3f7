import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from lgsqueeze import modes
from lgsqueeze.modes import (
    BeamGeometry,
    FieldError,
    ModeIndex,
    QuadratureError,
    build_basis,
    laguerre_ladder,
    lg_amplitude,
    lg_radial_profile,
    transverse_inner_product,
)

GEOM = BeamGeometry(wavelength=0.795, waist_w0=80.0)


class TestBasis:
    def test_single_mode_basis(self):
        basis = build_basis(0, 0)
        assert basis.size == 1
        assert basis.order == (ModeIndex(0, 0),)

    def test_paper_display_basis(self):
        basis = build_basis(1, 2)
        assert basis.size == 9
        assert basis.order[:4] == (
            ModeIndex(-1, 0),
            ModeIndex(-1, 1),
            ModeIndex(-1, 2),
            ModeIndex(0, 0),
        )

    def test_position_enumeration(self):
        basis = build_basis(2, 1)
        assert basis.size == 10
        assert basis.position(ModeIndex(0, 0)) == 4
        # position is a bijection onto 0..N-1
        positions = [basis.position(idx) for idx in basis.order]
        assert positions == list(range(10))

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            build_basis(-1, 0)
        with pytest.raises(ValueError):
            build_basis(0, -2)
        with pytest.raises(ValueError):
            ModeIndex(0, -1)

    def test_out_of_basis_position(self):
        basis = build_basis(1, 1)
        with pytest.raises(KeyError):
            basis.position(ModeIndex(2, 0))


class TestGeometry:
    def test_rayleigh_range_derived(self):
        assert GEOM.rayleigh_zR == pytest.approx(
            math.pi * 80.0 ** 2 / 0.795, rel=1e-15
        )

    def test_inconsistent_rayleigh_rejected(self):
        # the Rayleigh range is derived only: no construction can give another
        assert "rayleigh_zR" not in [f.name for f in dataclasses.fields(BeamGeometry)]
        with pytest.raises(TypeError):
            BeamGeometry(wavelength=0.795, waist_w0=80.0, rayleigh_zR=1.0)
        with pytest.raises(TypeError):
            dataclasses.replace(GEOM, rayleigh_zR=1.0)
        assert dataclasses.replace(GEOM, waist_w0=40.0).rayleigh_zR == pytest.approx(
            GEOM.rayleigh_zR / 4.0, rel=1e-15)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            BeamGeometry(wavelength=-1.0, waist_w0=80.0)
        with pytest.raises(ValueError):
            BeamGeometry(wavelength=0.795, waist_w0=0.0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"wavelength": 0.8, "waist_w0": math.nan}, "waist_w0"),
        ({"wavelength": math.nan, "waist_w0": 80.0}, "wavelength"),
        ({"wavelength": 0.795, "waist_w0": 80.0, "focus_z": math.nan}, "focus_z"),
        ({"wavelength": 0.795, "waist_w0": 80.0, "focus_z": -math.inf}, "focus_z"),
        ({"wavelength": math.inf, "waist_w0": 80.0}, "wavelength"),
        ({"wavelength": 0.795, "waist_w0": math.inf}, "waist_w0"),
        ({"wavelength": 0.795, "waist_w0": 1e300}, "waist_w0"),
        ({"wavelength": 0.795, "waist_w0": 1e-300}, "waist_w0"),
        ({"wavelength": 1e-200, "waist_w0": 1e150}, "waist_w0"),
        # a finite Rayleigh range whose square underflows to 0 or overflows
        ({"wavelength": 1e300, "waist_w0": 80.0}, "waist_w0"),
        ({"wavelength": 1.0, "waist_w0": 1e100}, "waist_w0"),
    ], ids=["waist", "wavelength", "focus_z", "infinite-focus_z",
            "infinite-wavelength", "infinite-waist", "overflowing-rayleigh",
            "underflowing-rayleigh", "infinite-rayleigh", "underflowing-rayleigh-square",
            "overflowing-rayleigh-square"])
    def test_nan_parameters_rejected(self, kwargs, field):
        with pytest.raises(FieldError) as err:
            BeamGeometry(**kwargs)
        assert err.value.field == field

    @pytest.mark.parametrize("kwargs, field", [
        ({"wavelength": 0.81, "waist_w0": 200.0, "focus_z": 1e300}, "focus_z"),
        ({"wavelength": 0.81, "waist_w0": 200.0, "focus_z": -1e300}, "focus_z"),
        # the width stays finite; the z^2 + zR^2 of the curvature overflows
        ({"wavelength": 1e-100, "waist_w0": 1.0, "focus_z": 1e155}, "focus_z"),
        # a Rayleigh range in range, but 1/w^2 overflows at the focus itself
        ({"wavelength": 1e-300, "waist_w0": 1e-155}, "waist_w0"),
        ({"wavelength": 1e-300, "waist_w0": 1e-155, "focus_z": 1e-3}, "waist_w0"),
    ], ids=["far", "far-negative", "curvature", "narrow-waist", "narrow-waist-off-centre"])
    def test_focus_past_the_float_range_names_its_field(self, kwargs, field):
        # every focus is measured from the cell centre, z = 0
        with pytest.raises(FieldError) as err:
            BeamGeometry(**kwargs)
        assert err.value.field == field


class TestAmplitude:
    def test_fundamental_on_axis_at_focus(self):
        value = lg_amplitude(ModeIndex(0, 0), 0.0, 0.0, 0.0, GEOM)
        assert value == pytest.approx(math.sqrt(2.0 / math.pi) / 80.0, rel=1e-14)
        assert value.imag == 0.0

    def test_vortex_vanishes_on_axis(self):
        assert lg_amplitude(ModeIndex(1, 0), 0.0, 0.0, 1234.5, GEOM) == 0.0

    def test_gouy_factor_at_one_rayleigh(self):
        # (1,1) mode: phase advance (2+1+1) * atan(1) = pi relative to focus
        r0 = 1e-7 * GEOM.waist_w0
        ratio = lg_amplitude(ModeIndex(1, 1), r0, 0.0, GEOM.rayleigh_zR, GEOM) / (
            lg_amplitude(ModeIndex(1, 1), r0, 0.0, 0.0, GEOM)
        )
        assert np.angle(ratio) == pytest.approx(math.pi, abs=1e-6)

    def test_gouy_phase_asymmetry_on_axis(self):
        # on axis the curvature term vanishes, leaving pure Gouy phase
        z = 0.7 * GEOM.rayleigh_zR
        for p in range(4):
            ratio = lg_radial_profile(ModeIndex(0, p), 0.0, z, GEOM) / (
                lg_radial_profile(ModeIndex(0, p), 0.0, -z, GEOM)
            )
            expected = 2.0 * (2 * p + 1) * math.atan2(z, GEOM.rayleigh_zR)
            assert np.angle(np.exp(-1j * expected) * ratio) == pytest.approx(0.0, abs=1e-12)

    def test_waist_scaling_invariance(self):
        # w0 -> s w0, r -> s r, z -> s^2 z leaves |u| * w(z) unchanged
        s = 2.7
        scaled = BeamGeometry(wavelength=GEOM.wavelength, waist_w0=s * GEOM.waist_w0)
        r, z = 35.0, 0.8 * GEOM.rayleigh_zR
        base = abs(lg_amplitude(ModeIndex(0, 0), r, 0.3, z, GEOM)) * GEOM.width(z)
        other = abs(
            lg_amplitude(ModeIndex(0, 0), s * r, 0.3, s ** 2 * z, scaled)
        ) * scaled.width(s ** 2 * z)
        assert other == pytest.approx(base, rel=1e-12)

    def test_laguerre_ladder_matches_scipy(self):
        t = np.linspace(0.0, 60.0, 71)
        for alpha in (0, 1, 3):
            ladder = laguerre_ladder(alpha, t, 20)
            for p in (0, 1, 5, 12, 20):
                ref = scipy.special.eval_genlaguerre(p, alpha, t)
                assert np.allclose(ladder[p], ref, rtol=1e-10, atol=1e-9)


class TestInnerProduct:
    def test_normalization_at_focus(self):
        value = transverse_inner_product(ModeIndex(0, 0), ModeIndex(0, 0), 0.0, GEOM)
        assert abs(value - 1.0) < 1e-10

    def test_azimuthal_orthogonality_is_exact(self):
        assert (
            transverse_inner_product(ModeIndex(1, 0), ModeIndex(-1, 0), 0.0, GEOM)
            == 0.0
        )

    def test_radial_orthogonality_off_focus(self):
        value = transverse_inner_product(
            ModeIndex(0, 1), ModeIndex(0, 0), 2.0 * GEOM.rayleigh_zR, GEOM
        )
        assert abs(value) < 1e-8

    def test_orthonormality_across_planes(self):
        basis = build_basis(2, 4)
        z_planes = [0.0, GEOM.rayleigh_zR, -GEOM.rayleigh_zR,
                    1.5 * GEOM.rayleigh_zR, -1.5 * GEOM.rayleigh_zR]
        worst = 0.0
        for z in z_planes:
            for i, a in enumerate(basis.order):
                for b in basis.order[i:]:
                    if a.ell != b.ell:
                        continue  # exact zero by the azimuthal integral
                    value = transverse_inner_product(a, b, z, GEOM)
                    target = 1.0 if a == b else 0.0
                    worst = max(worst, abs(value - target))
        assert worst < 1e-8

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(modes, "INNER_PRODUCT_RTOL", 1e-18)
        with pytest.raises(QuadratureError):
            transverse_inner_product(ModeIndex(0, 0), ModeIndex(0, 0), 0.0, GEOM)
