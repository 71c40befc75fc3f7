import dataclasses
import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, optimize

from lgsqueeze import coupling
from lgsqueeze.cli import main as cli_main
from lgsqueeze.coupling import (
    _T_MAX_MIN,
    _assemble_at,
    _brentq,
    _contract,
    _gauss_legendre,
    _levels,
    _node_schedule,
    CouplingConfig,
    FieldError,
    InteractionType,
    PumpSpec,
    assemble_squeeze_matrix,
    coupling_element,
    drive_modes,
    mean_photons_of_scale,
    oam_feeds,
    scale_to_mean_photons,
)
from lgsqueeze.modes import BeamGeometry, ModeIndex, _leggauss, build_basis, lg_radial_profile
from lgsqueeze.scenarios import SCENARIO_NAMES, default_config
from lgsqueeze.squeeze_core import SqueezeMatrix
from lgsqueeze.eigenmodes import eigenmode_pump, is_normal

GEOM = BeamGeometry(wavelength=0.795, waist_w0=80.0)
CELL_LENGTH = 3.0 * GEOM.rayleigh_zR


def fwm_config(interaction=InteractionType.FULL_CROSSTALK, basis=None):
    return CouplingConfig(
        interaction=interaction,
        cell_length=CELL_LENGTH,
        pump1=PumpSpec(geometry=GEOM),
        collection=GEOM,
        basis=basis or build_basis(1, 2),
    )


def matched_pdc_config(ell_max, p_max):
    """PdcBenchmark's coupling with the pump waist that matches the collection's
    Rayleigh range (pi w^2 / lambda at half the wavelength); both foci are at
    the cell centre."""
    cfg = default_config("PdcBenchmark", ell_max=ell_max, p_max=p_max).coupling
    pump = dataclasses.replace(cfg.pump1.geometry, waist_w0=200.0 * math.sqrt(0.405 / 0.81))
    return dataclasses.replace(cfg, pump1=PumpSpec(pump))


def exact_matched_xi(cfg):
    """xi in closed form for Gaussian pumps whose Rayleigh range and focus are
    the collection beam's, with the focus at the cell centre.

    The curvature phases cancel and the envelopes combine to e^{-2x}, with
    x = 2 r^2 / w(z)^2.  So the radial integral of x^a L_p^a L_q^a e^{-2x} is
    (p+q+a)! / (p! q! 2^(n+1)), n = p + q + a (Gradshteyn & Ryzhik 7.414.4 at
    s = 2), and an element with a = |ell_s| = |ell_i| is C g_n
    n! / (2^(n+1) sqrt(p! q! (a+p)! (a+q)!)) with the modes' norms.  g_n is
    the z integral over the Gouy angle psi in [-psi_m, psi_m]:
    - two pump photons (four-wave mixing): the integral of cos(2 n psi), with
      C = 2 / lambda;
    - one (down-conversion): the integral of cos((2n+1) psi) / cos(psi), which
      is (-1)^n [2 psi_m + 2 sum_{k=1}^{n} (-1)^k sin(2 k psi_m) / k], with
      C = 2 sqrt(pi) w / lambda of the collection beam.
    Every element with ell_s + ell_i != 0 is exactly 0.  See Miatto, Yao &
    Barnett, PRA 83, 033816 (2011), for LG overlaps in down-conversion.
    """
    beam = cfg.collection
    psi_m = math.atan(0.5 * cfg.cell_length / beam.rayleigh_zR)
    if cfg.single_pump:
        scale = 2.0 * math.sqrt(math.pi) * beam.waist_w0 / beam.wavelength

        def gouy(n):
            return (-1) ** n * (2.0 * psi_m + 2.0 * sum(
                (-1) ** k * math.sin(2 * k * psi_m) / k for k in range(1, n + 1)))
    else:
        scale = 2.0 / beam.wavelength

        def gouy(n):
            return 2.0 * psi_m if n == 0 else math.sin(2 * n * psi_m) / n

    basis = cfg.basis
    xi = np.zeros((basis.size, basis.size))
    for s, sig in enumerate(basis.order):
        for i, idl in enumerate(basis.order):
            if sig.ell + idl.ell == 0:
                a, p, q = abs(sig.ell), sig.p, idl.p
                n = p + q + a
                norms = math.factorial(p) * math.factorial(q) * math.factorial(
                    a + p) * math.factorial(a + q)
                xi[s, i] = scale * gouy(n) * math.factorial(n) / (2 ** (n + 1) * math.sqrt(norms))
    return xi


class TestCouplingElement:
    def test_oam_forbidden_is_exactly_zero(self):
        assert coupling_element(ModeIndex(1, 0), ModeIndex(0, 0), fwm_config()) == 0.0

    def test_opposite_oam_channel_is_open(self):
        value = coupling_element(ModeIndex(1, 0), ModeIndex(-1, 0), fwm_config())
        assert abs(value) > 0.1

    def test_fundamental_pair_dominates(self):
        xi = assemble_squeeze_matrix(fwm_config()).xi
        best = np.unravel_index(np.abs(xi).argmax(), xi.shape)
        basis = build_basis(1, 2)
        assert basis.order[best[0]] == ModeIndex(0, 0)
        assert basis.order[best[1]] == ModeIndex(0, 0)

    def test_matches_direct_double_quadrature(self):
        # independent route: brute-force dz (r dr) integration of the full
        # four-profile product for one element
        def integrand(r, z):
            pump = lg_radial_profile(ModeIndex(0, 0), r, z, GEOM)
            sig = lg_radial_profile(ModeIndex(0, 1), r, z, GEOM)
            idl = lg_radial_profile(ModeIndex(0, 0), r, z, GEOM)
            return (pump * pump * np.conj(sig) * np.conj(idl)).real * r

        half = 1.5 * GEOM.rayleigh_zR
        brute, _ = integrate.dblquad(
            integrand, -half, half, 0.0, 6.0 * GEOM.waist_w0,
            epsabs=1e-10, epsrel=1e-9,
        )
        brute *= 2.0 * math.pi
        got = coupling_element(ModeIndex(0, 1), ModeIndex(0, 0), fwm_config())
        assert got.real == pytest.approx(brute, rel=1e-7)


class TestAssembly:
    def test_single_mode_basis_element_is_real_positive(self):
        cfg = CouplingConfig(
            interaction=InteractionType.FULL_CROSSTALK,
            cell_length=3.0 * GEOM.rayleigh_zR,
            pump1=PumpSpec(geometry=GEOM),
            collection=GEOM,
            basis=build_basis(0, 0),
        )
        sq = assemble_squeeze_matrix(cfg)
        assert sq.xi.shape == (1, 1)
        value = sq.xi[0, 0]
        assert value.real > 0
        assert abs(value.imag) < 1e-12 * value.real
        assert value.real == pytest.approx(exact_matched_xi(cfg)[0, 0], rel=1e-8)

    def test_oam_selection_zeros_machine_exact(self):
        basis = build_basis(1, 2)
        xi = assemble_squeeze_matrix(fwm_config()).xi
        for i, sig in enumerate(basis.order):
            for j, idl in enumerate(basis.order):
                if sig.ell + idl.ell != 0:
                    assert xi[i, j] == 0.0

    def test_p_crosstalk_is_masked_full_crosstalk(self):
        basis = build_basis(1, 2)
        full = assemble_squeeze_matrix(fwm_config()).xi
        restricted = assemble_squeeze_matrix(
            fwm_config(InteractionType.P_CROSSTALK_ONLY)
        ).xi
        mask = np.zeros_like(full, dtype=bool)
        for i, sig in enumerate(basis.order):
            for j, idl in enumerate(basis.order):
                mask[i, j] = sig.ell == idl.ell
        assert np.array_equal(restricted, np.where(mask, full, 0.0))

    def test_degenerate_is_diagonal_and_symmetric(self):
        sq = assemble_squeeze_matrix(fwm_config(InteractionType.DEGENERATE_SINGLE_BEAM))
        off = sq.xi - np.diag(np.diag(sq.xi))
        assert np.all(off == 0.0)
        assert np.array_equal(sq.xi, sq.xi.T)

    def test_symmetry_of_assembled_matrix(self):
        xi = assemble_squeeze_matrix(fwm_config()).xi
        assert np.linalg.norm(xi - xi.T) / np.linalg.norm(xi) < 1e-10

    def test_centred_foci_give_normal_matrix(self):
        xi = assemble_squeeze_matrix(fwm_config()).xi
        ok, residual = is_normal(xi)
        assert ok, residual

    def test_assembly_is_deterministic(self):
        a = assemble_squeeze_matrix(fwm_config()).xi
        b = assemble_squeeze_matrix(fwm_config()).xi
        assert np.array_equal(a, b)

    def test_pump_coefficient_validation(self):
        basis = build_basis(1, 2)
        bad_norm = np.zeros(basis.size, dtype=complex)
        bad_norm[0] = 0.5
        with pytest.raises(ValueError):
            PumpSpec(geometry=GEOM, coefficients=bad_norm)
        with pytest.raises(ValueError):
            PumpSpec(geometry=GEOM, coefficients=np.ones(3))

    @pytest.mark.parametrize("kwargs, field", [
        ({"cell_length": math.nan}, "cell_length"),
        ({"cell_length": 0.0}, "cell_length"),
        ({"cell_length": -0.0}, "cell_length"),
        ({"cell_length": -math.inf}, "cell_length"),
        ({"focus_z": -math.inf}, "focus_z"),
        ({"cell_length": -1.0}, "cell_length"),
        ({"cell_length": math.inf}, "cell_length"),
        ({"focus_z": math.inf}, "focus_z"),
        ({"focus_z": math.nan}, "focus_z"),
    ])
    def test_degenerate_medium_names_its_field(self, kwargs, field):
        # the medium is its length: the cell is centred at z = 0, and each
        # beam's focus is measured from there
        with pytest.raises(FieldError) as err:
            dataclasses.replace(
                fwm_config(), cell_length=kwargs.get("cell_length", 1.0),
                collection=dataclasses.replace(GEOM, focus_z=kwargs.get("focus_z", 0.0)))
        assert err.value.field == field

    @pytest.mark.parametrize("cell, beam, field", [
        # the coupling is never built: the beam refuses its focus itself
        ({}, {"focus_z": 1e300}, "focus_z"),
        ({"cell_length": 1e300}, {}, "cell_length"),
        # the width stays finite; the z^2 + zR^2 of the curvature overflows
        ({"cell_length": 1e155}, {"wavelength": 1e-100, "waist_w0": 1.0}, "cell_length"),
    ], ids=["center", "cell", "curvature"])
    def test_medium_past_the_float_range_names_its_field(self, cell, beam, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError) as err:
                geom = dataclasses.replace(GEOM, **beam)
                dataclasses.replace(fwm_config(), **cell, pump1=PumpSpec(geom), collection=geom)
        assert err.value.field == field
        # a finite long cell is accepted
        dataclasses.replace(fwm_config(), cell_length=1e30)

    def test_pump_coefficients_of_another_basis_raise(self):
        pump = PumpSpec(GEOM, np.array([0.6, 0.8j, 0.0]))
        with pytest.raises(FieldError, match="pump2.coefficients"):
            dataclasses.replace(fwm_config(), pump2=pump)
        # resolving only resolves: the shape rule belongs to the coupling
        assert pump.resolved_coefficients(build_basis(1, 2)).shape == (3,)

    def test_pump2_of_a_single_pump_coupling_raises(self):
        pdc = default_config("PdcBenchmark").coupling
        with pytest.raises(ValueError, match="pump2"):
            dataclasses.replace(pdc, pump2=PumpSpec(BeamGeometry(0.405, 10.0)))

    def test_interaction_name_is_not_an_interaction(self):
        # a str would pass as same-ell to oam_feeds and the assembly, while the
        # manifest recorded the name
        fwm = default_config("FwmTwoPhoton").coupling
        with pytest.raises(FieldError) as err:
            dataclasses.replace(fwm, interaction="FullCrosstalk")
        assert err.value.field == "interaction"

    def test_drives_count_the_pump_photons_per_pair(self):
        assert len(default_config("PdcBenchmark").coupling.drives) == 1
        fwm = fwm_config()
        assert len(fwm.drives) == 2 and fwm.drives[1] is fwm.pump1

    def test_pump2_none_shares_the_profiles_of_an_equal_pump2(self, monkeypatch):
        shared = fwm_config()
        copied = dataclasses.replace(shared, pump2=dataclasses.replace(shared.pump1))
        assert copied.pump2 == shared.pump1 and copied.pump2 is not shared.pump1
        beams = []
        real_beam = coupling._beam_on_grid

        def beam_spy(r, z_rel, geom):
            beams.append(geom)
            return real_beam(r, z_rel, geom)

        monkeypatch.setattr(coupling, "_beam_on_grid", beam_spy)
        got = _assemble_at(shared, 24, 40, 40.0)
        shared_beams = len(beams)
        want = _assemble_at(copied, 24, 40, 40.0)
        # pump and collection, then pump, its copy and collection
        assert (shared_beams, len(beams) - shared_beams) == (2, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(assemble_squeeze_matrix(shared).xi,
                              assemble_squeeze_matrix(copied).xi)


TINY = BeamGeometry(wavelength=0.795, waist_w0=1.0)  # a Rayleigh range of 3.952 um
TINY_ELSEWHERE = PumpSpec(dataclasses.replace(TINY, focus_z=1000.0))


@pytest.mark.parametrize("beams, key", [
    ({"collection": TINY}, "coupling.collection.waist_w0"),
    ({"pump1": PumpSpec(TINY)}, "coupling.pump"),
    ({"pump2": PumpSpec(TINY)}, "coupling.pump2"),
    # a tie names the collection, then pump before pump2
    ({"pump1": TINY_ELSEWHERE, "pump2": PumpSpec(TINY), "collection": TINY},
     "coupling.collection.waist_w0"),
    ({"pump1": TINY_ELSEWHERE, "pump2": PumpSpec(TINY)}, "coupling.pump"),
], ids=["collection", "pump", "pump2", "tie-collection", "tie-pumps"])
def test_unresolvable_waist_names_the_narrowest_beam(beams, key):
    # the z rule follows the Gouy angle of the beam with the shortest Rayleigh range
    cfg = dataclasses.replace(fwm_config(basis=build_basis(0, 0)), **beams)
    with pytest.raises(FieldError, match="a waist of 1.0 um gives the coupling's shortest "
                       "Rayleigh range, 3.952 um, which the quadrature cannot resolve") as err:
        assemble_squeeze_matrix(cfg)
    assert err.value.field == key


def tiny(waist, wavelength=1e-300):
    """A beam section whose 1/w^2 is near or past the float range at its focus."""
    return {"wavelength": wavelength, "waist_w0": waist}


class TestKeyedRefusal:
    """A run whose assembly leaves the float range or misses the quadrature
    tolerance, or whose eigenmode analysis meets a xi that is not normal,
    exits 2 with one ``error: <key>: ...`` line and no numpy warning, at one
    usable CPU and with every off-diagonal contraction split onto a worker
    thread, which does not inherit the assembly's ``np.errstate``.  The
    diagonal overlaps of PsrSinglePhoton's single-beam coupling never split."""

    @pytest.fixture(params=["one-cpu", "split"])
    def run(self, request, monkeypatch, tmp_path, capsys):
        if request.param == "split":
            submitted = spy_on_submit(monkeypatch)
            monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        else:
            monkeypatch.setattr(coupling, "_usable_cpus", lambda: 1)

        def run(config):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
            assert rc == 2
            if request.param == "split":
                assert bool(submitted) is (config["scenario"] != "PsrSinglePhoton"), submitted
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            return err[0]

        return run

    @pytest.mark.parametrize("name, beams, key, kind", [
        # two tiny waists whose 1/w^4 takes the matrix past the float range
        ("PsrSinglePhoton", {"pump": tiny(1e-100), "collection": tiny(1e-100)},
         "coupling.collection.waist_w0", "narrowest"),
        ("PsrSinglePhoton", {"pump": tiny(1e-150), "collection": tiny(1e-150)},
         "coupling.collection.waist_w0", "narrowest"),
        # their twins on a four-wave PdcBenchmark, whose overlaps split
        ("PdcBenchmark", {"single_pump": False, "pump": tiny(1e-100),
                          "collection": tiny(1e-100)}, "coupling.collection.waist_w0",
         "narrowest"),
        ("PdcBenchmark", {"single_pump": False, "pump": tiny(1e-150),
                          "collection": tiny(1e-150)}, "coupling.collection.waist_w0",
         "narrowest"),
        # the waist rule, not the Rayleigh range: the collection has the smaller
        # waist and the pump, at a longer wavelength, the shorter Rayleigh range
        ("PsrSinglePhoton", {"pump": tiny(1e-110, 1e-250), "collection": tiny(1e-120)},
         "coupling.collection.waist_w0", "narrowest"),
        ("PsrSinglePhoton", {"pump": tiny(1e-120), "collection": tiny(1e-110, 1e-250)},
         "coupling.pump", "narrowest"),
        # a sum of 1/w^2 that overflows, then a miss at the finest level
        ("PsrSinglePhoton", {"pump": tiny(1e-154)}, "coupling.pump", "shortest"),
        ("PsrSinglePhoton", {"collection": tiny(1e-154)}, "coupling.collection.waist_w0",
         "shortest"),
        ("PdcBenchmark", {"collection": tiny(1e-154)}, "coupling.collection.waist_w0",
         "shortest"),
        ("PdcBenchmark", {"pump": tiny(1e-154), "collection": tiny(1e-154)},
         "coupling.collection.waist_w0", "shortest"),
    ], ids=["psr-1e-100", "psr-1e-150", "pdc-four-wave-1e-100", "pdc-four-wave-1e-150",
            "collection-narrowest", "pump-narrowest",
            "overflow-pump", "overflow-collection", "overflow-pdc-collection",
            "overflow-pdc-both"])
    def test_assembly_refusal_names_the_beam(self, run, name, beams, key, kind):
        line = run({"scenario": name, "basis": {"ell_max": 0, "p_max": 1},
                    "convergence_check": False, "coupling": {"cell_length": 1, **beams}})
        reason = {"narrowest": r"is the coupling's narrowest, and takes its matrix past the "
                               r"float range on 48 x 96 quadrature nodes",
                  "shortest": r"gives the coupling's shortest Rayleigh range, .* um cell "
                              r"\(residual estimate .*\)"}[kind]
        assert re.fullmatch(rf"error: {re.escape(key)}: a waist of \S+ um {reason}", line), line

    @pytest.mark.parametrize("name, config, key", [
        ("PdcBenchmark", {"coupling": {"pump": {"focus_z": 5000}}}, "coupling.pump"),
        ("PdcBenchmark", {"coupling": {"pump": {"geometry": {"focus_z": 5000}}}},
         "coupling.pump"),
        ("PdcEigenPump", {"coupling": {"collection": {"focus_z": 5000}}},
         "coupling.collection.focus_z"),
        ("PdcBenchmark", {"basis": {"ell_max": 1, "p_max": 1},
                          "coupling": {"pump": {"focus_z": 100}}}, "coupling.pump"),
        # a second pump off the centre of a four-wave PdcBenchmark
        ("PdcBenchmark", {"basis": {"ell_max": 1, "p_max": 1}, "coupling": {
            "single_pump": False, "pump2": {"focus_z": 300}}}, "coupling.pump2"),
        # every focus centred; the pump mixes ell = 0 and ell = 1 with a phase
        ("PdcBenchmark", {"basis": {"ell_max": 1, "p_max": 1}, "coupling": {"pump": {
            "coefficients": {"re": [0, 0, 0.6, 0, 0, 0], "im": [0, 0, 0, 0, 0.8, 0]}}}},
         "coupling.pump.coefficients"),
    ], ids=["pump-focus", "pump-geometry-focus", "collection-focus", "pump-focus-basis-1-1",
            "pump2-focus", "pump-coefficients"])
    def test_non_normal_xi_names_the_beam(self, run, name, config, key):
        line = run({"scenario": name, "convergence_check": False, **config})
        assert re.fullmatch(rf"error: {re.escape(key)}: squeezing matrix is not normal "
                            r"\(residual \S+ >= tol 1\.0e-08\): .* the normality the "
                            r"eigenmode analysis needs", line), line


PUMP_GEOM = BeamGeometry(wavelength=0.405, waist_w0=60.0, focus_z=500.0)
ASYM_BASIS = build_basis(2, 2)


def pump_on(*weighted):
    """Unit-norm pump coefficients on ASYM_BASIS from (ell, p, weight) triples."""
    coeff = np.zeros(ASYM_BASIS.size, dtype=complex)
    for ell, p, weight in weighted:
        coeff[ASYM_BASIS.position(ModeIndex(ell, p))] = weight
    return coeff / np.linalg.norm(coeff)


def asymmetric_config(name, interaction):
    """Pumps whose OAM makes the +ell and -ell blocks of xi differ."""
    if name == "two-pump":
        # the cell centre lies 300 um past GEOM's focus
        geom = dataclasses.replace(GEOM, focus_z=-300.0)
        return CouplingConfig(
            interaction=interaction,
            cell_length=2.0 * GEOM.rayleigh_zR,
            pump1=PumpSpec(geom, pump_on((1, 0, 0.6), (-2, 1, 0.8j))),
            pump2=PumpSpec(dataclasses.replace(PUMP_GEOM, focus_z=200.0),
                           pump_on((0, 0, 0.8), (1, 1, -0.6))),
            collection=geom,
            basis=ASYM_BASIS,
        )
    return CouplingConfig(
        interaction=interaction,
        cell_length=2.0 * PUMP_GEOM.rayleigh_zR,
        pump1=PumpSpec(PUMP_GEOM, pump_on((1, 0, 1.0))),
        collection=GEOM,
        basis=ASYM_BASIS,
        single_pump=True,
    )


def direct_overlap_sum(cfg, nz, nt, t_max):
    """xi on the nodes of ``_assemble_at``, one lg_radial_profile product per term."""
    # (geometry, number of fields it carries)
    fields = [(cfg.pump1.geometry, 1), (cfg.collection, 2)]
    if not cfg.single_pump:
        fields.append((cfg.pump2.geometry, 1))
    z_scale = min(g.rayleigh_zR for g, _ in fields)
    psi_half = math.atan(0.5 * cfg.cell_length / z_scale)
    psi, wpsi = _gauss_legendre(-psi_half, psi_half, nz)
    z = (z_scale * np.tan(psi))[:, None]
    wz = (wpsi * z_scale / np.cos(psi) ** 2)[:, None]
    t, wt = _gauss_legendre(0.0, t_max, nt)
    beta = sum(count / g.width(z - g.focus_z) ** 2 for g, count in fields)
    r = np.sqrt(t / beta)
    measure = wz * wt * math.pi / beta

    def profile(idx, geom):
        return lg_radial_profile(idx, r, z - geom.focus_z, geom)

    basis = cfg.basis
    pumps = [(basis.order[j], c) for j, c in enumerate(cfg.pump1.coefficients) if c]
    if cfg.single_pump:
        pairs = [(m.ell, c * profile(m, cfg.pump1.geometry)) for m, c in pumps]
    else:
        pumps2 = [(basis.order[j], c) for j, c in enumerate(cfg.pump2.coefficients) if c]
        pairs = [(m1.ell + m2.ell,
                  c1 * c2 * profile(m1, cfg.pump1.geometry) * profile(m2, cfg.pump2.geometry))
                 for m1, c1 in pumps for m2, c2 in pumps2]
    xi = np.zeros((basis.size, basis.size), dtype=complex)
    for s, sig in enumerate(basis.order):
        for i, idl in enumerate(basis.order):
            if cfg.interaction is InteractionType.DEGENERATE_SINGLE_BEAM and s != i:
                continue
            if cfg.interaction is InteractionType.P_CROSSTALK_ONLY and sig.ell != idl.ell:
                continue
            collect = np.conj(profile(sig, cfg.collection) * profile(idl, cfg.collection))
            for ell_net, pump in pairs:
                if ell_net == sig.ell + idl.ell:
                    xi[s, i] += np.sum(measure * pump * collect)
    return xi


class TestExactMatchedXi:
    """Every element of xi against ``exact_matched_xi`` to 1e-10 of ||xi||,
    and its exact zeros, for both couplings up to the 441-mode basis."""

    @pytest.mark.parametrize("coupling_name, ell_max, p_max", [
        ("fwm", 1, 2), ("fwm", 4, 8), ("pdc", 1, 2), ("pdc", 4, 8), ("pdc", 10, 20),
    ])
    def test_every_element(self, coupling_name, ell_max, p_max):
        if coupling_name == "fwm":
            cfg = fwm_config(basis=build_basis(ell_max, p_max))
        else:
            cfg = matched_pdc_config(ell_max, p_max)
        got = assemble_squeeze_matrix(cfg).xi
        want = exact_matched_xi(cfg)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.abs(got - want).max() <= 1e-10 * np.linalg.norm(want)


class TestAsymmetricAssembly:
    """Pumps with unequal +ell and -ell content, at one fixed grid level.

    Each xi block is served by the overlap of its (|ell_s|, |ell_i|) pair, so
    a wrong key would put an O(1) error in a block.
    """

    @pytest.mark.parametrize("interaction", list(InteractionType), ids=lambda i: i.value)
    @pytest.mark.parametrize("name", ["two-pump", "single-pump"])
    def test_matches_direct_profile_sum(self, name, interaction):
        cfg = asymmetric_config(name, interaction)
        got = _assemble_at(cfg, 24, 40, 40.0)
        want = direct_overlap_sum(cfg, 24, 40, 40.0)
        assert np.array_equal(got == 0.0, want == 0.0)
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-12 * scale
        if interaction is InteractionType.FULL_CROSSTALK:
            # the +ell and -ell halves really differ
            assert np.abs(got - got[::-1, ::-1]).max() > 0.1 * scale

    def test_cached_rules_are_read_only(self):
        nodes, weights = _leggauss(17)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(17)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        assert nodes is _leggauss(17)[0]
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def fed_mask(cfg):
    """Where ``oam_feeds`` lets xi be nonzero: every entry of the blocks it maps
    the drives' net OAM to, and only their diagonal under the degenerate
    interaction."""
    basis, n_p = cfg.basis, cfg.basis.p_max + 1
    mask = np.zeros((basis.size, basis.size), dtype=bool)
    for net, signal_ells in oam_feeds(drive_modes(cfg), basis, cfg.interaction).items():
        for ell_s in signal_ells:
            s, i = (basis.position(ModeIndex(ell, 0)) for ell in (ell_s, net - ell_s))
            mask[s:s + n_p, i:i + n_p] = True
    if cfg.interaction is InteractionType.DEGENERATE_SINGLE_BEAM:
        mask &= np.eye(basis.size, dtype=bool)
    return mask


# the session fixture that holds each stock scenario's result
STOCK_RESULTS = {"PsrSinglePhoton": "psr_results", "PsrPCrosstalk": "psr_results",
                 "FwmTwoPhoton": "psr_results", "PdcBenchmark": "pdc_benchmark",
                 "PdcEigenPump": "pdc_eigen_pump", "PdcHeralding": "pdc_heralding",
                 "WaistScan": "waist_scan"}


class TestZeroPattern:
    """xi's exact 0.0 entries are exactly those outside the blocks ``oam_feeds``
    maps the drives' net OAM to; every fed entry is nonzero."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_stock_matrices(self, request, name):
        result = request.getfixturevalue(STOCK_RESULTS[name])
        result = result[name] if isinstance(result, dict) else result
        cfg = default_config(name).coupling
        if name == "PdcEigenPump":  # pumped in the benchmark's leading eigenmode
            pump = eigenmode_pump(request.getfixturevalue("pdc_benchmark").eigen, 1)
            cfg = dataclasses.replace(cfg, pump1=PumpSpec(cfg.pump1.geometry, pump))
        # WaistScan's best cell has other waists, but the same drives and basis
        assert np.array_equal(result.squeeze.xi != 0.0, fed_mask(cfg))

    @pytest.mark.parametrize("interaction", list(InteractionType), ids=lambda i: i.value)
    @pytest.mark.parametrize("name", ["two-pump", "single-pump"])
    def test_asymmetric_configs(self, name, interaction):
        cfg = asymmetric_config(name, interaction)
        assert np.array_equal(_assemble_at(cfg, 24, 40, 40.0) != 0.0, fed_mask(cfg))


def track_collection_stacks(monkeypatch, collection):
    """Record the |ell| values of each collection-profile call and the peak
    number of its arrays alive at once, through weak references."""
    real_beam, real_profiles = coupling._beam_on_grid, coupling._profiles_on_grid
    beams, calls, peak = [], [], [0]

    def beam_spy(r, z_rel, geom):
        beam = real_beam(r, z_rel, geom)
        if geom is collection:
            beams.append(beam)
        return beam

    def profiles_spy(entries, r, beam):
        out = real_profiles(entries, r, beam)
        if any(beam is known for known in beams):
            calls.append(({abs(idx.ell) for idx in entries}, weakref.ref(out)))
            peak[0] = max(peak[0], sum(ref() is not None for _, ref in calls))
        return out

    monkeypatch.setattr(coupling, "_beam_on_grid", beam_spy)
    monkeypatch.setattr(coupling, "_profiles_on_grid", profiles_spy)
    return calls, peak


class TestStreamedAssembly:
    """The collection profiles are built one |ell| at a time, only when an
    overlap needs them, and at most the two one overlap reads are alive."""

    def test_two_pump_holds_at_most_two_stacks(self, monkeypatch):
        # a collection geometry of its own, so its calls are told from pump1's
        two_pump = asymmetric_config("two-pump", InteractionType.FULL_CROSSTALK)
        cfg = dataclasses.replace(two_pump, collection=dataclasses.replace(two_pump.collection))
        calls, peak = track_collection_stacks(monkeypatch, cfg.collection)
        _assemble_at(cfg, 24, 40, 40.0)
        assert all(len(alphas) == 1 for alphas, _ in calls)
        assert set().union(*(alphas for alphas, _ in calls)) == {0, 1, 2}
        assert peak[0] <= 2

    def test_pdc_benchmark_holds_one_stack(self, monkeypatch):
        cfg = default_config("PdcBenchmark", ell_max=4, p_max=4).coupling
        calls, peak = track_collection_stacks(monkeypatch, cfg.collection)
        assemble_squeeze_matrix(cfg)
        # each |ell| once per grid level, in order, and never two at a time
        built = [alpha for alphas, _ in calls for alpha in alphas]
        assert all(len(alphas) == 1 for alphas, _ in calls)
        assert len(built) % 5 == 0 and built == [0, 1, 2, 3, 4] * (len(built) // 5)
        assert peak[0] == 1

    def test_peak_is_xi_one_stack_and_a_few_grid_arrays(self, monkeypatch):
        """The traced peak of one PdcHeralding level (21 radial orders) is xi,
        one |ell| stack and the working arrays named below, each counted in
        nz x nt complex arrays; no ladder of every Laguerre order is held."""
        cfg = default_config("PdcHeralding").coupling
        schedule, t_max = _node_schedule(cfg)
        nz, nt = schedule[0]
        n, n_p = cfg.basis.size, cfg.basis.p_max + 1
        working = {
            "r and the measure, both real": 1.0,
            "the pump profile": 1.0,
            "the pump product of the previous overlap": 1.0,
            "the collection beam's real Laguerre argument and complex envelope": 1.5,
            "the real ring factor of |ell| = 1": 0.5,
            "two real Laguerre orders and three real recurrence temporaries": 2.5,
            "the nz- and nt-long vectors, per-row factors and einsum's buffers": 0.5,
        }
        bound = 16 * (n * n + (n_p + sum(working.values())) * nz * nt)
        for cpus in (1, 2):
            monkeypatch.setattr(coupling, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                _assemble_at(cfg, nz, nt, t_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (cpus, peak / (16 * nz * nt))


def spy_on_submit(monkeypatch):
    """The list of jobs handed to worker threads from now on, at 2 usable CPUs."""
    monkeypatch.setattr(coupling, "_usable_cpus", lambda: 2)
    submitted, real_submit = [], ThreadPoolExecutor.submit
    monkeypatch.setattr(ThreadPoolExecutor, "submit",
                        lambda pool, *args: submitted.append(args) or real_submit(pool, *args))
    return submitted


def einsum_by_run(monkeypatch, raising_row):
    """Put a fake ``np.einsum`` in place for ``_contract`` on operands whose
    signal rows hold their own row numbers: the run that starts at
    ``raising_row`` raises at once, and each other run sleeps 0.2 s, then
    records its (first row, end row) in the returned list."""
    done = []

    def einsum(spec, pump, left, right):
        lo, hi = int(left[0, 0, 0].real), int(left[-1, 0, 0].real) + 1
        if lo == raising_row:
            raise RuntimeError(f"the run from row {lo}")
        time.sleep(0.2)
        done.append((lo, hi))
        return np.zeros((hi - lo, len(right)), dtype=complex)

    monkeypatch.setattr(np, "einsum", einsum)
    return done


def numbered_rows(n):
    """``_contract``'s operands on one node, with n signal rows numbered 0..n-1."""
    return np.ones((1, 1)), np.arange(n, dtype=complex).reshape(n, 1, 1), np.ones((1, 1, 1))


class TestRowSplitContraction:
    """Each off-diagonal overlap is contracted in one run of signal rows per
    usable CPU, and the result is that of one einsum call, bit for bit, at any
    count; a diagonal overlap is one call on the calling thread.  ``_RUN_WORK``
    is lowered to 1 where a test needs every size to split."""

    def test_equals_one_einsum_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(20)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        pump = draw(5, 37)
        for rows in range(1, 22):  # up to rows < CPUs, where every run is one row
            left, right = draw(rows, 5, 37), draw(rows, 5, 37)
            want = np.einsum("zt,pzt,qzt->pq", pump, left, right).view(np.uint64)
            for cpus in range(1, 5):
                monkeypatch.setattr(coupling, "_usable_cpus", lambda: cpus)
                got = _contract(pump, left, right)
                assert np.array_equal(got.view(np.uint64), want), (rows, cpus)

    @pytest.mark.parametrize("cfg", [
        *(default_config(name).coupling for name in SCENARIO_NAMES),
        asymmetric_config("two-pump", InteractionType.FULL_CROSSTALK),
        asymmetric_config("two-pump", InteractionType.DEGENERATE_SINGLE_BEAM),
        fwm_config(InteractionType.DEGENERATE_SINGLE_BEAM),
    ], ids=[*SCENARIO_NAMES, "two-pump", "two-pump-degenerate", "degenerate"])
    def test_assembly_is_bit_identical_at_any_cpu_count(self, monkeypatch, cfg):
        schedule, t_max = _node_schedule(cfg)
        nz, nt = schedule[0]
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        xis = []
        for cpus in range(1, 5):
            monkeypatch.setattr(coupling, "_usable_cpus", lambda: cpus)
            xis.append(_assemble_at(cfg, nz, nt, t_max).view(np.uint64))
        assert all(np.array_equal(xis[0], xi) for xi in xis[1:])

    @pytest.mark.parametrize("cpus, n, row_work, runs", [
        (2, 3, 1, 1), (2, 3, 1000, 2), (4, 3, 4000, 3), (4, 8, 500, 4), (4, 8, 249, 1),
        (1, 8, 4000, 1),
    ])
    def test_one_run_per_whole_run_work(self, monkeypatch, cpus, n, row_work, runs):
        # row_work elements per signal row: a pump of row_work nodes, one idler row
        submitted = spy_on_submit(monkeypatch)
        monkeypatch.setattr(coupling, "_RUN_WORK", 1000)
        monkeypatch.setattr(coupling, "_usable_cpus", lambda: cpus)
        pump, left, right = (np.ones(shape + (1, row_work)) for shape in ((), (n,), (1,)))
        assert _contract(pump, left, right).shape == (n, 1)
        # the first run stays on this thread; the others are near-equal runs in row order
        cuts = [n * i // runs for i in range(runs + 1)]
        assert [len(job[3]) for job in submitted] == [b - a for a, b in zip(cuts[1:], cuts[2:])]

    @pytest.mark.parametrize("name, splits", [("WaistScan", False), ("PdcHeralding", True)])
    def test_small_work_stays_on_the_calling_thread(self, monkeypatch, name, splits):
        # a WaistScan cell's 3-row stacks cost less than the hand-off to a
        # worker; PdcHeralding's 21-row stacks on its larger grid pay for it
        submitted = spy_on_submit(monkeypatch)
        assemble_squeeze_matrix(default_config(name).coupling)
        assert bool(submitted) is splits

    @pytest.mark.parametrize("cfg", [
        default_config("PsrSinglePhoton").coupling,
        default_config("PsrSinglePhoton", ell_max=4, p_max=8).coupling,
        fwm_config(InteractionType.DEGENERATE_SINGLE_BEAM),
        asymmetric_config("two-pump", InteractionType.DEGENERATE_SINGLE_BEAM),
    ], ids=["PsrSinglePhoton", "PsrSinglePhoton-4-8", "degenerate", "two-pump-degenerate"])
    def test_a_single_beam_coupling_never_splits(self, monkeypatch, cfg):
        # its diagonal overlaps are one einsum call each on this thread
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        submitted = spy_on_submit(monkeypatch)
        assemble_squeeze_matrix(cfg)
        assert submitted == []

    def test_profiles_fill_on_the_calling_thread(self, monkeypatch):
        # only the overlap contraction splits: a profile set of any size is
        # filled by one Laguerre recurrence per |ell| on this thread
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        submitted = spy_on_submit(monkeypatch)
        z = np.linspace(-500.0, 500.0, 8)
        r = np.sqrt(np.linspace(0.0, 40.0, 16))[None, :] * GEOM.width(z)[:, None]
        entries = [ModeIndex(ell, p) for ell in (-1, 0, 1) for p in range(3)]
        profiles = coupling._profiles_on_grid(entries, r, coupling._beam_on_grid(r, z, GEOM))
        assert profiles.shape == (9, 8, 16) and submitted == []

    def test_an_overlap_counts_the_work_of_every_idler_row(self, monkeypatch):
        # 4 signal rows against 512 idler rows on 8 x 64 nodes: 2^20 elements
        submitted = spy_on_submit(monkeypatch)
        pump, left, right = (np.ones((rows, 8, 64), dtype=complex) for rows in (1, 4, 512))
        _contract(pump[0], left, right)
        assert len(submitted) == 1

    def test_no_worker_thread_outlives_a_split(self, monkeypatch):
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        submitted = spy_on_submit(monkeypatch)
        threads = threading.active_count()
        _assemble_at(fwm_config(), 24, 40, 40.0)
        assert submitted and threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_contracts_on_workers_of_its_own(self, monkeypatch):
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        submitted = spy_on_submit(monkeypatch)
        cfg = fwm_config()
        want = _assemble_at(cfg, 24, 40, 40.0)  # split in the parent first
        submitted.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child that hangs ends here
                xi = _assemble_at(cfg, 24, 40, 40.0)
                code = 0 if submitted and np.array_equal(xi, want) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_no_run_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(coupling, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        done = einsum_by_run(monkeypatch, raising_row=0)  # the calling thread's run
        with pytest.raises(RuntimeError, match="the run from row 0"):
            _contract(*numbered_rows(2))
        assert done == [(1, 2)]

    def test_a_worker_raise_reaches_the_caller_after_every_run(self, monkeypatch):
        monkeypatch.setattr(coupling, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(coupling, "_RUN_WORK", 1)
        done = einsum_by_run(monkeypatch, raising_row=1)  # a worker's run
        with pytest.raises(RuntimeError, match="the run from row 1"):
            _contract(*numbered_rows(3))
        assert sorted(done) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_basis_floor_counts_no_more_nodes_than_the_finest_level(name):
    cfg = default_config(name).coupling
    nz, nt = _node_schedule(cfg)[0][-1]
    floor_nz, floor_nt = _levels(0.0, _T_MAX_MIN, 2 * cfg.basis.p_max)[-1]
    assert floor_nz <= nz and floor_nt <= nt


@pytest.mark.parametrize("cfg", [
    *(default_config(name).coupling for name in SCENARIO_NAMES),
    default_config("PdcBenchmark", ell_max=4, p_max=8).coupling,
], ids=[*SCENARIO_NAMES, "PdcBenchmark-4-8"])
def test_returned_xi_holds_at_the_next_level_and_a_doubled_cutoff(monkeypatch, cfg):
    """The xi ``_assemble_raw`` returns is converged to well inside 1e-10
    relative: the next finer level of ``_levels`` and the returned level's t
    spacing carried to twice ``t_max`` both agree with it (to 1.9e-11 at most
    when this test was written, on PdcHeralding)."""
    real = coupling._assemble_at
    grids = []
    monkeypatch.setattr(coupling, "_assemble_at", lambda cfg, nz, nt, t_max: (
        grids.append((nz, nt)) or real(cfg, nz, nt, t_max)))
    xi = coupling._assemble_raw(cfg)
    schedule, t_max = _node_schedule(cfg)
    nz, nt = grids[-1]
    finer = real(cfg, *schedule[schedule.index((nz, nt)) + 1], t_max)
    wider = real(cfg, nz, 2 * nt, 2 * t_max)
    for other in (finer, wider):
        assert np.linalg.norm(other - xi) <= 1e-10 * np.linalg.norm(xi)


def cli_nbar_total(tmp_path, scenario, n_target):
    """``nbar_total`` of a CLI ``--config`` run of ``scenario`` calibrated to ``n_target``."""
    from lgsqueeze.cli import main as cli_main

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": scenario, "n_target": n_target}))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    return json.loads((tmp_path / "o" / "report.json").read_text())["report"]["nbar_total"]


class TestPhotonScaling:
    def test_single_mode_reaches_one_photon(self):
        sq = SqueezeMatrix(xi=np.array([[0.37]]), basis=build_basis(0, 0),
                           interaction=InteractionType.FULL_CROSSTALK)
        scaled, s = scale_to_mean_photons(sq, 1.0)
        assert scaled.xi[0, 0].real == pytest.approx(math.asinh(1.0), abs=1e-10)

    def test_four_equal_modes(self):
        sq = SqueezeMatrix(xi=0.3 * np.eye(4), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        scaled, s = scale_to_mean_photons(sq, 1.0)
        # each mode ends at sinh^2 = 1/4
        assert scaled.xi[0, 0].real == pytest.approx(math.asinh(0.5), abs=1e-10)

    def test_fixed_point(self):
        xi = np.diag([0.4, 0.2])
        current = mean_photons_of_scale(np.array([0.4, 0.2]), 1.0)
        sq = SqueezeMatrix(xi=xi, basis=None, interaction=InteractionType.FULL_CROSSTALK)
        scaled, s = scale_to_mean_photons(sq, current)
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_rejected(self):
        sq = SqueezeMatrix(xi=np.zeros((2, 2)), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        with pytest.raises(ValueError):
            scale_to_mean_photons(sq, 1.0)

    def test_monotone_in_scale(self):
        sigma = np.array([0.8, 0.3, 0.05])
        values = [mean_photons_of_scale(sigma, s) for s in np.linspace(0.1, 3.0, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_tolerance_met(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        sq = SqueezeMatrix(xi=0.1 * (a + a.T), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        scaled, s = scale_to_mean_photons(sq, 2.5)
        sigma = np.linalg.svd(scaled.xi, compute_uv=False)
        assert abs(np.sum(np.sinh(sigma) ** 2) - 2.5) < 1e-10

    def test_missed_tolerance_names_n_target(self, monkeypatch):
        # a root search that stops at the bracket end, far from the root,
        # leaves more than the four Newton steps can polish
        monkeypatch.setattr(coupling, "_brentq", lambda f, xa, xb, **kwargs: xb)
        sq = SqueezeMatrix(xi=np.eye(1), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        with pytest.raises(FieldError, match="^n_target: the photon number .* of 0.001$"):
            scale_to_mean_photons(sq, 1e-3)

    def test_unscalable_matrix_names_n_target(self):
        # asinh(1) / 1e-320 is past the float range: no finite gain brackets the root
        sq = SqueezeMatrix(xi=np.array([[1e-320]]), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        reach = "^n_target: no finite scale of the matrix reaches 1.0;"
        with pytest.raises(FieldError, match=reach):
            scale_to_mean_photons(sq, 1.0)

    @pytest.mark.parametrize("n_target", [math.nan, math.inf, 0.0, -1.0])
    def test_target_not_finite_and_positive_names_n_target(self, n_target):
        sq = SqueezeMatrix(xi=np.eye(1), basis=None,
                           interaction=InteractionType.FULL_CROSSTALK)
        with pytest.raises(FieldError, match="must be finite and > 0") as info:
            scale_to_mean_photons(sq, n_target)
        assert info.value.field == "n_target"

    @pytest.mark.parametrize("scenario, n_target", [
        ("PsrSinglePhoton", 1e5), ("PdcBenchmark", 1e5), ("PdcBenchmark", 1e8),
    ])
    def test_large_photon_numbers_calibrate(self, tmp_path, scenario, n_target):
        nbar_total = cli_nbar_total(tmp_path, scenario, n_target)
        assert nbar_total == pytest.approx(n_target, rel=1e-10)

    @pytest.mark.parametrize("n_target", [1e-24, 1e-26, 1e-300])
    @pytest.mark.parametrize(
        "scenario", ["PdcBenchmark", "PdcEigenPump", "PsrSinglePhoton", "PdcHeralding"])
    def test_sub_photon_targets_calibrate(self, tmp_path, scenario, n_target):
        # Brent's absolute step bound alone lands PdcBenchmark 18% off at 1e-24
        # and at gain 0, the vacuum, from 1e-26 down
        nbar_total = cli_nbar_total(tmp_path, scenario, n_target)
        assert nbar_total == pytest.approx(n_target, rel=1e-10, abs=0.0)


def sinh_sum_root(brent, sigma, n_target):
    """``brent``'s root of sum sinh^2(s sigma) = n_target, bracketed as the calibration does."""
    def excess(s):
        return mean_photons_of_scale(sigma, s) - n_target

    hi = max(1.0, math.asinh(math.sqrt(n_target)) / float(np.max(sigma)))
    while excess(hi) < 0.0:
        hi *= 2.0
    return brent(excess, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


class TestBrent:
    """``coupling._brentq`` returns scipy.optimize.brentq's root to the bit."""

    def test_matches_scipy_on_seeded_sinh_sums(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            sigma = rng.random(int(rng.integers(1, 61))) * 10.0 ** rng.uniform(-6.0, 1.0)
            n_target = 10.0 ** rng.uniform(-3.0, 2.0)
            ours = sinh_sum_root(_brentq, sigma, n_target)
            assert ours == sinh_sum_root(optimize.brentq, sigma, n_target), (sigma, n_target)

    def test_matches_scipy_on_every_stock_calibration(self, monkeypatch):
        from lgsqueeze.scenarios import run_scenario

        calls = []

        def recording(f, xa, xb, **kwargs):
            root = _brentq(f, xa, xb, **kwargs)
            calls.append(root == optimize.brentq(f, xa, xb, **kwargs))
            return root

        monkeypatch.setattr(coupling, "_brentq", recording)
        for name in SCENARIO_NAMES:
            run_scenario(default_config(name))
        assert len(calls) >= len(SCENARIO_NAMES) and all(calls)

    def test_underflowing_step_divides_as_in_c(self):
        # a step divisor underflows to zero: C divides to inf or nan and bisects
        def f(x):
            return 1e-200 * (x - 0.3)

        assert _brentq(f, -1.0, 1.5, 1e-15, 8.9e-16, 200) == optimize.brentq(
            f, -1.0, 1.5, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, 1e-15, 8.9e-16, 200)

    def test_root_on_a_bracket_end_is_returned_exactly(self):
        assert _brentq(lambda x: x, 0.0, 1.0, 1e-15, 8.9e-16, 200) == 0.0
        assert _brentq(lambda x: x - 1.25, 0.0, 1.25, 1e-15, 8.9e-16, 200) == 1.25

    def test_same_signs_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x + 1.0, 0.0, 1.0, 1e-15, 8.9e-16, 200)
