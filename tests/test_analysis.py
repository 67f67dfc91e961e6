import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_state, haar_unitary, random_density, rounding_bound
from dfslink.analysis import (
    DEFAULT_CHSH_ANGLES,
    CountRecord,
    DelayScanModel,
    MeasSetting,
    bell_fidelity_from_counts,
    chsh_from_counts,
    chsh_settings,
    chsh_value,
    concurrence,
    delay_scan,
    entanglement_of_formation,
    gaussian_fit,
    monte_carlo_sd,
    simulate_counts,
    stokes_settings,
    tomo_linear,
    tomo_mle,
    tomography_settings,
    transform_limited_fwhm,
)
import dfslink.analysis
from dfslink.channels import CIRCULAR_BASIS, DephasingSpec
from dfslink.dfs_protocol import ProtocolInput, distribute, prepare_phi_minus
from dfslink.qmath import (
    PAULI_Y,
    DensityOperator,
    StateVector,
    eig_hermitian,
    fidelity_with_pure,
    partial_trace,
    projector,
    tensor,
    trace_distance,
    KET_D,
    KET_DBAR,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
)

PHI = prepare_phi_minus()
DEPHASED = DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def closed_form_chsh_phi_minus(settings):
    # Oracle: E(ta, tb) = cos 2(ta+tb) for the HH-VV Bell pair.
    a, ap, b, bp = (math.radians(x) for x in settings)
    e = lambda x, y: math.cos(2 * (x + y))
    return e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)


def werner(p):
    m = p * PHI.density().matrix + (1 - p) * np.eye(4) / 4
    return DensityOperator(m)


# ---------------------------------------------------------------------------
# CHSH


def test_chsh_value_bell_pair():
    assert abs(chsh_value(PHI.density()) - 2 * math.sqrt(2)) < 1e-10
    assert abs(
        chsh_value(PHI.density()) - closed_form_chsh_phi_minus(DEFAULT_CHSH_ANGLES)
    ) < 1e-12


def test_chsh_value_dephased():
    assert abs(chsh_value(DEPHASED) - math.sqrt(2)) < 1e-10


def test_chsh_value_maximally_mixed():
    assert abs(chsh_value(DensityOperator(np.eye(4) / 4))) < 1e-12


def test_chsh_value_dim_check():
    with pytest.raises(ValueError):
        chsh_value(DensityOperator(np.eye(2) / 2))


def exact_chsh_records(rho, total_per_pair, angles=DEFAULT_CHSH_ANGLES):
    records = []
    for s in chsh_settings(angles):
        p = float(np.real(np.trace(rho.matrix @ s.joint_projector())))
        records.append(CountRecord(s, total_per_pair * p, scale=total_per_pair))
    return records


def test_chsh_from_counts_exact_expectations():
    records = exact_chsh_records(PHI.density(), 1e6)
    s, sd = chsh_from_counts(records)
    assert abs(s - 2 * math.sqrt(2)) < 1e-9
    assert sd < 0.01


def test_chsh_from_counts_matches_chsh_value(rng):
    rho = haar_state(4, rng).density()
    records = exact_chsh_records(rho, 1e6)
    s, _ = chsh_from_counts(records)
    assert abs(s - chsh_value(rho)) < 1e-9


def test_chsh_from_counts_uniform_counts():
    records = [CountRecord(s, 100.0) for s in chsh_settings()]
    s, sd = chsh_from_counts(records)
    assert abs(s) < 1e-12
    assert 0.0 < sd < 1.0


def test_chsh_from_counts_incomplete():
    records = exact_chsh_records(PHI.density(), 1000)[:-1]
    with pytest.raises(ValueError):
        chsh_from_counts(records)


@pytest.mark.parametrize("angles", [(0.0, 0.0, -22.5, 22.5), (0.0, 45.0, 22.5, 22.5)])
def test_chsh_from_counts_repeated_angles(angles):
    # Each CHSH term keeps its own sign when two analyzer angles coincide.
    s, _ = chsh_from_counts(exact_chsh_records(PHI.density(), 1e6, angles), angles)
    assert abs(s - chsh_value(PHI.density(), angles)) < 1e-9
    assert abs(abs(s) - math.sqrt(2)) < 1e-9


def test_chsh_from_counts_ignores_circular_analyzers():
    records = simulate_counts(DensityOperator(np.eye(4) / 4), stokes_settings(), 1000, seed=8)
    hv = [r for r in records if {r.setting.analyzer_a, r.setting.analyzer_b} <= {"H", "V"}]
    c = {(r.setting.analyzer_a, r.setting.analyzer_b): r.count for r in hv}
    e_hv = (c["H", "H"] + c["V", "V"] - c["H", "V"] - c["V", "H"]) / sum(c.values())
    s, sd = chsh_from_counts(records, (0.0, 0.0, 0.0, 0.0))
    assert (s, sd) == chsh_from_counts(hv, (0.0, 0.0, 0.0, 0.0))
    assert abs(s - 2 * e_hv) < 1e-12


def test_repeated_records_are_summed():
    # Every record twice: same estimates, error bars smaller by sqrt(2).
    state = werner(0.8)
    for estimator, settings in ((chsh_from_counts, chsh_settings()),
                                (bell_fidelity_from_counts, stokes_settings())):
        records = simulate_counts(state, settings, 1000, seed=5)
        value, sd = estimator(records)
        value2, sd2 = estimator(records + records)
        assert value2 == value
        assert abs(sd2 - sd / math.sqrt(2)) < 1e-12 * sd


def test_chsh_error_bar_at_repeated_angles_matches_poisson_oracle():
    # With b = b' the terms (a, b) and (a, b') read the same counts and
    # cancel, while (a', b) and (a', b') add up, so S = 2 E(a', b).  Oracle:
    # the spread of that S over Poisson draws of the counts.
    angles = (0.0, 45.0, 22.5, 22.5)
    phi_plus = np.zeros((4, 4))
    phi_plus[np.ix_([0, 3], [0, 3])] = 0.5
    rho = DensityOperator(0.5 * phi_plus + 0.5 * np.diag([0.7, 0.1, 0.1, 0.1]))
    settings = chsh_settings(angles)
    mu = np.array([1000.0 * float(np.real(np.trace(rho.matrix @ s.joint_projector())))
                   for s in settings])
    _, sd = chsh_from_counts([CountRecord(s, m) for s, m in zip(settings, mu)], angles)
    n = 50_000
    draws = np.random.default_rng(3).poisson(mu, size=(n, 16))
    # chsh_settings lists the terms in order, each as ++, +-, -+, --; sum the
    # two terms that share the (a', b) settings.
    c = draws[:, 8:12] + draws[:, 12:16]
    e = (c[:, 0] + c[:, 3] - c[:, 1] - c[:, 2]) / c.sum(axis=1)
    mc = float(np.std(2.0 * e, ddof=1))
    assert abs(sd - mc) < 4.0 * mc / math.sqrt(2.0 * (n - 1))


def test_scale_fallback_reads_named_and_angle_analyzers():
    # Without scales, the rate is the total of the H/V records, whether an
    # analyzer is named or given by its angle; the fit is then the one with
    # that total as every record's scale.
    settings = [MeasSetting(a, b) for a in ("H", 90.0, "D", "R") for b in (0.0, "V", "D", "R")]
    counted = simulate_counts(werner(0.8), settings, 1000, seed=6)
    total = float(sum(r.count for r in counted[:2] + counted[4:6]))
    bare = tomo_mle([CountRecord(r.setting, r.count) for r in counted])
    scaled = tomo_mle([CountRecord(r.setting, r.count, total) for r in counted])
    assert bare.rho_hat.matrix.tobytes() == scaled.rho_hat.matrix.tobytes()
    assert bare.log_likelihood == scaled.log_likelihood and bare.gap == scaled.gap


def test_angle_valued_records_match_named():
    # 0/90/45/135 name the same analyzers as H/V/D/A; L and R stay named.
    angle_of = {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}
    name_of = {v: k for k, v in angle_of.items()}

    def relabel(records, table):
        # The records lose their scale, so tomo_mle takes the rate from the
        # H/V subset.
        return [CountRecord(MeasSetting(table.get(r.setting.analyzer_a, r.setting.analyzer_a),
                                        table.get(r.setting.analyzer_b, r.setting.analyzer_b)),
                            r.count)
                for r in records]

    state = werner(0.8)
    tomo = relabel(simulate_counts(state, tomography_settings(), 1000, seed=3), {})
    np.testing.assert_allclose(tomo_mle(relabel(tomo, angle_of)).rho_hat.matrix,
                               tomo_mle(tomo).rho_hat.matrix, atol=1e-8)
    stokes = simulate_counts(state, stokes_settings(), 1000, seed=4)
    assert (bell_fidelity_from_counts(relabel(stokes, angle_of))
            == bell_fidelity_from_counts(stokes))
    angles = (0.0, 45.0, 90.0, 135.0)
    chsh = simulate_counts(state, chsh_settings(angles), 1000, seed=5)
    assert chsh_from_counts(relabel(chsh, name_of), angles) == chsh_from_counts(chsh, angles)
    # An angle a hair below 180 degrees is the analyzer at 0.
    assert chsh_from_counts(chsh, (-1e-7, 45.0, 90.0, 135.0)) == chsh_from_counts(chsh, angles)
    assert MeasSetting(-1e-10, 90.0) == MeasSetting(0.0, 90.0)
    # Settings round angles as the count table keys them, to 6 digits: the
    # analyzers it sums into one key are one setting with one projector.
    near, exact = MeasSetting(1e-7, 0.0), MeasSetting(0.0, 0.0)
    assert near == exact and hash(near) == hash(exact)
    assert np.array_equal(near.joint_projector(), exact.joint_projector())
    assert MeasSetting(45.0000004, 179.9999996) == MeasSetting(45.0, 0.0)


def test_an_analyzer_has_one_identity():
    # An angle at 0, 90, 45 or 135 degrees is the named analyzer, with its
    # exact ket; other angles stay angles, taken mod 180.
    angles, names = MeasSetting(0.0, 45.0), MeasSetting("H", "D")
    assert angles == names and hash(angles) == hash(names)
    assert repr(angles) == "MeasSetting(analyzer_a='H', analyzer_b='D')"
    assert angles.joint_projector().tobytes() == names.joint_projector().tobytes()
    assert MeasSetting(-45.0, 90.0000004) == MeasSetting("A", "V")
    assert MeasSetting(30.0, 180.0).analyzer_a == 30.0
    # Angle-valued tomography settings share the named settings' model.
    angle_of = {"H": 0.0, "V": 90.0, "D": 45.0, "R": "R"}
    by_angle = tuple(MeasSetting(angle_of[s.analyzer_a], angle_of[s.analyzer_b])
                     for s in tomography_settings())
    model = dfslink.analysis._setting_model
    assert model(by_angle) is model(tuple(tomography_settings()))


def test_chsh_separable_bound(rng):
    # Random separable states: mixtures of product states stay below 2.
    for _ in range(1000):
        n_terms = rng.integers(1, 4)
        m = np.zeros((4, 4), dtype=complex)
        weights = rng.dirichlet(np.ones(n_terms))
        for w in weights:
            m += w * tensor(haar_state(2, rng).density(),
                            haar_state(2, rng).density()).matrix
        angles = tuple(rng.uniform(0, 180, size=4))
        assert chsh_value(DensityOperator(m), angles) <= 2.0 + 1e-9


def test_chsh_tsirelson_bound(rng):
    for _ in range(1000):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        angles = tuple(rng.uniform(0, 180, size=4))
        assert abs(chsh_value(rho, angles)) <= 2 * math.sqrt(2) + 1e-9


def test_chsh_value_matches_pauli_observables(rng):
    # Independent oracle: E(ta, tb) = tr(rho sigma(ta) (x) sigma(tb)) with
    # sigma(t) = cos 2t Z + sin 2t X, the difference of the projectors onto
    # the analyzer angles t and t + 90 that chsh_value sums over.  Analyzers
    # keep angles to 1e-6 degrees, so the angles are drawn on that grid.
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def sigma(t):
        return math.cos(2 * math.radians(t)) * z + math.sin(2 * math.radians(t)) * x

    def pauli_chsh(rho, angles):
        a, ap, b, bp = angles
        return sum(sign * float(np.real(np.trace(rho.matrix @ np.kron(sigma(ta), sigma(tb)))))
                   for sign, ta, tb in ((1, a, b), (-1, a, bp), (1, ap, b), (1, ap, bp)))

    for k in range(60):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        if k % 3 == 0:  # sub-normalized, as a post-selected state is
            rho = DensityOperator(rng.uniform(0.1, 1.0) * rho.matrix)
        angles = [float(t) for t in rng.integers(-200_000_000, 200_000_000, size=4) / 1e6]
        if k % 4 == 1:
            angles[3] = angles[2]
        elif k % 4 == 2:
            angles[1] = angles[0] + 180.0 * int(rng.integers(-1, 2))
        for chosen in (angles, DEFAULT_CHSH_ANGLES, (0.0, 0.0, 45.0, 45.0)):
            assert abs(chsh_value(rho, chosen) - pauli_chsh(rho, chosen)) < 1e-14


def test_chsh_reads_an_iterator_of_angles():
    angles = (10.0, 55.0, -12.5, 33.0)
    rho = werner(0.8)
    records = exact_chsh_records(rho, 1e6, angles)
    assert chsh_settings(iter(angles)) == chsh_settings(angles)
    assert chsh_value(rho, iter(angles)) == chsh_value(rho, angles)
    assert chsh_from_counts(records, iter(angles)) == chsh_from_counts(records, angles)


# ---------------------------------------------------------------------------
# Settings and counts


def test_tomography_settings_complete():
    settings = tomography_settings()
    assert len(settings) == 16
    assert len({(s.analyzer_a, s.analyzer_b) for s in settings}) == 16
    gram = np.array(
        [s.joint_projector().reshape(-1) for s in settings]
    )
    assert np.linalg.matrix_rank(gram) == 16
    hh = settings[0]
    assert (hh.analyzer_a, hh.analyzer_b) == ("H", "H")
    np.testing.assert_allclose(
        hh.joint_projector(), np.diag([1.0, 0, 0, 0]), atol=1e-15
    )


def test_simulate_counts_dark_settings():
    rho = tensor(KET_H.density(), KET_H.density())
    settings = tomography_settings()
    records = simulate_counts(rho, settings, totals=10_000, seed=11)
    for rec in records:
        if rec.setting.analyzer_a == "V" or rec.setting.analyzer_b == "V":
            assert rec.count == 0


def test_simulate_counts_expected_value_oracle(rng):
    # (D, R) on the Bell pair: |<DR|phi->|^2 = 1/4 by direct projector trace.
    setting = MeasSetting("D", "R")
    p = float(np.real(np.trace(PHI.density().matrix @ setting.joint_projector())))
    assert abs(p - 0.25) < 1e-12
    total = 200_000
    counts = [
        simulate_counts(PHI.density(), [setting], total, seed)[0].count
        for seed in range(30)
    ]
    mean = np.mean(counts)
    assert abs(mean - total * p) < 5 * math.sqrt(total * p / 30)


def test_simulate_counts_matches_poisson_oracle(rng):
    # Oracle: one draw per setting, in order, from the same generator.
    settings = tomography_settings()
    totals = rng.uniform(100.0, 5000.0, size=len(settings))
    for rank in (1, 4):
        rho = random_density(4, rng, rank=rank)
        gen = np.random.default_rng(17)
        expected = []
        for s, total in zip(settings, totals):
            p = float(np.real(np.trace(rho.matrix @ s.joint_projector())))
            expected.append(int(gen.poisson(total * max(p, 0.0))))
        records = simulate_counts(rho, settings, totals, seed=17)
        assert [r.count for r in records] == expected
        assert [r.scale for r in records] == list(totals)


def test_simulate_counts_deterministic():
    records1 = simulate_counts(PHI.density(), tomography_settings(), 5000, seed=42)
    records2 = simulate_counts(PHI.density(), tomography_settings(), 5000, seed=42)
    assert [r.count for r in records1] == [r.count for r in records2]


@pytest.mark.parametrize("count, scale", [
    (math.nan, None), (math.inf, None), (10.0, math.nan), (10.0, math.inf),
    (10.0, 0.0), (10.0, -5.0),
])
def test_count_record_rejects_bad_values(count, scale):
    with pytest.raises(ValueError):
        CountRecord(MeasSetting("H", "H"), count, scale=scale)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_meas_setting_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError):
        MeasSetting(angle, 0.0)
    with pytest.raises(ValueError):
        MeasSetting("H", angle)


def test_joint_projector_is_built_once_and_read_only():
    setting = MeasSetting("D", 30.0)
    proj = setting.joint_projector()
    assert setting.joint_projector() is proj
    theta = math.radians(30.0)
    ket_d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    ket_30 = np.array([math.cos(theta), math.sin(theta)])
    np.testing.assert_allclose(proj, np.kron(np.outer(ket_d, ket_d), np.outer(ket_30, ket_30)),
                               atol=1e-15)
    with pytest.raises(ValueError):
        proj[0, 0] = 0.0
    # The cached projector takes no part in equality, hashing or repr.
    assert MeasSetting("D", 30.0) == setting
    assert hash(MeasSetting("D", 30.0)) == hash(setting)
    assert repr(setting) == "MeasSetting(analyzer_a='D', analyzer_b=30.0)"


def kron_projector(setting):
    # Oracle: the Kronecker product of each side's projector, the named ket's
    # or that of (cos, sin) of the canonical angle.
    kets = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_DBAR, "L": KET_L, "R": KET_R}

    def side(a):
        if isinstance(a, str):
            return projector(kets[a])
        theta = math.radians(a)
        return projector(StateVector([math.cos(theta), math.sin(theta)]))

    return np.kron(side(setting.analyzer_a), side(setting.analyzer_b))


def test_joint_projector_is_the_kronecker_product_byte_for_byte():
    names = ["H", "V", "D", "A", "L", "R"]
    rng = np.random.default_rng(31)
    # Angles near a name round onto it; the others stay angles.
    edges = [1e-7, -1e-10, 179.9999996, 45.0000004, 90.0000004, 134.9999999, 22.5, -67.5, 1e-5]
    angles = [*rng.uniform(-360.0, 360.0, 2000), *edges, *names]
    pairs = [(a, b) for a in names for b in names]
    pairs += [(angles[i], angles[j]) for i, j in rng.integers(len(angles), size=(1200, 2))]
    pairs += [(a, b) for a in edges for b in edges + names]
    for a, b in pairs:
        setting = MeasSetting(a, b)
        oracle = kron_projector(setting)
        assert setting.joint_projector().tobytes() == oracle.tobytes(), (a, b)
        assert setting.joint_projector().dtype == oracle.dtype


def test_equal_settings_share_one_read_only_projector():
    proj = MeasSetting(0, 45).joint_projector()
    assert proj is MeasSetting("H", "D").joint_projector()
    assert not proj.flags.writeable
    assert [f.name for f in dataclasses.fields(MeasSetting)] == ["analyzer_a", "analyzer_b"]


# ---------------------------------------------------------------------------
# Tomography


def exact_records(rho, total=1e6):
    records = []
    for s in tomography_settings():
        p = float(np.real(np.trace(rho.matrix @ s.joint_projector())))
        records.append(CountRecord(s, total * p, scale=total))
    return records


def test_tomo_linear_exact_bell():
    est = tomo_linear(exact_records(PHI.density()))
    np.testing.assert_allclose(est, PHI.density().matrix, atol=1e-10)


def test_tomo_linear_exact_mixed():
    est = tomo_linear(exact_records(DensityOperator(np.eye(4) / 4)))
    np.testing.assert_allclose(est, np.eye(4) / 4, atol=1e-10)


def test_tomo_linear_always_hermitian_trace_one(rng):
    rho = haar_state(4, rng).density()
    records = simulate_counts(rho, tomography_settings(), 300, seed=3)
    est = tomo_linear(records)
    assert est.dtype == complex and est.shape == (4, 4)
    assert not est.flags.writeable
    np.testing.assert_allclose(est, est.conj().T, atol=1e-14)
    assert abs(np.trace(est) - 1.0) < 1e-12


def test_tomo_linear_matches_lstsq_oracle(rng):
    # Oracle: the least-squares solution of the design by np.linalg.lstsq,
    # made Hermitian and trace one, on complete and overcomplete setting sets.
    for settings in (tomography_settings(), tomography_settings() + stokes_settings()):
        records = simulate_counts(random_density(4, rng), settings, 500, seed=8)
        design = np.array([s.joint_projector().T.reshape(16) for s in settings])
        counts = np.array([r.count for r in records], dtype=complex)
        chi = np.linalg.lstsq(design, counts, rcond=None)[0].reshape(4, 4)
        chi = 0.5 * (chi + chi.conj().T)
        np.testing.assert_allclose(tomo_linear(records), chi / np.trace(chi).real,
                                   rtol=0, atol=1e-12)


def test_setting_model_is_built_once_and_read_only():
    from dfslink.analysis import _setting_model

    settings = tuple(tomography_settings())
    model = _setting_model(settings)
    assert _setting_model(tuple(tomography_settings())) is model
    for array in model:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0.0
    # Every fit of a bootstrap run shares the one model of its settings.
    _setting_model.cache_clear()
    records = simulate_counts(PHI.density(), list(settings), 500, seed=2)
    monte_carlo_sd(records, lambda recs: concurrence(tomo_mle(recs).rho_hat),
                   n_resamples=4, seed=1)
    assert _setting_model.cache_info().misses == 1


def _terms_at(t, forms, counts, scales):
    # _newton_terms at a unit vector t, from the inputs tomo_mle forms there.
    from dfslink.analysis import _newton_terms

    qt = forms @ t
    probs = qt @ t
    inverse = np.divide(1.0, probs, out=np.zeros_like(probs), where=counts > 0)
    return _newton_terms(t, np.outer(t, t), forms, qt, counts * inverse - scales,
                         counts * inverse**2, counts.sum() - scales @ probs)


def _eigh_step(grad, hess):
    # Reference: the step with H's eigenvalues in absolute value, floored at
    # 1e-8 of the largest.
    lams, vecs = np.linalg.eigh(hess)
    scale = np.maximum(np.abs(lams), 1e-8 * np.abs(lams).max())
    return vecs @ ((vecs.T @ grad) / scale)


def _assert_same_newton_step(step, grad, hess, t):
    # t is H's null vector, so the reference divides the rounding error of
    # t . grad by the 1e-8 floor: its component along t is noise of up to
    # about 1e-7 relative, where the Cholesky solve keeps t . grad itself.
    # The steps agree on the tangent plane, the part that moves rho(t) to
    # first order.
    tangent = np.eye(16) - np.outer(t, t)
    np.testing.assert_allclose(tangent @ step, tangent @ _eigh_step(grad, hess), rtol=0,
                               atol=1e-10 * np.linalg.norm(step))


@pytest.mark.parametrize("definite", [True, False])
def test_newton_step_matches_eigh_step(rng, definite):
    # Where -H is positive definite on the tangent plane of t, the Cholesky
    # path solves the same Newton step; elsewhere the step is the reference's.
    from dfslink.analysis import _newton_step

    for _ in range(200):
        # An orthonormal basis whose first vector is t: H = -B diag(lams) B^T
        # on the other 15, so -H is definite on the plane iff every lam > 0.
        q = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        t, basis = q[:, 0], q[:, 1:]
        lams = rng.uniform(1e-3, 1e3, size=15)
        if not definite:
            lams[rng.integers(15)] *= -1.0
        hess = -(basis * lams) @ basis.T
        hess = 0.5 * (hess + hess.T)
        grad = basis @ rng.normal(size=15)
        step = _newton_step(grad, hess, np.outer(t, t))
        if definite:
            _assert_same_newton_step(step, grad, hess, t)
            assert abs(t @ step) <= 1e-12 * np.linalg.norm(step)  # solved, not eigh
        else:
            np.testing.assert_array_equal(step, _eigh_step(grad, hess))


def test_newton_step_matches_eigh_step_along_fits(rng):
    # The same comparison at the iterates of real fits, where the Hessian
    # comes from the likelihood and -H is usually definite on the plane.
    from dfslink.analysis import _newton_step, _quadratic_forms

    cholesky_steps = 0
    for rank in (1, 2, 4):
        records = simulate_counts(random_density(4, rng, rank=rank), tomography_settings(),
                                  1000, seed=rank)
        result = tomo_mle(records)
        projs = np.array([r.setting.joint_projector() for r in records])
        forms = _quadratic_forms(projs)
        counts = np.array([r.count for r in records], dtype=float)
        scales = np.array([r.scale for r in records])
        start = tomo_mle(records, max_iterations=0).rho_hat.matrix
        for rho in (start, 0.5 * (start + result.rho_hat.matrix)):
            # Cholesky parameters of rho in the computational basis: diag(T),
            # then (Re, Im) of each entry below it in row-major order.
            tm = np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1].conj().T
            below = tm[np.tril_indices(4, -1)]
            t = np.r_[np.real(np.diag(tm)), np.c_[below.real, below.imag].ravel()]
            t /= np.linalg.norm(t)
            grad, hess = _terms_at(t, forms, counts, scales)
            step = _newton_step(grad, hess, np.outer(t, t))
            if np.linalg.eigvalsh(np.outer(t, t) - hess)[0] > 0:
                cholesky_steps += 1
                _assert_same_newton_step(step, grad, hess, t)
    assert cholesky_steps > 0


def test_mle_gradient_matches_finite_differences(rng):
    # Oracle: central finite differences of the log-likelihood of rho(t),
    # which ignores the scale of t.  The evaluator's gradient and Hessian are
    # taken along the sphere |t| = 1, so the finite-difference Hessian is
    # projected onto the tangent plane before comparing.
    from dfslink.analysis import _log_likelihood, _quadratic_forms

    rho = random_density(4, rng)
    records = simulate_counts(rho, tomography_settings(), 2000, seed=7)
    projs = np.array([r.setting.joint_projector() for r in records])
    counts = np.array([r.count for r in records], dtype=float)
    forms = _quadratic_forms(projs)
    scales = np.array([r.scale for r in records])
    seen = counts > 0

    def loglik(t):
        return _log_likelihood((forms @ t) @ t / (t @ t), scales, seen, counts[seen],
                               scales[seen])

    t0 = rng.normal(size=16)
    t0[:4] = np.abs(t0[:4]) + 0.5
    t0 /= np.linalg.norm(t0)
    grad, hess = _terms_at(t0, forms, counts, scales)
    eps = 1e-6
    steps = eps * np.eye(16)
    num_grad = np.array([(loglik(t0 + e) - loglik(t0 - e)) / (2 * eps) for e in steps])
    np.testing.assert_allclose(grad, num_grad, rtol=1e-5, atol=1e-6)

    h = 1e-4
    steps = h * np.eye(16)
    num_hess = np.array([[(loglik(t0 + a + b) - loglik(t0 + a - b)
                           - loglik(t0 - a + b) + loglik(t0 - a - b)) / (4 * h * h)
                          for b in steps] for a in steps])
    tangent = np.eye(16) - np.outer(t0, t0)
    np.testing.assert_allclose(hess, tangent @ num_hess @ tangent, rtol=1e-5,
                               atol=1e-6 * np.abs(hess).max())


def test_tomo_mle_exact_bell_counts():
    result = tomo_mle(exact_records(PHI.density(), total=1e6))
    assert result.converged and result.gap <= 1e-6
    assert fidelity_with_pure(result.rho_hat, PHI) > 0.999
    lams = np.linalg.eigvalsh(result.rho_hat.matrix)
    assert lams[0] >= -1e-12
    assert abs(np.trace(result.rho_hat.matrix) - 1.0) < 1e-12


def test_tomo_mle_statistical_consistency(rng):
    rho = random_density(4, rng)
    records = simulate_counts(rho, tomography_settings(), 1e7, seed=5)
    result = tomo_mle(records)
    assert trace_distance(result.rho_hat, rho) < 0.01


def test_tomo_mle_monotone_likelihood(rng):
    rho = haar_state(4, rng).density()
    records = simulate_counts(rho, tomography_settings(), 800, seed=9)
    result = tomo_mle(records)
    hist = np.array(result.log_likelihood_history)
    assert np.all(np.diff(hist) >= -1e-9)
    # Final likelihood at least that of the physically projected linear start.
    assert hist[-1] >= hist[0] - 1e-9


def _hv_count_total(records):
    return sum(r.count for r in records
               if {r.setting.analyzer_a, r.setting.analyzer_b} <= {"H", "V"})


def _stationary_frequencies(records, trace_row):
    # Oracle: p_k = n_k / (N_k + lam c_k) with lam the root of sum_k c_k p_k
    # = 1, bisected between the lower end of the lams where every N_k + lam
    # c_k with c_k n_k != 0 is positive and the first of 1, 2, 4, ... where
    # the sum is below 1 (or the upper end of those lams); lam = 0 where no
    # setting with c_k > 0 has counts and so no root exists.
    counts = np.array([float(r.count) for r in records])
    scales = np.array([r.scale for r in records])
    probs = counts / scales
    live = (trace_row != 0) & (counts > 0)
    c, n, big = trace_row[live], counts[live], scales[live]
    if not (c > 0).any():
        return probs
    lo = max(-big[c > 0] / c[c > 0])
    hi = min(big[c < 0] / -c[c < 0], default=math.inf)

    def excess(lam):
        return float(np.sum(c * n / (big + lam * c))) - 1.0

    upper = 1.0
    while upper < hi and excess(upper) > 0:
        upper *= 2.0
    hi = min(hi, upper)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    probs[live] = n / (big + 0.5 * (lo + hi) * c)
    return probs


def _floored_inversion(settings, probs):
    # Oracle: the inversion of probs by lstsq, with its eigenvalues floored
    # at 1e-6, over their sum.
    design = np.array([s.joint_projector().T.reshape(16) for s in settings])
    chi = np.linalg.lstsq(design, probs.astype(complex), rcond=None)[0].reshape(4, 4)
    vals, vecs = np.linalg.eigh(0.5 * (chi + chi.conj().T))
    rho = (vecs * np.maximum(vals, 1e-6)) @ vecs.conj().T
    return rho / np.trace(rho).real


# tr(rho) = sum_k c_k p_k over tomography_settings(): c is 1 on the four H/V
# settings, since P_HH + P_HV + P_VH + P_VV = I, and 0 elsewhere.
_HV_TRACE_ROW = np.array([float({s.analyzer_a, s.analyzer_b} <= {"H", "V"})
                          for s in tomography_settings()])


def test_tomo_mle_default_start_is_projected_linear_estimate(rng):
    # Oracle: the start is the inversion of the likelihood's stationary point
    # on the trace-one plane, p_k = n_k / (N_k + lam c_k): for equal N the
    # H/V counts are divided by their own total and every other setting
    # keeps n / N; for unequal N, lam is the bisected root.  Its eigenvalues
    # are floored at 1e-6, over their sum, and its Poisson log-likelihood is
    # summed setting by setting.
    rho = random_density(4, rng, rank=2)
    for scales in (1000.0, np.linspace(500.0, 2000.0, 16)):
        records = simulate_counts(rho, tomography_settings(), scales, seed=21)
        probs = _stationary_frequencies(records, _HV_TRACE_ROW)
        if np.ndim(scales) == 0:
            closed = np.array([r.count / r.scale for r in records])
            closed[_HV_TRACE_ROW == 1] *= scales / _hv_count_total(records)
            np.testing.assert_allclose(probs, closed, rtol=1e-12, atol=0)
        rho_start = _floored_inversion(tomography_settings(), probs)
        start = tomo_mle(records, max_iterations=0)
        assert start.iterations == 0
        np.testing.assert_allclose(start.rho_hat.matrix, rho_start, rtol=0, atol=1e-12)
        direct = 0.0
        for r in records:
            mu = r.scale * float(np.real(np.trace(rho_start @ r.setting.joint_projector())))
            direct += r.count * math.log(mu) - mu
        full = tomo_mle(records)
        assert full.log_likelihood_history[0] == start.log_likelihood
        assert abs(full.log_likelihood_history[0] - direct) <= 1e-9 * abs(direct)


def test_tomo_mle_start_gives_every_setting_positive_probability():
    # Oracle: the start is the eigenvalues of the inversion (by lstsq) of the
    # stationary frequencies n_k / (N_k + lam c_k), floored at 1e-6 over
    # their sum s, so every unit-trace projector gets p_k >= 1e-6 / s
    # (Weyl), even where the records have zero-count settings, a few counts
    # in all or no H/V count.
    cases = [exact_records(PHI.density()), exact_records(DEPHASED)]
    cases += [simulate_counts(rho, tomography_settings(), total, seed=seed)
              for rho in (PHI.density(), DEPHASED) for total in range(1, 11)
              for seed in range(5)]
    design = np.array([s.joint_projector().T.reshape(16) for s in tomography_settings()])
    for records in cases:
        start = tomo_mle(records, max_iterations=0)
        assert math.isfinite(start.log_likelihood)
        freqs = _stationary_frequencies(records, _HV_TRACE_ROW).astype(complex)
        chi = np.linalg.lstsq(design, freqs, rcond=None)[0].reshape(4, 4)
        floor = 1e-6 / np.maximum(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T)), 1e-6).sum()
        probs = [np.real(np.trace(start.rho_hat.matrix @ r.setting.joint_projector()))
                 for r in records]
        assert min(probs) > 0 and min(probs) >= floor * (1 - 1e-9)


@pytest.mark.parametrize("total, seeds", [(1, (1, 2, 3, 6)), (2, (3, 11, 12)),
                                           (3, (3, 11, 29))])
def test_tomo_mle_certifies_low_counts_without_hv_counts(total, seeds):
    # Regression: record sets with no H/V count, each record scaled.  A start
    # normalised by the H/V count total refused them as degenerate, though
    # their Poisson likelihood is well defined.
    for seed in seeds:
        records = simulate_counts(PHI.density(), tomography_settings(), total, seed=seed)
        assert _hv_count_total(records) == 0
        fit = tomo_mle(records)
        assert fit.converged and fit.gap <= 1e-6


def test_tomo_mle_certifies_scaled_zero_counts():
    # Oracle: with n = 0 the log-likelihood is -N tr(rho sum_k P_k), whose
    # maximum is -N times the least eigenvalue of sum_k P_k.
    records = [CountRecord(s, 0, scale=100.0) for s in tomography_settings()]
    fit = tomo_mle(records)
    best = -100.0 * np.linalg.eigvalsh(sum(s.joint_projector() for s in tomography_settings()))[0]
    assert fit.converged
    assert best - fit.gap - 1e-9 <= fit.log_likelihood <= best + 1e-9


@pytest.mark.parametrize("scales", [1e4, np.linspace(1e3, 1e5, 16)], ids=["equal", "unequal"])
def test_tomo_mle_certifies_exact_counts_at_the_start(scales):
    # With 16 settings and every count positive, the start is the exact
    # maximum of the likelihood on the trace-one plane.  For the exact
    # expected counts N_k p_k of a full-rank state that is the state itself,
    # so its gap is 0 and the fit certifies it without a Newton step.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = DensityOperator(0.8 * random_density(4, rng).matrix + 0.05 * np.eye(4))
        records = [CountRecord(s, float(n * p), scale=float(n)) for s, n, p in
                   zip(tomography_settings(), np.broadcast_to(scales, 16),
                       [np.real(np.trace(rho.matrix @ s.joint_projector()))
                        for s in tomography_settings()])]
        fit = tomo_mle(records)
        assert fit.iterations == 0 and fit.converged
        np.testing.assert_allclose(fit.rho_hat.matrix, rho.matrix, rtol=0, atol=1e-12)


def _read_stationary(records):
    # The trace row, the frequencies n / N and tomo_mle's stationary point.
    from dfslink.analysis import _read_records, _stationary_probabilities

    (_, _, trace_row), counts, scales = _read_records(records)
    return trace_row, counts / scales, _stationary_probabilities(trace_row, counts, scales)


@pytest.mark.parametrize("case", ["no-hv-counts", "zero-counts", "scale-free",
                                  "tomography-and-stokes"])
def test_tomo_mle_certifies_degenerate_record_sets(case):
    # With no H/V count, or no count at all, no trace-one point has the
    # stationary form and the start keeps n / N; records without a scale
    # divide the H/V counts by their own total already, so lam = 0.  With the
    # 28 settings of tomography and Stokes the start has trace one but is no
    # stationary point.  Each fit is certified.
    rho = random_density(4, np.random.default_rng(4), rank=3)
    records = {
        "no-hv-counts": simulate_counts(PHI.density(), tomography_settings(), 1, seed=1),
        "zero-counts": [CountRecord(s, 0, scale=100.0) for s in tomography_settings()],
        "scale-free": [CountRecord(r.setting, r.count) for r in
                       simulate_counts(rho, tomography_settings(), 1000, seed=4)],
        "tomography-and-stokes": simulate_counts(rho, tomography_settings() + stokes_settings(),
                                                 1000, seed=4),
    }[case]
    trace_row, freqs, probs = _read_stationary(records)
    if case == "tomography-and-stokes":
        assert abs(trace_row @ probs - 1.0) <= 1e-12
        assert np.abs(probs - freqs).max() > 1e-4
    else:
        np.testing.assert_array_equal(probs, freqs)
    fit = tomo_mle(records)
    assert fit.converged and fit.gap <= 1e-6


def test_tomo_mle_start_solves_a_trace_row_of_both_signs():
    # Analyzers H, D, R and a 30-degree polarizer: I = sum_j w_j P_j with w =
    # (1 + r3, 3 + r3, 0, -2 (1 + r3)), r3 = sqrt(3), so the trace row c = w
    # (x) w has entries of both signs.  Tripling the counts of the settings
    # with c_k < 0 makes c . (n / N) negative, so the root is bracketed and
    # bisected; with counts only there, c . p < 0 for every lam and the
    # start keeps n / N.  Each start is the oracle's and each fit certified.
    r3 = math.sqrt(3.0)
    w = np.array([1 + r3, 3 + r3, 0.0, -2 * (1 + r3)])
    trace_row = np.kron(w, w)
    names = ("H", "D", "R", 30.0)
    settings = [MeasSetting(a, b) for a in names for b in names]
    rho = random_density(4, np.random.default_rng(5))
    exact = simulate_counts(rho, settings, 1000.0, seed=5)
    tripled = [CountRecord(r.setting, r.count * (3 if c < 0 else 1), scale=r.scale)
               for r, c in zip(exact, trace_row)]
    negative_only = [CountRecord(r.setting, r.count if c < 0 else 0, scale=r.scale)
                     for r, c in zip(exact, trace_row)]
    for records in (exact, tripled, negative_only):
        code_row, freqs, probs = _read_stationary(records)
        np.testing.assert_allclose(code_row, trace_row, rtol=0, atol=1e-12)
        if records is negative_only:
            np.testing.assert_array_equal(probs, freqs)
        else:
            assert abs(trace_row @ probs - 1.0) <= 1e-10
            np.testing.assert_allclose(probs, _stationary_frequencies(records, trace_row),
                                       rtol=1e-9, atol=0)
        assert (trace_row @ freqs < 0) == (records is not exact)
        start = tomo_mle(records, max_iterations=0)
        np.testing.assert_allclose(start.rho_hat.matrix, _floored_inversion(settings, probs),
                                   rtol=0, atol=1e-10)
        fit = tomo_mle(records)
        assert fit.converged and fit.gap <= 1e-6


def test_tomo_mle_newton_steps_on_the_circular_link():
    # Seeded guard on the fit's cost: 100 Poisson record sets of the circular
    # link output of the benchmark's paper run, at 1000 counts per setting,
    # take 198 Newton steps in all (48 fits certify at the start).
    spec = DephasingSpec(basis=CIRCULAR_BASIS, per_photon_sigma=1.0, delta_sigma=0.5,
                         distribution="gaussian")
    rho = distribute(ProtocolInput(PHI.density(), spec, True)).state
    steps = 0
    for seed in range(100):
        fit = tomo_mle(simulate_counts(rho, tomography_settings(), 1000, seed=seed))
        assert fit.converged
        steps += fit.iterations
    assert steps <= 198


def test_tomo_linear_divides_each_count_by_its_scale():
    # Regression: inverting the raw counts of unequal exposures missed Phi-
    # by 0.67; the frequencies n / N miss it by as little as equal totals do.
    records = simulate_counts(PHI.density(), tomography_settings(),
                              np.linspace(1e6, 4e6, 16), seed=3)
    assert np.abs(tomo_linear(records) - PHI.density().matrix).max() < 0.01


def _hv_jitter_output(delta_sigma):
    # Phi- through gaussian H/V collective noise with inter-photon jitter: a
    # rank-2 state.
    spec = DephasingSpec(per_photon_sigma=0.4, delta_sigma=delta_sigma, distribution="gaussian")
    out = distribute(ProtocolInput(PHI.density(), spec)).state.matrix
    return DensityOperator(out / np.trace(out).real)


@pytest.mark.parametrize("case", ["dephased", "hv-jitter-0.5", "hv-jitter-1.5"])
def test_tomo_mle_converges_fast_at_rank_deficient_optima(case):
    # At optima of rank 2 the fit certifies in a few Newton steps.  A
    # Cholesky factor in the computational basis converges only linearly on
    # these cases: a median of 21-32 steps and up to 128.
    rho = {"dephased": DEPHASED,
           "hv-jitter-0.5": _hv_jitter_output(0.5),
           "hv-jitter-1.5": _hv_jitter_output(1.5)}[case]
    iterations = []
    for seed in range(40):
        result = tomo_mle(simulate_counts(rho, tomography_settings(), 1000, seed=seed))
        assert result.converged and result.gap <= 1e-6
        iterations.append(result.iterations)
    assert np.median(iterations) <= 6
    assert max(iterations) <= 12


@pytest.mark.parametrize("case", ["pure", "rank2", "full"])
def test_tomo_mle_gap_certifies_the_optimum(rng, case):
    # Oracle: concavity in rho.  No density matrix may have a log-likelihood
    # above the estimate's plus the reported gap.  Tried: random states, the
    # pure state along which the likelihood rises fastest from rho_hat, and
    # states a short way from rho_hat towards each.
    rho = {"pure": haar_state(4, rng).density(),
           "rank2": random_density(4, rng, rank=2),
           "full": random_density(4, rng)}[case]
    records = simulate_counts(rho, tomography_settings(), 800, seed=31)
    result = tomo_mle(records)
    assert result.converged and 0.0 <= result.gap <= 1e-6
    projs = np.array([r.setting.joint_projector() for r in records])
    counts = np.array([r.count for r in records])
    scales = np.array([r.scale for r in records])

    def loglik(m):
        mu = scales * np.real(np.einsum("ij,kji->k", m, projs))
        seen = counts > 0
        return float(counts[seen] @ np.log(mu[seen]) - mu.sum())

    rho_hat = result.rho_hat.matrix
    probs = np.real(np.einsum("ij,kji->k", rho_hat, projs))
    slope = np.einsum("k,kij->ij", counts / probs - scales, projs)
    steepest = np.linalg.eigh(slope)[1][:, -1]
    candidates = [np.outer(steepest, steepest.conj())]
    candidates += [random_density(4, rng, rank=rank).matrix for rank in (1, 2, 4) * 20]
    bound = result.log_likelihood + result.gap + 1e-9 * abs(result.log_likelihood)
    for sigma in candidates:
        for weight in (1.0, 1e-2, 1e-4, 1e-6):
            assert loglik((1 - weight) * rho_hat + weight * sigma) <= bound


def test_tomo_mle_certificate_holds_within_its_rounding_bound():
    # The same records fitted in two orders give two certified estimates.  In
    # exact arithmetic neither log-likelihood exceeds the other's plus its
    # gap; the reported floats do, by an ulp or two, on some of these seeds,
    # and never by more than the two fits' stated rounding bounds.
    broken = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        rho = random_density(4, rng, rank=1 + seed % 4)
        records = simulate_counts(rho, tomography_settings(), (300, 1000, 5000)[seed // 4 % 3],
                                  seed=seed)
        fits = tomo_mle(records), tomo_mle(records[::-1])
        assert all(f.converged for f in fits)
        slack = sum(rounding_bound(records, f.rho_hat) for f in fits)
        for a, b in (fits, fits[::-1]):
            excess = b.log_likelihood - (a.log_likelihood + a.gap)
            broken += excess > 0
            assert excess <= slack
    assert broken >= 1


def test_cholesky_parameter_layout():
    # diag(T), then (Re, Im) of the entries below it in row-major order.
    from dfslink.analysis import _t_from_params

    t = _t_from_params(np.arange(16.0))
    np.testing.assert_array_equal(np.diag(t), [0, 1, 2, 3])
    np.testing.assert_array_equal(
        t[np.tril_indices(4, -1)], [4 + 5j, 6 + 7j, 8 + 9j, 10 + 11j, 12 + 13j, 14 + 15j])
    np.testing.assert_array_equal(t[np.triu_indices(4, 1)], 0)


@pytest.mark.parametrize("max_iterations", [10_000, 3, np.int64(3)])
def test_tomo_mle_history_has_one_value_per_iterate(rng, max_iterations):
    rho = random_density(4, rng, rank=2)
    records = simulate_counts(rho, tomography_settings(), 800, seed=12)
    result = tomo_mle(records, max_iterations=max_iterations)
    assert len(result.log_likelihood_history) == result.iterations + 1
    assert result.log_likelihood == result.log_likelihood_history[-1]


def test_tomo_mle_log_likelihood_of_estimate(rng):
    # Oracle: the Poisson log-likelihood of rho_hat, evaluated setting by setting.
    rho = random_density(4, rng)
    records = simulate_counts(rho, tomography_settings(), 2000, seed=13)
    result = tomo_mle(records)
    direct = 0.0
    for r in records:
        p = float(np.real(np.trace(result.rho_hat.matrix @ r.setting.joint_projector())))
        mu = r.scale * p
        direct += r.count * math.log(mu) - mu
    assert abs(result.log_likelihood - direct) <= 1e-9 * abs(direct)


@pytest.mark.parametrize("fit", [tomo_linear, tomo_mle])
def test_tomography_rejects_incomplete_settings(fit):
    records = exact_records(PHI.density())
    # Too few settings, and 16 settings of rank 15; each twice, since the
    # rejection is not cached away.
    for incomplete in (records[:15], records[:15] + records[:1]) * 2:
        with pytest.raises(ValueError, match="informationally complete"):
            fit(incomplete)


def test_tomo_mle_iteration_cap_reports_nonconvergence(rng):
    rho = haar_state(4, rng).density()
    records = simulate_counts(rho, tomography_settings(), 800, seed=10)
    result = tomo_mle(records, max_iterations=1)
    assert not result.converged


@pytest.mark.parametrize("max_iterations", [10_000, 2, 0])
def test_tomo_mle_forms_derivatives_only_for_a_step(monkeypatch, max_iterations):
    # The gap is checked before the gradient and Hessian are formed, so the
    # iterate that stops a fit, on its certificate or at the cap, forms
    # none: one _newton_terms call per Newton step taken.
    calls = []
    newton_terms = dfslink.analysis._newton_terms

    def counted(*args):
        calls.append(None)
        return newton_terms(*args)

    monkeypatch.setattr(dfslink.analysis, "_newton_terms", counted)
    for seed, (rank, total) in enumerate([(1, 1000), (2, 50), (4, 3), (4, 1e5), (2, 1000)]):
        rho = random_density(4, np.random.default_rng(seed), rank=rank)
        calls.clear()
        result = tomo_mle(simulate_counts(rho, tomography_settings(), total, seed=seed),
                          max_iterations=max_iterations)
        assert result.converged or result.iterations == max_iterations
        assert len(calls) == result.iterations


# ---------------------------------------------------------------------------
# Entanglement measures


def test_concurrence_bell():
    assert abs(concurrence(PHI.density()) - 1.0) < 1e-12


def test_concurrence_separable_mixture():
    assert concurrence(DEPHASED) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_concurrence_werner_closed_form(p):
    expected = max(0.0, (3 * p - 1) / 2)
    assert abs(concurrence(werner(p)) - expected) < 1e-10


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(100):
        rho = random_density(4, rng, rank=2)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
        assert abs(concurrence(rho) - concurrence(rotated)) < 1e-10


def _concurrence_by_eig_hermitian(rho):
    # Oracle: the form that takes its eigenpairs, descending, from the
    # checked eig_hermitian.
    vals, vecs = eig_hermitian(rho.matrix)
    keep = vals > 1e-14 * vals[0]
    if not keep.any():
        return 0.0
    w = vecs[:, keep] * np.sqrt(vals[keep])
    lams = np.linalg.svd(w.T @ np.kron(PAULI_Y, PAULI_Y) @ w, compute_uv=False)
    return float(max(0.0, lams[0] - np.sum(lams[1:])))


def test_concurrence_matches_eig_hermitian_form_bit_for_bit(rng):
    # concurrence reads np.linalg.eigh of an already checked DensityOperator
    # in reverse; that must change no bit, also where eigenvalues tie.
    states = [DensityOperator(np.eye(4) / 4), DEPHASED, DensityOperator(np.zeros((4, 4))),
              DensityOperator(np.diag([0.25, 0.25, 0.5, 0.0]))]
    states += [werner(p) for p in np.linspace(0.0, 1.0, 101)]
    for rank in (1, 2, 3, 4):
        for i in range(100):
            rho = random_density(4, rng, rank=rank)
            states.append(DensityOperator(0.5 * rho.matrix) if i % 4 == 0 else rho)
    for rho in states:
        assert concurrence(rho) == _concurrence_by_eig_hermitian(rho)


def test_eof_endpoints():
    assert abs(entanglement_of_formation(PHI.density()) - 1.0) < 1e-12
    assert entanglement_of_formation(DEPHASED) < 1e-12


@pytest.mark.parametrize("t", [1.0, 0.5, 0.25, 0.0])
def test_eof_scales_with_trace(t):
    # Like concurrence and chsh_value, E_F of a state of trace t is t times
    # that of the normalized state: t for the Bell pair.
    assert abs(entanglement_of_formation(DensityOperator(t * PHI.density().matrix)) - t) < 1e-12
    mixed = werner(0.8)
    scaled = entanglement_of_formation(DensityOperator(t * mixed.matrix))
    assert abs(scaled - t * entanglement_of_formation(mixed)) < 1e-12


def test_eof_monotone_in_concurrence():
    values = [entanglement_of_formation(werner(p)) for p in np.linspace(1 / 3, 1, 30)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Monte-Carlo error bars


def test_monte_carlo_sd_zero_variance():
    records = simulate_counts(PHI.density(), tomography_settings(), 1000, seed=1)
    assert monte_carlo_sd(records, lambda recs: 1.23, n_resamples=50, seed=2) == 0.0


def test_monte_carlo_sd_scaling(rng):
    # Bootstrap sd of the direct fidelity estimate scales like 1/sqrt(N).
    # Exact Bell-pair data is degenerate for this check (the off-diagonal
    # outcomes have zero counts and the ratio estimator is identically 1),
    # so probe with a slightly mixed state of the same family.
    state = werner(0.92)
    sds = []
    for total in (1e3, 1e4, 1e5):
        records = simulate_counts(state, stokes_settings(), total / 12.0, seed=21)
        sd = monte_carlo_sd(
            records,
            lambda recs: bell_fidelity_from_counts(recs)[0],
            n_resamples=200,
            seed=3,
        )
        sds.append(sd)
    for ratio in (sds[0] / sds[1], sds[1] / sds[2]):
        assert abs(ratio - math.sqrt(10)) < 0.2 * math.sqrt(10)


def test_monte_carlo_sd_excludes_failures():
    records = simulate_counts(PHI.density(), tomography_settings(), 1000, seed=4)
    calls = {"n": 0}

    def flaky(recs):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise RuntimeError("boom")
        return float(sum(r.count for r in recs))

    sd = monte_carlo_sd(records, flaky, n_resamples=50, seed=5)
    assert sd > 0.0


def test_log_likelihood_is_minus_inf_at_a_seen_zero_probability():
    from dfslink.analysis import _log_likelihood

    probs, scales = np.array([0.0, 0.5]), np.array([10.0, 10.0])
    seen = np.array([True, True])
    assert _log_likelihood(probs, scales, seen, np.array([3.0, 2.0]), scales) == -math.inf
    # Without counts the same zero adds only -N_k p_k = 0.
    seen = np.array([False, True])
    value = _log_likelihood(probs, scales, seen, np.array([2.0]), scales[seen])
    assert value == pytest.approx(2.0 * math.log(5.0) - 5.0, rel=1e-15)


def test_tomo_mle_stops_uncertified_when_no_step_raises_the_likelihood(monkeypatch, caplog):
    # Every trial after the start reads -inf, so the line search halves the
    # first step 60 times in vain and the fit stops at its start.
    records = simulate_counts(PHI.density(), tomography_settings(), 1000, seed=3)
    real = dfslink.analysis._log_likelihood
    values = []

    def start_only(*args):
        values.append(real(*args) if not values else -math.inf)
        return values[-1]

    monkeypatch.setattr(dfslink.analysis, "_log_likelihood", start_only)
    with caplog.at_level(logging.WARNING, logger="dfslink.analysis"):
        fit = tomo_mle(records)
    assert len(values) == 61
    assert not fit.converged and fit.gap > 1e-6
    assert fit.iterations == 0
    assert fit.log_likelihood_history == (values[0],) and fit.log_likelihood == values[0]
    assert [r.getMessage() for r in caplog.records] == [
        f"tomography MLE stopped after 0 iterations with gap {fit.gap:.3g}"]


def test_monte_carlo_sd_excludes_non_finite_values(caplog):
    # A resample whose statistic is nan or +-inf is excluded and counted
    # like one on which the statistic raises.
    records = simulate_counts(PHI.density(), tomography_settings(), 1000, seed=4)
    seen = []

    def partly_finite(recs):
        seen.append(float(sum(r.count for r in recs)))
        return (math.nan, math.inf, -math.inf, seen[-1])[len(seen) % 4]

    with caplog.at_level(logging.WARNING, logger="dfslink.analysis"):
        sd = monte_carlo_sd(records, partly_finite, n_resamples=40, seed=5)
    finite = [v for k, v in enumerate(seen, start=1) if k % 4 == 3]
    assert len(finite) == 10
    assert sd == float(np.std(finite, ddof=1))
    assert "excluded 30 of 40 resamples" in caplog.text


def test_monte_carlo_sd_keeps_missing_scales():
    # Records without a scale are redrawn without one, so tomography of each
    # resample takes N from that resample's own H/V subset.
    drawn = simulate_counts(werner(0.9), tomography_settings(), 1000, seed=8)
    records = [CountRecord(r.setting, r.count) for r in drawn]
    seen = []

    def mle_concurrence(recs):
        seen.append(recs)
        return concurrence(tomo_mle(recs).rho_hat)

    monte_carlo_sd(records, mle_concurrence, n_resamples=3, seed=9)
    assert len(seen) == 3
    for recs in seen:
        assert all(r.scale is None for r in recs)
        hv = sum(float(r.count) for r in recs
                 if r.setting.analyzer_a in "HV" and r.setting.analyzer_b in "HV")
        scaled = [CountRecord(r.setting, r.count, scale=hv) for r in recs]
        np.testing.assert_allclose(tomo_mle(recs).rho_hat.matrix,
                                   tomo_mle(scaled).rho_hat.matrix, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_monte_carlo_sd_draws_match_scalar_oracle(rng, seed):
    # Oracle: one scalar Poisson draw per record, in record order, from the
    # resample's generator.  Counts span zero, small and large means, and
    # non-integral ones.
    counts = [0.0, 0.4, 3.0, 9.0, 10.0, 11.5, 250.0, 1e6 * rng.uniform()]
    counts += list(rng.uniform(0, 50, size=8))
    records = [CountRecord(s, c, scale=1e3) for s, c in zip(tomography_settings(), counts)]
    seen = []

    def capture(recs):
        seen.append([r.count for r in recs])
        return float(len(seen))

    monte_carlo_sd(records, capture, n_resamples=25, seed=seed)
    for i, drawn in enumerate(seen):
        oracle_rng = np.random.default_rng((seed, i))
        assert drawn == [int(oracle_rng.poisson(c)) for c in counts]
        assert all(type(n) is int for n in drawn)


def test_monte_carlo_sd_deterministic():
    records = simulate_counts(PHI.density(), tomography_settings(), 1000, seed=6)
    stat = lambda recs: float(sum(r.count for r in recs))
    a = monte_carlo_sd(records, stat, n_resamples=60, seed=7)
    b = monte_carlo_sd(records, stat, n_resamples=60, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# Delay scan


def test_delay_scan_zero_delay_visibility():
    model = DelayScanModel(background=400.0, visibility=0.85, coherence_fwhm=130.0)
    dd, ddbar = delay_scan(model, [0.0])
    v = (dd[0] - ddbar[0]) / (dd[0] + ddbar[0])
    assert abs(v - 0.85) < 1e-12


def test_delay_scan_large_delay():
    model = DelayScanModel(background=400.0, visibility=0.85, coherence_fwhm=130.0)
    dd, ddbar = delay_scan(model, [1e5])
    assert abs(dd[0] - 200.0) < 1e-9
    assert abs(ddbar[0] - 200.0) < 1e-9


def test_delay_scan_fwhm_definition():
    model = DelayScanModel(background=2.0, visibility=1.0, coherence_fwhm=130.0)
    dd, ddbar = delay_scan(model, [65.0])
    g = (dd[0] - ddbar[0]) / 2.0  # B V g / 2 with B=2, V=1
    assert abs(g - 0.5) < 1e-12


def test_delay_scan_count_conservation():
    model = DelayScanModel(background=123.0, visibility=0.7, coherence_fwhm=80.0)
    delays = np.linspace(-300, 300, 41)
    dd, ddbar = delay_scan(model, delays)
    np.testing.assert_allclose(dd + ddbar, 123.0, atol=1e-12)


def test_delay_scan_first_curve_is_the_crossed_port():
    # Under V = -<XX>, the first curve at zero delay is P(D, Dbar) + P(Dbar, D).
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    crossed = (MeasSetting("D", "A").joint_projector()
               + MeasSetting("A", "D").joint_projector())
    rng = np.random.default_rng(2808)
    for rank in (1, 2, 3, 4) * 5:
        rho = random_density(4, rng, rank=rank).matrix
        model = DelayScanModel(1.0, -float(np.real(np.trace(rho @ xx))), 130.0)
        first = delay_scan(model, [0.0])[0][0]
        assert abs(first - float(np.real(np.trace(crossed @ rho)))) <= 1e-15


def test_gaussian_fit_round_trip():
    model = DelayScanModel(background=400.0, visibility=0.85, coherence_fwhm=130.0)
    delays = np.linspace(-300, 300, 21)
    dd, ddbar = delay_scan(model, delays)
    fit = gaussian_fit(delays, dd, ddbar)
    assert fit.converged
    assert abs(fit.visibility - 0.85) / 0.85 < 1e-6
    assert abs(fit.coherence_fwhm - 130.0) / 130.0 < 1e-6
    assert abs(fit.background - 400.0) / 400.0 < 1e-6


def test_fit_never_loads_scipy():
    # A fresh interpreter: this one may have loaded SciPy already.
    script = """
import sys
import numpy as np
import dfslink.qmath, dfslink.channels, dfslink.dfs_protocol, dfslink.analysis as an
model = an.DelayScanModel(background=400.0, visibility=0.85, coherence_fwhm=130.0)
delays = np.linspace(-300, 300, 21)
fit = an.gaussian_fit(delays, *an.delay_scan(model, delays))
print(fit.converged and abs(fit.coherence_fwhm - 130.0) < 1e-4)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(dfslink.analysis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out == ["True", "[]"]


def _least_squares_fit(delays, dd, ddbar):
    """The former SciPy fit, kept as an oracle: the same residuals, bounds and
    start guess, with least_squares' tolerances tightened from 1e-8 to 1e-12
    so that it stops at the optimum (at 1e-8 it stopped up to 1.2e-6 away in
    V on these scans).  Returns (V, L, B) and the weighted cost."""
    optimize = pytest.importorskip("scipy.optimize")
    span = float(delays.max() - delays.min())
    w = 1.0 / np.sqrt(np.maximum(np.concatenate([dd, ddbar]), 1.0))

    def residual(params):
        v, lc, b = params
        model = DelayScanModel(background=b, visibility=v, coherence_fwhm=lc)
        return (np.concatenate(delay_scan(model, delays)) - np.concatenate([dd, ddbar])) * w

    contrast = (dd - ddbar) / np.maximum(dd + ddbar, 1e-9)
    v0 = float(np.clip(np.max(contrast), 0.05, 1.0))
    above = delays[contrast > v0 / 2.0]
    l0 = float(above.max() - above.min()) if above.size >= 2 else span / 4.0
    res = optimize.least_squares(
        residual, x0=[v0, max(l0, span / 50.0), float(np.mean(dd + ddbar))],
        bounds=([0.0, 1e-6, 1e-6], [1.5, 10.0 * span, np.inf]),
        xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return res.x, float(res.fun @ res.fun)


def _paper_scans(visibility, seeds):
    """Poisson-noisy 41-point scans shaped like the paper's: 2000 counts per
    analyzer pair far from zero delay, delays out to 2.5 coherence lengths."""
    fwhm = transform_limited_fwhm(0.79, 0.003)
    delays = np.linspace(-2.5 * fwhm, 2.5 * fwhm, 41)
    curves = delay_scan(DelayScanModel(2000.0, visibility, fwhm), delays)
    for seed in seeds:
        gen = np.random.default_rng((int(100 * visibility), seed))
        yield delays, *(gen.poisson(c).astype(float) for c in curves)


def test_gaussian_fit_matches_least_squares():
    for visibility in (1.0, 0.95, 0.6, 0.2):
        for delays, dd, ddbar in _paper_scans(visibility, range(5)):
            fit = gaussian_fit(delays, dd, ddbar)
            (v_ls, _, _), cost_ls = _least_squares_fit(delays, dd, ddbar)
            assert fit.converged
            assert fit.residuals @ fit.residuals <= cost_ls * (1.0 + 1e-9)
            assert abs(fit.visibility - v_ls) < 1e-6
    # One scan per visibility bound.  Swapped curves put the free optimum at
    # V < 0.  A scan that skips zero delay can follow the model at V = 2
    # with non-negative counts, which puts it above 1.5.
    delays, dd, ddbar = next(_paper_scans(0.6, [0]))
    side = np.linspace(70.0, 300.0, 12)
    skip_zero = np.concatenate([-side[::-1], side])
    for bound, scan in (
        (0.0, (delays, ddbar, dd)),
        (1.5, (skip_zero, *delay_scan(DelayScanModel(2000.0, 2.0, 100.0), skip_zero))),
    ):
        fit = gaussian_fit(*scan)
        (v_ls, _, _), cost_ls = _least_squares_fit(*scan)
        assert abs(fit.visibility - bound) < 1e-12 and abs(v_ls - bound) < 1e-6
        assert fit.residuals @ fit.residuals <= cost_ls * (1.0 + 1e-9)
        # At V = 0 the width drops out of the model, so no width is preferred.
        assert fit.converged == (bound == 1.5)


def test_gaussian_fit_with_poisson_noise(rng):
    model = DelayScanModel(background=400.0, visibility=0.85, coherence_fwhm=130.0)
    delays = np.linspace(-300, 300, 21)
    dd, ddbar = delay_scan(model, delays)
    hits = 0
    n_seeds = 30
    for seed in range(n_seeds):
        gen = np.random.default_rng((100, seed))
        fit = gaussian_fit(delays, gen.poisson(dd), gen.poisson(ddbar))
        if abs(fit.coherence_fwhm - 130.0) / 130.0 < 0.15:
            hits += 1
    assert hits >= int(0.9 * n_seeds)


def test_transform_limit_value():
    # 790 nm centre, 2.7 nm bandwidth -> about 102 um.
    lc = transform_limited_fwhm(0.79, 0.0027)
    assert abs(lc - 102.0) < 1.0


@pytest.mark.parametrize("field", ["background", "visibility", "coherence_fwhm"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_delay_scan_model_rejects_non_finite(field, value):
    params = {"background": 400.0, "visibility": 0.85, "coherence_fwhm": 130.0}
    params[field] = value
    with pytest.raises(ValueError):
        DelayScanModel(**params)


@pytest.mark.parametrize("args", [(math.nan, 0.0027), (math.inf, 0.0027),
                                  (0.79, math.nan), (0.79, math.inf)])
def test_transform_limit_rejects_non_finite(args):
    with pytest.raises(ValueError):
        transform_limited_fwhm(*args)


def _raise(recs):
    raise RuntimeError("statistic failed")


# Informationally complete settings with no H or V analyzer on either side.
_NO_HV_SETTINGS = [MeasSetting(a, b) for a in (30.0, 75.0, 120.0, "R")
                   for b in (30.0, 75.0, 120.0, "R")]


# Tomography records with an int in place of the last record.
_INT_RECORD = [*exact_records(PHI.density())[:-1], 5]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), 0.0, 1),
                 "totals must be finite and positive", id="zero-total"),
    pytest.param(lambda: simulate_counts(PHI.density(), [MeasSetting("H", "H")] * 2,
                                         [100.0, -1.0], 1),
                 "totals must be finite and positive", id="negative-total"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), math.nan, 1),
                 "totals must be finite and positive", id="nan-total"),
    pytest.param(lambda: simulate_counts(PHI.density(), [MeasSetting("H", "H")] * 2,
                                         [100.0, math.inf], 1),
                 "totals must be finite and positive", id="inf-total"),
    pytest.param(lambda: simulate_counts(PHI.density(), [MeasSetting("H", "H")] * 2,
                                         [100.0, 10**400], 1),
                 "totals must be finite and positive", id="huge-int-total"),
    pytest.param(lambda: simulate_counts(DensityOperator(np.eye(2) / 2),
                                         tomography_settings(), 100.0, 1),
                 "requires a two-qubit state", id="counts-one-qubit"),
    pytest.param(lambda: simulate_counts(np.eye(4) / 4, tomography_settings(), 100.0, 1),
                 "state must be a DensityOperator, got ndarray", id="counts-ndarray"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(),
                                         [100.0] * 3, 1),
                 "one per setting", id="totals-wrong-length"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), 1e300, 1),
                 "totals are too large to draw Poisson counts", id="totals-beyond-poisson"),
    pytest.param(lambda: monte_carlo_sd([CountRecord(s, 1e300) for s in tomography_settings()],
                                        len),
                 "counts are too large to redraw as Poisson counts", id="counts-beyond-poisson"),
    pytest.param(lambda: tomo_mle([CountRecord(s, 10.0) for s in _NO_HV_SETTINGS]),
                 "no complete H/V subset", id="no-scale-no-hv"),
    pytest.param(lambda: tomo_linear([CountRecord(s, 10.0) for s in _NO_HV_SETTINGS]),
                 "no complete H/V subset", id="linear-no-scale-no-hv"),
    pytest.param(lambda: MeasSetting("X", "H"), "^unknown analyzer label 'X'$",
                 id="unknown-analyzer-label"),
    pytest.param(lambda: tomo_linear([CountRecord(s, 0, scale=100.0)
                                      for s in tomography_settings()]),
                 "^degenerate counts: zero-trace linear estimate$", id="zero-trace-linear"),
    pytest.param(lambda: concurrence(DensityOperator(np.eye(2) / 2)), "two-qubit",
                 id="concurrence-one-qubit"),
    pytest.param(lambda: concurrence(tomo_linear(exact_records(PHI.density()))), "two-qubit",
                 id="concurrence-ndarray"),
    pytest.param(lambda: chsh_value(tomo_linear(exact_records(PHI.density()))), "two-qubit",
                 id="chsh-ndarray"),
    pytest.param(lambda: chsh_value(np.full((4, 4), np.nan)), "two-qubit",
                 id="chsh-nan-ndarray"),
    pytest.param(lambda: chsh_value(5 * np.ones((4, 4))), "two-qubit",
                 id="chsh-unphysical-ndarray"),
    pytest.param(lambda: fidelity_with_pure(KET_H.density(), np.array([1, 0])),
                 "target must be a StateVector", id="fidelity-ndarray-target"),
    pytest.param(lambda: fidelity_with_pure(np.eye(2) / 2, KET_H),
                 "state must be a DensityOperator", id="fidelity-ndarray-state"),
    pytest.param(lambda: trace_distance(KET_H.density(), np.eye(2) / 2),
                 "state must be a DensityOperator", id="trace-distance-ndarray"),
    pytest.param(lambda: partial_trace(PHI.density().matrix, [0]),
                 "state must be a DensityOperator", id="partial-trace-ndarray"),
    pytest.param(lambda: CountRecord("HH", 3), "setting must be a MeasSetting",
                 id="string-setting"),
    pytest.param(lambda: CountRecord(None, 3), "^setting must be a MeasSetting, got NoneType$",
                 id="setting-kind-named"),
    pytest.param(lambda: CountRecord(MeasSetting("H", "H"), 10**400),
                 "counts must be finite and non-negative", id="huge-int-count"),
    pytest.param(lambda: CountRecord(MeasSetting("H", "H"), 3, scale=10**400),
                 "scale must be finite and positive", id="huge-int-scale"),
    pytest.param(lambda: MeasSetting("H", -10**400), "analyzer angle must be finite",
                 id="huge-int-angle"),
    pytest.param(lambda: CountRecord(MeasSetting("H", "H"), "3"),
                 "^counts must be finite and non-negative$", id="string-count"),
    pytest.param(lambda: MeasSetting("H", [1.0]),
                 r"^analyzer angle must be finite, got \[1.0\]$", id="list-angle"),
    pytest.param(lambda: DelayScanModel("x", 0.5, 1.0), "^background must be finite$",
                 id="string-background"),
    pytest.param(lambda: transform_limited_fwhm("x", 1.0),
                 "^wavelength and bandwidth must be finite and positive$",
                 id="string-wavelength"),
    pytest.param(lambda: chsh_settings(("a", 1, 2, 3)),
                 r"^CHSH settings must be four finite angles, got \('a', 1, 2, 3\)$",
                 id="chsh-string-angle"),
    pytest.param(lambda: delay_scan(DelayScanModel(1.0, 0.5, 10.0), "abc"),
                 "^delays must be finite$", id="scan-string-delays"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), "abc", 1),
                 "^totals must be finite and positive$", id="string-totals"),
    pytest.param(lambda: gaussian_fit("abc", [1.0] * 6, [1.0] * 6),
                 "^delays and counts must be finite$", id="fit-string-delays"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, n_resamples=1),
                 "at least two resamples", id="one-resample"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), _raise, n_resamples=3),
                 "too few successful resamples", id="statistic-always-raises"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), lambda recs: math.nan,
                                        n_resamples=3),
                 "too few successful resamples", id="statistic-always-nan"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), lambda recs: math.inf,
                                        n_resamples=3),
                 "too few successful resamples", id="statistic-always-inf"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, n_resamples=-1),
                 "^n_resamples must be non-negative, got -1$", id="bootstrap-negative-resamples"),
    pytest.param(lambda: tomo_mle(exact_records(PHI.density()), max_iterations=-3),
                 "max_iterations must be non-negative", id="negative-max-iterations"),
    pytest.param(lambda: chsh_value(PHI.density(), (math.nan, 0.0, 0.0, 0.0)),
                 "CHSH settings must be four finite angles", id="chsh-nan-angle"),
    pytest.param(lambda: chsh_settings((0.0, 45.0, 22.5)),
                 "CHSH settings must be four finite angles", id="chsh-three-angles"),
    pytest.param(lambda: chsh_from_counts(exact_chsh_records(PHI.density(), 1e6),
                                          (math.nan, 45.0, -22.5, -67.5)),
                 "CHSH settings must be four finite angles", id="chsh-counts-nan-angle"),
    pytest.param(lambda: chsh_value(PHI.density(), (0.0, 45.0, 22.5, math.inf, 0.0)),
                 "CHSH settings must be four finite angles", id="chsh-five-angles"),
    pytest.param(lambda: chsh_settings((0.0, 45.0, 10**400, -67.5)),
                 "CHSH settings must be four finite angles", id="chsh-huge-int-angle"),
    pytest.param(lambda: DelayScanModel(400.0, 0.85, 0.0), "FWHM", id="zero-fwhm"),
    pytest.param(lambda: DelayScanModel(400.0, 0.85, -1.0), "FWHM", id="negative-fwhm"),
    pytest.param(lambda: DelayScanModel(0.0, 0.85, 130.0), "background",
                 id="zero-background"),
    pytest.param(lambda: DelayScanModel(-1.0, 0.85, 130.0), "background",
                 id="negative-background"),
    pytest.param(lambda: DelayScanModel(400.0, 10**400, 130.0), "visibility must be finite",
                 id="huge-int-visibility"),
    pytest.param(lambda: transform_limited_fwhm(0.79, 10**400),
                 "wavelength and bandwidth must be finite and positive",
                 id="huge-int-bandwidth"),
    pytest.param(lambda: transform_limited_fwhm(1e200, 1e-200),
                 r"coherence length wavelength\*\*2 / bandwidth is beyond the float range",
                 id="fwhm-beyond-float-range"),
    pytest.param(lambda: gaussian_fit([5.0] * 6, [1.0] * 6, [1.0] * 6), "nonzero range",
                 id="equal-delays"),
    pytest.param(lambda: gaussian_fit(np.zeros((2, 3)), np.ones((2, 3)), np.ones((2, 3))),
                 "1-D delays and counts of equal length", id="fit-2d-input"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [1.0] * 6, [1.0] * 5),
                 "1-D delays and counts of equal length",
                 id="fit-unequal-lengths"),
    pytest.param(lambda: gaussian_fit([0.0, 1, 2, 3, math.nan, 5], [1.0] * 6, [1.0] * 6),
                 "must be finite", id="fit-nan-delay"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [1.0] * 5 + [math.nan], [1.0] * 6),
                 "must be finite", id="fit-nan-count"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [1.0] * 6, [math.inf] + [1.0] * 5),
                 "must be finite", id="fit-inf-count"),
    pytest.param(lambda: gaussian_fit([0, 1, 2, 3, 4, 10**400], [1.0] * 6, [1.0] * 6),
                 "delays and counts must be finite", id="fit-huge-int-delay"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [10**400] + [1.0] * 5, [1.0] * 6),
                 "delays and counts must be finite", id="fit-huge-int-count"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [1.0] * 6, [-1.0] + [1.0] * 5),
                 "non-negative", id="fit-negative-count"),
    pytest.param(lambda: gaussian_fit(np.arange(6.0), [0.0] * 6, [0.0] * 6),
                 "not all zero", id="fit-zero-counts"),
    pytest.param(lambda: delay_scan(DelayScanModel(1.0, 0.5, 10.0), [0.0, math.nan]),
                 "delays must be finite", id="scan-nan-delay"),
    pytest.param(lambda: delay_scan(DelayScanModel(1.0, 0.5, 10.0), [-math.inf]),
                 "delays must be finite", id="scan-inf-delay"),
    pytest.param(lambda: delay_scan(DelayScanModel(1.0, 0.5, 10.0), [10**400]),
                 "delays must be finite", id="scan-huge-int-delay"),
    pytest.param(lambda: delay_scan(None, [0.0]),
                 "model must be a DelayScanModel, got NoneType", id="scan-no-model"),
    pytest.param(lambda: tomo_linear(_INT_RECORD), "records must be CountRecords, got int",
                 id="tomo-linear-int-record"),
    pytest.param(lambda: tomo_mle(_INT_RECORD), "records must be CountRecords, got int",
                 id="tomo-mle-int-record"),
    pytest.param(lambda: chsh_from_counts([5] * 16), "records must be CountRecords, got int",
                 id="chsh-int-record"),
    pytest.param(lambda: bell_fidelity_from_counts([5] * 12),
                 "records must be CountRecords, got int", id="fidelity-int-record"),
    pytest.param(lambda: monte_carlo_sd(_INT_RECORD, len),
                 "records must be CountRecords, got int", id="bootstrap-int-record"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), 5),
                 "statistic must be callable, got int", id="bootstrap-int-statistic"),
    pytest.param(lambda: simulate_counts(PHI.density(), [MeasSetting("H", "H"), 5], 100.0, 1),
                 "settings must be MeasSettings, got int", id="counts-int-setting"),
    pytest.param(lambda: simulate_counts(PHI.density(), None, 100.0, 1),
                 "^settings must be MeasSettings, got NoneType$", id="counts-no-settings"),
    pytest.param(lambda: chsh_from_counts(None), "^records must be CountRecords, got NoneType$",
                 id="chsh-no-records"),
    pytest.param(lambda: bell_fidelity_from_counts(None),
                 "^records must be CountRecords, got NoneType$", id="fidelity-no-records"),
    pytest.param(lambda: tomo_linear(None), "^records must be CountRecords, got NoneType$",
                 id="tomo-linear-no-records"),
    pytest.param(lambda: tomo_mle(None), "^records must be CountRecords, got NoneType$",
                 id="tomo-mle-no-records"),
    pytest.param(lambda: monte_carlo_sd(None, len),
                 "^records must be CountRecords, got NoneType$", id="bootstrap-no-records"),
    pytest.param(lambda: chsh_settings(None),
                 "^CHSH settings must be four finite angles, got None$", id="chsh-no-angles"),
    pytest.param(lambda: chsh_settings(5),
                 "^CHSH settings must be four finite angles, got 5$", id="chsh-int-angles"),
    pytest.param(lambda: chsh_value(PHI.density(), None),
                 "^CHSH settings must be four finite angles, got None$",
                 id="chsh-value-no-angles"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), 100.0, -1),
                 "^seed must be non-negative, got -1$", id="counts-negative-seed"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, seed=-1),
                 "^seed must be non-negative, got -1$", id="bootstrap-negative-seed"),
    pytest.param(lambda: chsh_from_counts([CountRecord(s, 0.0) for s in chsh_settings()]),
                 "^" + re.escape("zero total counts for analyzer pairs [('H', 157.5), "
                                 "('H', 67.5), ('V', 157.5), ('V', 67.5)]") + "$",
                 id="chsh-zero-counts-canonical"),
])
def test_analysis_rejection_messages(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: tomo_mle(exact_records(PHI.density()), max_iterations=2.5),
                 "max_iterations must be an integer, got 2.5", id="float-max-iterations"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, n_resamples=2.5),
                 "n_resamples must be an integer, got 2.5", id="float-resamples"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, n_resamples="3"),
                 "n_resamples must be an integer", id="string-resamples"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), 100.0, None),
                 "^seed must be an integer, got None$", id="counts-no-seed"),
    pytest.param(lambda: simulate_counts(PHI.density(), tomography_settings(), 100.0, 1.5),
                 r"^seed must be an integer, got 1\.5$", id="counts-float-seed"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, seed=None),
                 "^seed must be an integer, got None$", id="bootstrap-no-seed"),
    pytest.param(lambda: monte_carlo_sd(exact_records(PHI.density()), len, seed="a"),
                 "^seed must be an integer, got 'a'$", id="bootstrap-string-seed"),
])
def test_analysis_rejects_non_integral_counts_of_steps(call, match):
    with pytest.raises(TypeError, match=match):
        call()


def test_concurrence_of_zero_matrix_is_zero():
    assert concurrence(DensityOperator(np.zeros((4, 4)))) == 0.0


def test_gaussian_fit_requires_points():
    with pytest.raises(ValueError):
        gaussian_fit([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
