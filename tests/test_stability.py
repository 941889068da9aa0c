import json

import numpy as np
import pytest

from monopann import constitutive as cons
from monopann import kinematics as kin
from monopann import networks as nets
from monopann import stability as stab
from monopann.errors import (
    EmptyGridError,
    InvalidStretchError,
    InvertedConfigurationError,
    NotIsochoricError,
)


@pytest.fixture(scope="module")
def directions():
    return stab.direction_set()


T0 = np.array([0.0])
MR = cons.MooneyRivlin([0.1, 0.3], [-0.05, 0.02], [0.01, -0.04])


class RowFailingLaw:
    """``law`` with its coefficients and Hessian passed through ``fail`` at
    the parameter value ``bad_t`` only."""

    def __init__(self, law, bad_t, fail):
        self.law, self.bad_t, self.fail, self.label = law, bad_t, fail, "row-failing"

    def energy(self, i1, i2, par):
        return self.law.energy(i1, i2, par)

    def coefficients(self, i1, i2, par):
        return self._at(par, self.law.coefficients(i1, i2, par))

    def hessian(self, i1, i2, par):
        return self._at(par, self.law.hessian(i1, i2, par))

    def _at(self, par, x):
        return self.fail(x) if np.asarray(par)[0] == self.bad_t else x


def nan_values(x):
    return np.full_like(x, np.nan)


def raise_out_of_range(x):
    raise InvalidStretchError("out of range")


FRACTIONS = ("elliptic_fraction", "compressible_fraction", "be_fraction",
             "mono_fraction")


def outcome(point):
    return (point.elliptic, point.min_value, point.compressible_elliptic,
            point.compressible_min_value, point.be_ok, point.mono_ok, point.error)


class WrappedLaw:
    """A law whose coefficients and Hessian pass through ``edit``."""

    def __init__(self, law, edit, label="wrapped"):
        self.law, self.edit, self.label = cons.as_law(law), edit, label

    def energy(self, i1, i2, par):
        return self.law.energy(i1, i2, par)

    def coefficients(self, i1, i2, par):
        return self.edit(i1, self.law.coefficients(i1, i2, par))

    def hessian(self, i1, i2, par):
        return self.edit(i1, self.law.hessian(i1, i2, par))


def scaled(law, c):
    return WrappedLaw(law, lambda i1, x: c * x, label=f"scaled({c})")


def reference_conditions(law, f, par, b):
    """Condition values of one direction from the Levi-Civita definition."""
    q = np.einsum("iajb,a,b->ij", cons.pk1_tangent(law, f, par), b, b)
    n = np.linalg.inv(f).T @ b
    qxq = kin.tensor_cross(q, q)
    qxi = kin.tensor_cross(q, np.eye(3))
    qn = np.linalg.norm(q)
    nsq = n @ n
    return (
        n @ qxq @ n / (qn**2 * nsq),
        n @ qxi @ n / (qn * nsq),
        np.sum(qxq * q) / qn**3,
        np.trace(qxq) / qn**2,
        np.trace(qxi) / qn,
    )


def random_laws():
    laws = [cons.as_law(nets.build_model(arch, 5, 1, np.random.default_rng(3)))
            for arch in nets.Architecture]
    return laws + [MR]


class TestDirectionSets:
    def test_unit_norm(self, directions):
        norms = np.linalg.norm(directions.vectors, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert directions.count == 200

    def test_deterministic(self):
        a = stab.fibonacci_directions(64)
        b = stab.fibonacci_directions(64)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("generator", list(stab.DirectionGenerator))
    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, generator, count):
        with pytest.raises(EmptyGridError, match="at least 1"):
            stab.direction_set(generator, count)

    def test_spherical_grid_unit_norm(self):
        vecs = stab.spherical_grid_directions(128)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=-1), 1.0, atol=1e-12)


class TestAcousticTensor:
    def test_zero_potential(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        for layer in model.layers:
            layer.weights[...] = 0.0
        q = stab.acoustic_tensor(model, kin.random_unimodular(rng), T0, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(q, np.zeros((3, 3)))

    def test_symmetric(self, rng):
        model = nets.build_model(nets.Architecture.UNRESTRICTED_2HL, 4, 1, rng)
        f = kin.random_unimodular(rng)
        b = rng.standard_normal(3)
        q = stab.acoustic_tensor(model, f, T0, b)
        np.testing.assert_allclose(q, q.T, atol=1e-12)

    def test_neo_hookean_at_identity_nonnegative(self, rng):
        law = cons.neo_hookean(0.5)
        for _ in range(20):
            b = rng.standard_normal(3)
            q = stab.acoustic_tensor(law, np.eye(3), T0, b)
            for a in stab.tangent_plane_basis(np.eye(3), b):
                assert a @ q @ a >= -1e-12

    def test_matches_pk1_tangent_contraction(self, rng):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            f = np.stack([kin.random_unimodular(rng) for _ in range(4)])
            b = rng.standard_normal((6, 3)) * rng.uniform(0.2, 5.0, (6, 1))
            q = stab.acoustic_tensor(law, f, t, b)
            tangent = cons.pk1_tangent(law, f, t)
            for p in range(len(f)):
                for d in range(len(b)):
                    ref = np.einsum("iIkK,I,K->ik", tangent[p], b[d], b[d])
                    scale = np.abs(ref).max()
                    assert np.abs(q[p, d] - ref).max() <= 1e-12 * scale

    def test_matches_second_differences_of_energy(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        law = cons.as_law(model)
        f = kin.random_unimodular(rng)
        b = rng.standard_normal(3)
        a = rng.standard_normal(3)
        q = stab.acoustic_tensor(law, f, T0, b)

        def energy(x):
            i1, i2 = kin.isochoric_invariants(x)
            return float(law.energy(i1, i2, T0))

        h = 1e-4
        incr = np.outer(a, b)
        second = (energy(f + h * incr) - 2.0 * energy(f) + energy(f - h * incr)) / h**2
        assert a @ q @ a == pytest.approx(second, rel=1e-4, abs=1e-8)


def per_point_wrappers(law, directions):
    return {
        "ellipticity_incompressible":
            lambda f: stab.ellipticity_incompressible(law, f, T0, directions),
        "ellipticity_compressible":
            lambda f: stab.ellipticity_compressible(law, f, T0, directions),
        "acoustic_tensor": lambda f: stab.acoustic_tensor(law, f, T0, [0.3, -1.0, 0.5]),
        "pk1_stress": lambda f: cons.pk1_stress(law, f, T0),
    }


class TestPerPointWrappers:
    """The per-point wrappers take the invariants and the geometry from one
    ``kinematics._invariant_terms`` pass and check det F before it."""

    def test_one_invariant_pass_per_call(self, rng, monkeypatch, directions):
        original, calls = kin._invariant_terms, []

        def counting(f):
            calls.append(len(f))
            return original(f)

        for module in (cons, kin, stab):
            monkeypatch.setattr(module, "_invariant_terms", counting, raising=False)
        law = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        f = unimodular_block(rng, count=3)
        for name, call in per_point_wrappers(law, directions).items():
            calls.clear()
            call(f)
            assert calls == [3], name

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    @pytest.mark.parametrize("bad, error", [
        (1.1 * np.eye(3), NotIsochoricError),
        (np.diag([1.0, 1.0, -1.0]), NotIsochoricError),
        (np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         InvertedConfigurationError),
    ], ids=["scaled", "reflected", "nan"])
    def test_error_types(self, bad, error, directions):
        for name, call in per_point_wrappers(cons.neo_hookean(0.5), directions).items():
            with pytest.raises(error):
                call(bad)


def unimodular_block(rng, count=12):
    """Non-diagonal unimodular gradients, two of them with det F off 1 by
    +-1e-13, inside the isochoric tolerance."""
    f = np.stack([kin.random_unimodular(rng, spread=0.8) for _ in range(count)])
    f[0] *= (1.0 + 1e-13) ** (1.0 / 3.0)
    f[1] *= (1.0 - 1e-13) ** (1.0 / 3.0)
    return f


class TestClosedFormGeometry:
    def test_each_term_matches_fourth_order_contraction(self, rng):
        f = unimodular_block(rng)
        b = rng.standard_normal((9, 3)) * rng.uniform(0.2, 5.0, (9, 1))
        coefficients, _ = stab._point_geometry(f)
        dyads = stab._dyads(b)
        np.testing.assert_array_equal(
            dyads, np.einsum("dI,dJ->IJd", b, b).reshape(9, len(b))
        )
        terms = np.einsum("ptsIJ,dI,dJ->ptsd",
                          coefficients.reshape(len(f), 5, 6, 3, 3), b, b)
        ref = np.einsum("ptiIjJ,dI,dJ->ptijd", cons._tangent_terms(f), b, b)
        ref = ref[:, :, stab._ROW, stab._COL]
        for k in range(5):
            for p in range(len(f)):
                scale = np.abs(ref[p, k]).max()
                assert np.abs(terms[p, k] - ref[p, k]).max() <= 1e-13 * scale

    def test_runtime_path_builds_no_fourth_order_tangent(self, rng, monkeypatch):
        law = random_laws()[1]
        lam = np.linspace(0.4, 3.5, 5)
        directions = stab.direction_set(count=40)
        f = unimodular_block(rng, count=3)
        b = rng.standard_normal((4, 3))
        scan = stab.scan_invariant_plane(law, [[0.2], [0.7]], lam, lam, directions)
        q = stab.acoustic_tensor(law, f, T0, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fourth-order path was used")

        # replace each function in every module that holds it, including
        # modules that imported it by name
        for original in (cons._tangent_terms, kin.invariant_derivatives,
                         kin.cross_operator, kin.tensor_cross):
            for module in (cons, kin, nets, stab):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, forbidden)
        again = stab.scan_invariant_plane(law, [[0.2], [0.7]], lam, lam, directions)
        assert [outcome(p) for p in again.points] == [outcome(p) for p in scan.points]
        assert again.per_parameter == scan.per_parameter
        np.testing.assert_array_equal(stab.acoustic_tensor(law, f, T0, b), q)
        con, geo = stab.hessian_decomposition(law, f[0], T0)
        assert np.isfinite(con(b[0], b[1]) + geo(b[0], b[1]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_error_types(self, rng):
        f = unimodular_block(rng, count=3)
        bad = f.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(InvertedConfigurationError):
            stab._point_geometry(bad)
        off = f.copy()
        off[1] *= 1.01
        with pytest.raises(NotIsochoricError):
            stab._point_geometry(off)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_nan_point_fails_alone_in_every_row(self, rng):
        f = unimodular_block(rng, count=3)
        f[1, 0, 0] = np.nan
        weights = rng.uniform(0.1, 1.0, (2, 3, 5))
        minima = np.full((2, 3, 2), np.nan)
        errors = np.full((2, 3), None, dtype=object)
        vectors = stab.direction_set(count=20).vectors
        geometry = np.full((3, 5, 54), np.nan), np.full((3, 3, 3), np.nan)
        stab._pointwise(stab._point_geometry, (f,), geometry, errors)
        stab._scan_block(*geometry, vectors, stab._dyads(vectors), weights, minima,
                         stab._workspace(len(f), len(vectors)))
        assert errors[:, 1].tolist() == [
            "InvertedConfigurationError: invariant derivatives require det f > 0"
        ] * 2
        assert errors[:, ::2].tolist() == [[None, None]] * 2
        assert np.isfinite(minima[:, ::2]).all()


class TestEllipticity:
    def test_neo_hookean_everywhere(self, directions):
        law = cons.neo_hookean(0.5)
        lam = np.linspace(0.5, 3.0, 6)
        report = stab.scan_invariant_plane(law, [[0.0]], lam, lam, directions)
        assert report.elliptic_fraction() == 1.0

    def test_sign_flipped_fails(self, directions):
        law = cons.neo_hookean(-0.5)
        f = kin.uniaxial_gradient(1.5)
        elliptic, min_value = stab.ellipticity_incompressible(law, f, T0, directions)
        assert not elliptic
        assert min_value < -1e-3

    def test_zero_potential_degenerate_pass(self, directions):
        law = cons.MooneyRivlin([0.0], [0.0], [0.0])
        f = kin.uniaxial_gradient(1.5)
        elliptic, min_value = stab.ellipticity_incompressible(law, f, T0, directions)
        assert elliptic
        assert min_value == 0.0
        comp, comp_min = stab.ellipticity_compressible(law, f, T0, directions)
        assert comp and comp_min == 0.0

    def test_direction_sign_invariance(self, directions):
        law = cons.neo_hookean(0.5)
        f = kin.uniaxial_gradient(1.7)
        plus = stab._condition_values(law, f, T0, directions.vectors)
        minus = stab._condition_values(law, f, T0, -directions.vectors)
        for a, b in zip(plus[0] + plus[1], minus[0] + minus[1]):
            np.testing.assert_array_equal(a, b)

    def test_second_invariant_relaxation_gap(self, directions):
        # psi linear in the second invariant: elliptic under the
        # unit-determinant conditions, but the acoustic tensor itself is
        # indefinite somewhere on a wide stretch grid
        law = cons.MooneyRivlin([0.0], [0.5], [0.0], label="i2-only")
        lam = np.linspace(0.2, 5.0, 9)
        report = stab.scan_invariant_plane(law, [[0.0]], lam, lam, directions)
        assert report.elliptic_fraction() == 1.0
        assert report.per_parameter[0]["compressible_fraction"] < 1.0

    def test_compressible_pass_implies_incompressible_pass(self, directions, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 5, 1, rng)
        lam = np.linspace(0.5, 3.0, 5)
        report = stab.scan_invariant_plane(
            model, [[0.25], [0.75]], lam, lam, directions
        )
        for point in report.points:
            assert point.error is None
            if point.compressible_elliptic:
                assert point.elliptic


class TestBatchedConditions:
    def test_matches_levi_civita_reference(self, rng):
        b = rng.standard_normal((12, 3))
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            f = np.stack([kin.random_unimodular(rng) for _ in range(4)])
            inc, comp = stab._condition_values(law, f, t, b)
            got = np.stack(inc + comp)
            for p in range(len(f)):
                for d in range(len(b)):
                    ref = reference_conditions(law, f[p], t, b[d])
                    np.testing.assert_allclose(
                        got[:, p, d], ref, rtol=1e-12, atol=1e-12
                    )

    def test_verdict_is_sign_of_tangent_plane_restriction(self, rng):
        verdicts = set()
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            for _ in range(20):
                f = kin.random_unimodular(rng, spread=0.8)
                b = rng.standard_normal(3)
                q = stab.acoustic_tensor(law, f, t, b)
                basis = stab.tangent_plane_basis(f, b)
                lowest = np.linalg.eigvalsh(basis @ q @ basis.T)[0]
                if abs(lowest) < 1e-6 * np.linalg.norm(q):
                    continue
                elliptic, _ = stab.ellipticity_incompressible(law, f, t, b[None])
                assert elliptic == (lowest > 0.0)
                verdicts.add(elliptic)
        assert verdicts == {True, False}

    def test_acoustic_tensor_batched_shape(self, rng):
        law = random_laws()[0]
        f = np.stack([kin.random_unimodular(rng) for _ in range(3)])
        b = rng.standard_normal((5, 3))
        q = stab.acoustic_tensor(law, f, T0, b)
        assert q.shape == (3, 5, 3, 3)
        np.testing.assert_allclose(
            q[2, 4], stab.acoustic_tensor(law, f[2], T0, b[4]), rtol=1e-13
        )

    @pytest.mark.parametrize("law_index", range(5))
    def test_scale_invariance(self, law_index):
        law = random_laws()[law_index]
        lam = np.linspace(0.3, 4.0, 6)
        directions = stab.direction_set(count=50)
        ref = stab.scan_invariant_plane(law, [[0.5]], lam, lam, directions)
        for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            got = stab.scan_invariant_plane(scaled(law, c), [[0.5]], lam, lam, directions)
            for a, b in zip(ref.points, got.points):
                assert (a.elliptic, a.compressible_elliptic) == (
                    b.elliptic, b.compressible_elliptic
                )
                assert b.min_value == pytest.approx(a.min_value, rel=1e-9, abs=1e-12)
                assert b.compressible_min_value == pytest.approx(
                    a.compressible_min_value, rel=1e-9, abs=1e-12
                )

    def test_rotation_invariance(self, rng, directions):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            for _ in range(5):
                f = kin.random_unimodular(rng, spread=0.8)
                rf = kin.random_rotation(rng) @ f
                for check in (stab.ellipticity_incompressible,
                              stab.ellipticity_compressible):
                    ok, low = check(law, f, t, directions)
                    rot_ok, rot_low = check(law, rf, t, directions)
                    assert ok == rot_ok
                    assert rot_low == pytest.approx(low, rel=1e-9, abs=1e-12)

    def test_scan_over_several_blocks_matches_per_point_calls(self, monkeypatch):
        law = random_laws()[3]
        directions = stab.direction_set(count=64)
        lam = np.linspace(0.4, 3.5, 9)  # 81 points, 64 per block
        points, pairs = [], []
        point_geometry, normals = stab._point_geometry, stab._normals

        def recording_points(f, *terms):
            points.append(len(f))
            return point_geometry(f, *terms)

        def recording_normals(finv_t, vectors, work):
            pairs.append(len(finv_t) * len(vectors))
            return normals(finv_t, vectors, work)

        monkeypatch.setattr(stab, "_point_geometry", recording_points)
        monkeypatch.setattr(stab, "_normals", recording_normals)
        report = stab.scan_invariant_plane(law, [[0.3], [0.8]], lam, lam, directions)
        # the point geometry is built once per scan, and each block's
        # normals once, serving both rows
        assert points == [81]
        assert len(pairs) == 2 and max(pairs) <= stab._BLOCK_PAIRS
        monkeypatch.undo()
        for p in report.points:
            ok, low = stab.ellipticity_incompressible(law, p.f, p.t, directions)
            comp_ok, comp_low = stab.ellipticity_compressible(
                law, p.f, p.t, directions
            )
            assert (p.elliptic, p.compressible_elliptic) == (ok, comp_ok)
            assert p.min_value == pytest.approx(low, rel=1e-12, abs=1e-12)
            assert p.compressible_min_value == pytest.approx(
                comp_low, rel=1e-12, abs=1e-12
            )
            assert p.be_ok == stab.baker_ericksen_check(law, p.f, p.t)

    @pytest.mark.parametrize("law_index", [2, 4])
    def test_scan_reads_no_unwritten_workspace_entry(self, monkeypatch, tmp_path,
                                                     law_index):
        law = random_laws()[law_index]
        directions = stab.direction_set(count=64)
        lam = np.linspace(0.4, 3.5, 9)  # 81 points: blocks of 64 and 17
        grid = [[0.3], [0.8]]
        ref = stab.scan_invariant_plane(law, grid, lam, lam, directions)
        workspace = stab._workspace
        sizes = []

        def nan_filled(count, dirs):
            sizes.append((count, dirs))
            work = workspace(count, dirs)
            work.fill(np.nan)
            return work

        monkeypatch.setattr(stab, "_workspace", nan_filled)
        got = stab.scan_invariant_plane(law, grid, lam, lam, directions)
        assert sizes == [(64, 64)]
        assert [outcome(p) for p in got.points] == [outcome(p) for p in ref.points]
        docs = []
        for name, report in (("got", got), ("ref", ref)):
            stab.write_report_json(report, tmp_path / f"{name}.json")
            docs.append(json.loads((tmp_path / f"{name}.json").read_text()))
        assert docs[0] == docs[1]


def tensor_cross_decomposition(law, f, par):
    """The two parts of the rank-one quadratic form from their Levi-Civita
    definitions, through ``kinematics.tensor_cross``."""
    i1, i2 = kin.isochoric_invariants(f)
    coef = law.coefficients(i1, i2, par)
    hess = law.hessian(i1, i2, par)
    h_cof = kin.tensor_cross(f, f) / 2.0

    def constitutive_term(a, b):
        incr = np.outer(a, b)
        w1 = float(np.sum(f * incr))
        w2 = float(np.sum(h_cof * kin.tensor_cross(incr, f)))
        return 4.0 * (float(hess[..., 0, 0]) * w1 * w1
                      + 2.0 * float(hess[..., 0, 1]) * w1 * w2
                      + float(hess[..., 1, 1]) * w2 * w2)

    def geometric_term(a, b):
        incr = np.outer(a, b)
        cross = kin.tensor_cross(incr, f)
        return 2.0 * (float(coef[..., 0]) * float(np.sum(incr * incr))
                      + float(coef[..., 1]) * float(np.sum(cross * cross)))

    return constitutive_term, geometric_term


class TestHessianDecomposition:
    def test_closed_forms_match_tensor_cross_reference(self, rng):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            for _ in range(10):
                f = kin.random_unimodular(rng, spread=0.8)
                got = stab.hessian_decomposition(law, f, t)
                ref = tensor_cross_decomposition(law, f, t)
                a = rng.standard_normal(3)
                b = rng.standard_normal(3) * rng.uniform(0.2, 5.0)
                for term, ref_term in zip(got, ref):
                    assert term(a, b) == pytest.approx(
                        ref_term(a, b), rel=1e-12, abs=1e-300
                    )

    def test_batched_matches_per_point(self, rng):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            f = np.stack([kin.random_unimodular(rng, spread=0.8) for _ in range(6)])
            # a carries an extra leading axis, which broadcasts against F and B
            a = rng.standard_normal((4, 6, 3))
            b = rng.standard_normal((6, 3)) * rng.uniform(0.2, 5.0, (6, 1))
            batched = [term(a, b) for term in stab.hessian_decomposition(law, f, t)]
            for p in range(len(f)):
                single = stab.hessian_decomposition(law, f[p], t)
                for got, term in zip(batched, single):
                    assert got.shape == (4, 6)
                    for r in range(len(a)):
                        assert got[r, p] == pytest.approx(
                            term(a[r, p], b[p]), rel=1e-12, abs=1e-300
                        )

    def test_sum_equals_full_contraction(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 5, 1, rng)
        law = cons.as_law(model)
        t = np.array([0.4])
        for _ in range(30):
            f = kin.random_unimodular(rng)
            con, geo = stab.hessian_decomposition(law, f, t)
            tangent = cons.pk1_tangent(law, f, t)
            b = rng.standard_normal(3)
            for a in stab.tangent_plane_basis(f, b):
                full = np.einsum("iIjJ,i,I,j,J->", tangent, a, b, a, b)
                split = con(a, b) + geo(a, b)
                assert split == pytest.approx(full, rel=1e-10, abs=1e-12)

    def test_zero_potential_both_terms_zero(self):
        law = cons.MooneyRivlin([0.0], [0.0], [0.0])
        con, geo = stab.hessian_decomposition(law, np.eye(3), T0)
        assert con([1.0, 0, 0], [0, 1.0, 0]) == 0.0
        assert geo([1.0, 0, 0], [0, 1.0, 0]) == 0.0

    @pytest.mark.parametrize(
        "arch", [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC]
    )
    def test_geometric_term_nonnegative_for_constrained(self, arch, rng):
        model = nets.build_model(arch, 5, 1, rng)
        law = cons.as_law(model)
        t = np.array([0.6])
        for _ in range(100):
            f = kin.random_unimodular(rng)
            _, geo = stab.hessian_decomposition(law, f, t)
            b = rng.standard_normal(3)
            a = rng.standard_normal(3)
            assert geo(a, b) >= 0.0

    def test_tangent_plane_basis_is_admissible(self, rng):
        f = kin.random_unimodular(rng)
        b = rng.standard_normal(3)
        for a in stab.tangent_plane_basis(f, b):
            incr = np.outer(a, b)
            assert abs(np.sum(incr * np.linalg.inv(f).T)) < 1e-12


class TestBakerEricksen:
    @pytest.mark.parametrize(
        "arch", [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC]
    )
    def test_constrained_model_everywhere(self, arch, rng):
        model = nets.build_model(arch, 5, 1, rng)
        for _ in range(100):
            f = kin.random_unimodular(rng)
            assert stab.baker_ericksen_check(model, f, np.array([0.3]))

    def test_negative_first_coefficient_fails(self):
        law = cons.neo_hookean(-1.0)
        assert not stab.baker_ericksen_check(law, kin.uniaxial_gradient(1.4), T0)

    def test_batched_matches_per_point(self, rng):
        law = MR
        f = np.stack([kin.random_unimodular(rng, spread=0.8) for _ in range(40)])
        batched = stab.baker_ericksen_check(law, f, T0)
        assert batched.shape == (40,)
        assert batched.tolist() == [
            bool(stab.baker_ericksen_check(law, x, T0)) for x in f
        ]
        assert len(set(batched.tolist())) == 2

    @pytest.mark.parametrize("lam, expected", [(2.0, True), (3.0, False)])
    def test_squared_largest_stretch_decides(self, lam, expected):
        # 1 - 0.2 lam^2 changes sign at lam = sqrt(5)
        law = cons.MooneyRivlin([1.0], [-0.2], [0.0])
        f = kin.uniaxial_gradient(lam)
        assert stab.baker_ericksen_check(law, f, T0) == expected

    def test_neo_hookean_passes(self):
        assert stab.baker_ericksen_check(
            cons.neo_hookean(0.5), kin.uniaxial_gradient(2.5), T0
        )


class TestScan:
    def test_empty_parameter_grid_raises(self, directions):
        with pytest.raises(EmptyGridError):
            stab.scan_invariant_plane(
                cons.neo_hookean(1.0), np.zeros((0, 1)), [1.0], [1.0], directions
            )

    def test_empty_stretch_grid_raises(self, directions):
        with pytest.raises(EmptyGridError):
            stab.scan_invariant_plane(cons.neo_hookean(1.0), [[0.0]], [], [1.0], directions)

    def test_empty_direction_set_raises(self):
        with pytest.raises(EmptyGridError):
            stab.scan_invariant_plane(
                cons.neo_hookean(1.0), [[0.0]], [1.0], [1.0], stab.direction_set(count=0)
            )

    def test_invariant_coordinates_recorded(self, directions):
        report = stab.scan_invariant_plane(
            cons.neo_hookean(0.5), [[0.0]], [1.5], [1.2], directions
        )
        point = report.points[0]
        i1, i2 = kin.isochoric_invariants(kin.principal_stretch_gradient(1.5, 1.2))
        assert point.i1 == pytest.approx(float(i1)) and point.i2 == pytest.approx(float(i2))
        assert report.region["lambda1"] == [1.5, 1.5]

    def test_exports(self, tmp_path, directions):
        report = stab.scan_invariant_plane(
            cons.neo_hookean(0.5), [[0.0], [1.0]], [1.0, 1.5], [1.0], directions
        )
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "summary.csv"
        stab.write_report_json(report, json_path)
        stab.write_summary_csv(report, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok"
        assert len(lines) == 5
        import json as json_mod

        doc = json_mod.loads(json_path.read_text())
        assert doc["direction_count"] == 200
        assert len(doc["points"]) == 4
        assert len(doc["per_parameter"]) == 2

    def test_non_finite_coefficients_fail_only_their_points(self, directions):
        def nan_high(i1, x):
            high = np.asarray(i1) > 4.0
            return np.where(high.reshape(high.shape + (1,) * (x.ndim - high.ndim)),
                            np.nan, x)

        law = cons.neo_hookean(0.5)
        nan_law = WrappedLaw(law, nan_high)
        lam = np.linspace(0.5, 3.0, 6)
        ref = stab.scan_invariant_plane(law, [[0.0]], lam, lam, directions)
        report = stab.scan_invariant_plane(nan_law, [[0.0]], lam, lam, directions)
        failed = [p for p in report.points if p.error is not None]
        assert 0 < len(failed) < len(report.points)
        for p, r in zip(report.points, ref.points):
            if p.i1 > 4.0:
                assert p.error == "non-finite condition values"
            else:
                assert p.error is None
                assert (p.elliptic, p.min_value) == (r.elliptic, r.min_value)
        assert report.per_parameter[0]["failed_points"] == len(failed)

    def test_package_error_fails_only_its_points(self, directions):
        def raise_high(i1, x):
            if np.any(np.asarray(i1) > 4.0):
                raise InvalidStretchError("out of range")
            return x

        lam = np.linspace(0.5, 3.0, 6)
        report = stab.scan_invariant_plane(
            WrappedLaw(cons.neo_hookean(0.5), raise_high), [[0.0]], lam, lam,
            directions,
        )
        for p in report.points:
            expected = "InvalidStretchError: out of range" if p.i1 > 4.0 else None
            assert p.error == expected
        assert 0 < report.per_parameter[0]["failed_points"] < len(report.points)

    def test_non_isochoric_point_fails_alone(self, directions, monkeypatch):
        def stretched(lam1, lam2):
            f = kin.principal_stretch_gradient(lam1, lam2)
            f[0] *= 1.01
            return f

        monkeypatch.setattr(stab, "principal_stretch_gradient", stretched)
        report = stab.scan_invariant_plane(
            cons.neo_hookean(0.5), [[0.0], [0.5], [1.0]], [1.0, 1.5], [1.0, 2.0],
            directions,
        )
        # the stretched point fails in every parameter row, and only it
        for k, p in enumerate(report.points):
            if k % 4 == 0:
                assert p.error.startswith("NotIsochoricError")
            else:
                assert p.error is None and p.elliptic

    @pytest.mark.parametrize(
        "fail, error",
        [(nan_values, "non-finite condition values"),
         (raise_out_of_range, "InvalidStretchError: out of range")],
    )
    def test_law_failure_at_one_parameter_fails_only_that_row(
        self, tmp_path, directions, fail, error
    ):
        grid = [[0.0], [0.5], [1.0]]
        lam = np.linspace(0.5, 3.0, 5)
        clean = stab.scan_invariant_plane(MR, grid, lam, lam, directions)
        report = stab.scan_invariant_plane(
            RowFailingLaw(MR, 0.5, fail), grid, lam, lam, directions
        )
        for p, c in zip(report.points, clean.points):
            if p.t[0] == 0.5:
                assert p.error == error
            else:
                assert outcome(p) == outcome(c)
        assert report.per_parameter[1]["failed_points"] == len(lam) ** 2
        assert report.per_parameter[::2] == clean.per_parameter[::2]
        # no point of the failed row was evaluated, so it has no fractions
        path = tmp_path / "report.json"
        stab.write_report_json(report, path)
        doc = json.loads(path.read_text())
        for entry in (report.per_parameter[1], doc["per_parameter"][1]):
            assert [entry[key] for key in FRACTIONS] == [None] * 4

    def test_report_json_matches_report_columns(self, tmp_path, directions):
        lam = np.linspace(0.5, 3.0, 4)
        report = stab.scan_invariant_plane(
            RowFailingLaw(MR, 1.0, nan_values), [[0.0], [1.0]], lam, lam, directions
        )
        path = tmp_path / "report.json"
        stab.write_report_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["law"] == report.law_label
        assert doc["direction_count"] == report.direction_count
        assert doc["region"] == report.region
        assert doc["per_parameter"] == report.per_parameter
        points = report.points
        assert [list(p) for p in doc["points"]] == [sorted(points.dtype.names)] * 32

        def column(name):
            return [p[name] for p in doc["points"]]

        # NaN minima of the failed row are null, the other values as scanned
        for name in ("lambda1", "lambda2", "i1", "i2", "min_value",
                     "compressible_min_value"):
            assert column(name) == [v if np.isfinite(v) else None
                                    for v in points[name].tolist()]
        assert column("min_value").count(None) == 16
        for name in ("elliptic", "compressible_elliptic", "be_ok", "mono_ok", "error"):
            assert column(name) == points[name].tolist()
        assert column("error") == [None] * 16 + ["non-finite condition values"] * 16
        assert column("t") == [[0.0]] * 16 + [[1.0]] * 16
        assert column("f") == points.f.tolist()

    def test_programming_error_propagates(self, directions):
        def broken(i1, x):
            raise TypeError("bug in the law")

        with pytest.raises(TypeError):
            stab.scan_invariant_plane(
                WrappedLaw(cons.neo_hookean(0.5), broken), [[0.0]], [1.0], [1.0],
                directions,
            )
