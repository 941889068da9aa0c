import csv
import dataclasses
import json
import math
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

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
    ShapeMismatchError,
)

from conftest import random_rotation, random_unimodular, uniaxial_gradient
from levi_civita import tensor_cross_ref
from scan_oracle import PRINCIPAL_ENTRIES, outer_point_geometry, tangent_plane_basis


@pytest.fixture(scope="module")
def directions():
    return stab.fibonacci_directions()


T0 = np.array([0.0])
MR = cons.MooneyRivlin([0.1, 0.3], [-0.05, 0.02], [0.01, -0.04])


class RowFailingLaw:
    """``law`` with its coefficients and derivatives passed through ``fail``
    at the entries whose parameter ``par[..., 0]`` is ``bad_t`` only."""

    def __init__(self, law, bad_t, fail):
        self.law, self.bad_t, self.fail, self.label = law, bad_t, fail, "row-failing"
        self.par_shapes = []  # of every derivatives call

    def energy(self, i1, i2, par):
        return self.law.energy(i1, i2, par)

    def coefficients(self, i1, i2, par):
        return self._at(par, self.law.coefficients(i1, i2, par))

    def derivatives(self, i1, i2, par):
        self.par_shapes.append(np.shape(par))
        return tuple(self._at(par, x) for x in self.law.derivatives(i1, i2, par))

    def _at(self, par, x):
        bad = np.asarray(par)[..., 0] == self.bad_t
        if not bad.any():
            return x
        # par's leading axes are x's, which ends in one or two value axes
        bad = bad.reshape(bad.shape + (1,) * (x.ndim - bad.ndim))
        return np.where(bad, self.fail(x), x)


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
    """A law whose coefficients and derivatives pass through ``edit``, which
    takes ``i1`` broadcast to their leading axes with ``par``'s."""

    def __init__(self, law, edit, label="wrapped"):
        self.law, self.edit, self.label = cons.as_law(law), edit, label

    def energy(self, i1, i2, par):
        return self.law.energy(i1, i2, par)

    def coefficients(self, i1, i2, par):
        coef = self.law.coefficients(i1, i2, par)
        return self.edit(np.broadcast_to(i1, coef.shape[:-1]), coef)

    def derivatives(self, i1, i2, par):
        coef, hess = self.law.derivatives(i1, i2, par)
        i1 = np.broadcast_to(i1, coef.shape[:-1])
        return self.edit(i1, coef), self.edit(i1, hess)


def scaled(law, c):
    return WrappedLaw(law, lambda i1, x: c * x, label=f"scaled({c})")


def reference_conditions(law, f, par, b):
    """Condition values of one direction from the Levi-Civita definition."""
    q = np.einsum("iajb,a,b->ij", cons.pk1_tangent(law, f, par), b, b)
    n = np.linalg.inv(f).T @ b
    qxq = tensor_cross_ref(q, q)
    qxi = tensor_cross_ref(q, np.eye(3))
    qn = np.linalg.norm(q)
    nsq = n @ n
    return (
        n @ qxq @ n / (qn**2 * nsq),
        n @ qxi @ n / (qn * nsq),
        np.sum(qxq * q) / qn**3,
        np.trace(qxq) / qn**2,
        np.trace(qxi) / qn,
    )


def condition_values(law, f, par, directions):
    """Normalized condition values ``(c1, c2), (d1, d2, d3)``, each (P, D),
    of every point-direction pair, from one workspace for all of them, in
    the principal frame of each point."""
    f = np.asarray(f, dtype=float).reshape(-1, 3, 3)
    directions = np.asarray(directions, dtype=float)
    geometry, inverse, weights, _, vh = stab._point_terms(law, f, par)
    polynomials = [x[0] for x in stab._polynomials(weights[None], geometry, inverse)]
    work = stab._workspace(len(f), len(directions))
    return stab._conditions(polynomials, stab._features(directions @ vh.mT), work)


def two_block_grid(dirs):
    """The points of a block of ``dirs`` directions, and stretches whose
    square grid fills one such block and part of a second."""
    block = stab._BLOCK_PAIRS // dirs
    side = math.isqrt(block) + 1
    assert block < side**2 < 2 * block
    return block, np.linspace(0.4, 3.5, side)


def general_block(rng, count=4):
    """``count`` random unimodular gradients, then ``count`` rotated
    stretches ``R diag(1, a, 1/a)`` whose SVD ``U diag(s) V^T`` by LAPACK
    takes U and V both improper (most of them do), which the checks'
    principal frames must take as they take proper ones."""
    stretched = []
    while len(stretched) < count:
        a = rng.uniform(1.5, 2.5)
        f = random_rotation(rng) * [1.0, a, 1.0 / a]
        if np.linalg.det(np.linalg.svd(f)[0]) < 0.0:
            stretched.append(f)
    f = np.stack([random_unimodular(rng) for _ in range(count)] + stretched)
    improper = np.linalg.det(np.linalg.svd(f)[0]) < 0.0
    assert improper.any() and not improper.all()
    assert (improper == (np.linalg.det(np.linalg.svd(f)[2]) < 0.0)).all()
    return f


def random_laws():
    laws = [cons.as_law(nets.build_model(arch, 5, 1, np.random.default_rng(3)))
            for arch in nets.Architecture]
    return laws + [MR]


class TestFibonacciDirections:
    def test_unit_norm(self, directions):
        norms = np.linalg.norm(directions, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert directions.shape == (200, 3)

    def test_deterministic(self):
        a = stab.fibonacci_directions(64)
        b = stab.fibonacci_directions(64)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(EmptyGridError, match="at least 1"):
            stab.fibonacci_directions(count)

    @pytest.mark.parametrize("count", [7.5, np.nan, np.inf, 8.0])
    def test_count_not_an_integer_rejected(self, count):
        # a float count once built a lattice spaced for it, rounded up
        with pytest.raises(ShapeMismatchError, match=f"integer, got {count!r}"):
            stab.fibonacci_directions(count)

    def test_numpy_integer_count(self):
        np.testing.assert_array_equal(
            stab.fibonacci_directions(np.int32(64)), stab.fibonacci_directions(64)
        )

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 1.0],
        np.ones((4, 2)),
        np.ones((4, 3, 1)),
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]],
        [[np.inf, 0.0, 1.0], [0.0, 1.0, 0.0]],
    ], ids=["one-vector", "two-columns", "three-axes", "zero-row", "nan-row", "inf-row"])
    def test_bad_direction_array_rejected(self, bad):
        # a zero or non-finite row would make every normal F^-T B / |F^-T B|
        # of its column NaN; the scan and both checks reject it up front
        law, f = cons.neo_hookean(0.5), uniaxial_gradient(1.5)
        with pytest.raises(ShapeMismatchError):
            stab.scan_invariant_plane(law, [[0.0]], [1.5], [1.0], bad)
        for check in (stab.ellipticity_incompressible, stab.ellipticity_compressible):
            with pytest.raises(ShapeMismatchError):
                check(law, f, T0, bad)


class TestAcousticTensor:
    def test_zero_potential(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        for layer in model.layers:
            layer.weights[...] = 0.0
        q = stab.acoustic_tensor(model, random_unimodular(rng), T0, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(q, np.zeros((3, 3)))

    def test_symmetric(self, rng):
        model = nets.build_model(nets.Architecture.UNRESTRICTED_2HL, 4, 1, rng)
        f = random_unimodular(rng)
        b = rng.standard_normal(3)
        q = stab.acoustic_tensor(model, f, T0, b)
        np.testing.assert_allclose(q, q.T, atol=1e-12)

    def test_neo_hookean_at_identity_nonnegative(self, rng):
        law = cons.neo_hookean(0.5)
        for _ in range(20):
            b = rng.standard_normal(3)
            q = stab.acoustic_tensor(law, np.eye(3), T0, b)
            for a in tangent_plane_basis(np.eye(3), b):
                assert a @ q @ a >= -1e-12

    def test_matches_pk1_tangent_contraction(self, rng):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            f = general_block(rng)
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
        f = random_unimodular(rng)
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
        "pk1_tangent": lambda f: cons.pk1_tangent(law, f, T0),
        "traction_free_gamma": lambda f: cons.traction_free_gamma(law, f, T0),
        "hessian_decomposition": lambda f: stab.hessian_decomposition(law, f, T0),
        "baker_ericksen_check": lambda f: stab.baker_ericksen_check(law, f, T0),
    }


# the per-point wrappers that work in the principal frame of each point
# (stability._point_terms)
PRINCIPAL_WRAPPERS = ("ellipticity_incompressible", "ellipticity_compressible",
                      "acoustic_tensor")


class TestPerPointWrappers:
    """The per-point wrappers take the invariants and the geometry from one
    invariant pass and check det F before it: ``_principal_terms`` on the
    singular values of F for those of :data:`PRINCIPAL_WRAPPERS`,
    ``kinematics._invariant_terms`` on F for the others."""

    def test_one_invariant_pass_per_call(self, rng, monkeypatch, directions):
        calls = {"_principal_terms": [], "_invariant_terms": []}

        def counting(name, original):
            def wrapper(x, *args, **kwargs):
                calls[name].append(len(x))
                return original(x, *args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counting(name, getattr(kin, name))
            for module in (cons, kin, stab):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        law = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        f = unimodular_block(rng, count=3)
        for name, call in per_point_wrappers(law, directions).items():
            for found in calls.values():
                found.clear()
            call(f)
            principal = name in PRINCIPAL_WRAPPERS
            assert calls == {"_principal_terms": [3] if principal else [],
                             "_invariant_terms": [] if principal else [3]}, name

    def test_one_determinant_per_call(self, rng, monkeypatch, directions):
        # checked for det F = 1, then reused by the invariant pass and the
        # point geometry
        original, calls = np.linalg.det, []

        def counting(f):
            calls.append(np.shape(f))
            return original(f)

        monkeypatch.setattr(np.linalg, "det", counting)
        law = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        f = unimodular_block(rng, count=3)
        for name, call in per_point_wrappers(law, directions).items():
            calls.clear()
            call(f)
            assert len(calls) == 1, name
        calls.clear()
        lam = np.linspace(0.5, 2.0, 4)
        stab.scan_invariant_plane(law, [[0.2], [0.7]], lam, lam, directions)
        assert calls == [(16, 3, 3)]

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

    @pytest.mark.parametrize("evaluate", [
        lambda f: stab.hessian_decomposition(MR, f, [0.2]),
        lambda f: stab.baker_ericksen_check(MR, f, [0.2]),
    ], ids=["hessian_decomposition", "baker_ericksen_check"])
    def test_det_off_one_rejected_by_the_other_evaluators(self, evaluate):
        # off det F = 1 the decomposition's sum is not the tangent's
        # contraction; the isochoric rescaling of the same F is accepted
        f = np.diag([1.3, 1.1, 1.0])
        with pytest.raises(NotIsochoricError):
            evaluate(f)
        evaluate(f / np.cbrt(1.43))


def unimodular_block(rng, count=12):
    """Non-diagonal unimodular gradients, two of them with det F off 1 by
    +-1e-13, inside the isochoric tolerance."""
    f = np.stack([random_unimodular(rng, spread=0.8) for _ in range(count)])
    f[0] *= (1.0 + 1e-13) ** (1.0 / 3.0)
    f[1] *= (1.0 - 1e-13) ** (1.0 / 3.0)
    return f


class TestOneLawEvaluation:
    """A neural law's stress coefficients and Hessian come from one trace,
    so each law evaluation builds one ``networks._Workspace``; a scan
    evaluates the law once for all its parameter rows."""

    def test_one_workspace_per_law_evaluation(self, rng, monkeypatch, directions):
        builds = []

        class Counting(nets._Workspace):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(nets, "_Workspace", Counting)
        law = cons.as_law(nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng))
        f = unimodular_block(rng, count=3)
        i1, i2 = kin.isochoric_invariants(f)
        lam = np.linspace(0.5, 2.0, 4)
        rows = [[0.2], [0.5], [0.7]]
        calls = {
            **{name: (call, 1)
               for name, call in per_point_wrappers(law, directions).items()},
            "derivatives": (lambda f: law.derivatives(i1, i2, T0), 1),
            "pk1_tangent": (lambda f: cons.pk1_tangent(law, f, T0), 1),
            "hessian_decomposition": (lambda f: stab.hessian_decomposition(law, f, T0), 1),
            # one for all three parameter rows
            "scan_invariant_plane": (
                lambda f: stab.scan_invariant_plane(law, rows, lam, lam, directions), 1),
        }
        for name, (call, expected) in calls.items():
            builds.clear()
            call(f)
            assert len(builds) == expected, name


class TestStackedLawCall:
    """A scan evaluates the law once for all its parameter rows, up to
    ``_LAW_POINTS`` points per call, splitting a row's points beyond that."""

    def test_one_call_equals_per_row_calls_bit_for_bit(self, monkeypatch, directions):
        law_values, calls = stab._law_values, []

        def recording(law, par, i1, i2):
            values = law_values(law, par, i1, i2)
            calls.append((par, i1, i2, values))
            return values

        monkeypatch.setattr(stab, "_law_values", recording)
        lam = np.linspace(0.5, 3.0, 10)
        rows = [[0.0], [0.35], [0.5], [1.0]]
        for law in random_laws():
            calls.clear()
            stab.scan_invariant_plane(law, rows, lam, lam, directions)
            [(par, i1, i2, (coef, weights))] = calls
            assert par.shape == (4, 1, 1) and coef.shape == (4, 100, 2)
            for t, row_coef, row_weights in zip(par[:, 0], coef, weights):
                ref_coef, ref_weights = law_values(law, t, i1, i2)
                assert row_coef.tobytes() == ref_coef.tobytes()
                assert row_weights.tobytes() == ref_weights.tobytes()

    @pytest.mark.parametrize("budget, calls", [
        (250, [(2, 100)] * 2 + [(1, 100)]),
        (50, [(1, 50)] * 10),
        (30, [(1, 30), (1, 30), (1, 30), (1, 10)] * 5),
    ])
    def test_rows_and_points_beyond_the_point_budget_take_several_calls(
        self, monkeypatch, directions, budget, calls
    ):
        # rows that fit go together; a row that does not fit is split by
        # points, and every call stays within the budget
        law = random_laws()[1]
        lam = np.linspace(0.5, 3.0, 10)  # 100 points
        rows = [[0.0], [0.2], [0.35], [0.5], [1.0]]
        ref = stab.scan_invariant_plane(law, rows, lam, lam, directions)
        law_values, shapes = stab._law_values, []

        def recording(law, par, i1, i2):
            shapes.append((len(par), len(i1)))
            return law_values(law, par, i1, i2)

        monkeypatch.setattr(stab, "_law_values", recording)
        monkeypatch.setattr(stab, "_LAW_POINTS", budget)
        got = stab.scan_invariant_plane(law, rows, lam, lam, directions)
        assert shapes == calls
        assert all(k * points <= budget for k, points in shapes)
        assert [outcome(p) for p in got.points] == [outcome(p) for p in ref.points]
        assert got.per_parameter == ref.per_parameter

    def test_law_values_are_released_before_the_next_call(self, monkeypatch, directions):
        # a network's values view its workspace: holding them would keep one
        # workspace per call alive
        law = random_laws()[0]
        lam = np.linspace(0.5, 3.0, 10)
        law_values, held = stab._law_values, []

        def recording(law, par, i1, i2):
            assert all(ref() is None for ref in held)
            values = law_values(law, par, i1, i2)
            held.extend(weakref.ref(x) for x in values)
            return values

        monkeypatch.setattr(stab, "_law_values", recording)
        monkeypatch.setattr(stab, "_LAW_POINTS", 100)
        stab.scan_invariant_plane(law, [[0.0], [0.5], [1.0]], lam, lam, directions)
        assert len(held) == 6

    def test_law_of_one_parameter_vector_is_evaluated_row_by_row(self, directions):
        par_shapes = []

        class OneVector:
            """Reads par as one parameter vector, whatever its leading axes."""

            label = "one-vector"

            def derivatives(self, i1, i2, par):
                par_shapes.append(np.shape(par))
                return MR.derivatives(i1, i2, np.ravel(par)[:1])

        rows, lam = [[0.0], [0.5], [1.0]], np.linspace(0.5, 3.0, 4)
        report = stab.scan_invariant_plane(OneVector(), rows, lam, lam, directions)
        assert par_shapes == [(3, 1, 1)] + [(1,)] * 3
        ref = stab.scan_invariant_plane(MR, rows, lam, lam, directions)
        assert [outcome(p) for p in report.points] == [outcome(p) for p in ref.points]


class TestScanMemory:
    def test_peak_grows_with_the_grid_by_its_own_arrays_alone(self, monkeypatch):
        # with small law groups and condition blocks, a scan's working memory
        # beyond its report is bounded: from a 20x20 to a 40x40 grid its
        # tracemalloc peak grows by no more than the bigger scan's own (R, P)
        # arrays, the report's points and the condition minima (R, P, 2) and
        # error references (R, P) they are built from
        monkeypatch.setattr(stab, "_LAW_POINTS", 256)
        monkeypatch.setattr(stab, "_BLOCK_PAIRS", 2000)
        law = cons.as_law(nets.build_model(nets.Architecture.MONOTONIC, 16, 1,
                                           np.random.default_rng(3)))
        rows, directions = np.linspace(0.0, 1.0, 10)[:, None], stab.fibonacci_directions(20)
        peaks = []
        for size in (20, 40):
            lam = np.linspace(0.5, 3.0, size)
            tracemalloc.start()
            try:
                report = stab.scan_invariant_plane(law, rows, lam, lam, directions)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        own = report.points.nbytes + report.points.size * (2 * 8 + 8)
        assert peaks[1] - peaks[0] <= own


def diagonal_block(rng, count=12):
    """Diagonal unimodular gradients with stretches in [0.3, 4], two of them
    with det F off 1 by +-1e-13, inside the isochoric tolerance."""
    lam1, lam2 = rng.uniform(0.3, 4.0, (2, count))
    f = kin.principal_stretch_gradient(lam1, lam2)
    f[0] *= (1.0 + 1e-13) ** (1.0 / 3.0)
    f[1] *= (1.0 - 1e-13) ** (1.0 / 3.0)
    return f


def principal_acoustic_terms(geometry, b):
    """The acoustic tensors (P, 5, D, 3, 3) of the five terms of the
    principal geometry (P, 5, 12) in the directions b (D, 3)."""
    o, n = geometry[..., None, :3], geometry[..., 3:].reshape(geometry.shape[:2] + (3, 3))
    q = np.zeros(geometry.shape[:2] + (len(b), 3, 3))
    q[..., [0, 1, 2], [0, 1, 2]] = np.einsum("ptiJ,dJ->ptdi", n, b * b)
    for m, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        q[..., j, k] = q[..., k, j] = o[..., m] * b[:, j] * b[:, k]
    return q


class TestClosedFormGeometry:
    def test_each_term_matches_fourth_order_contraction(self, rng):
        f = diagonal_block(rng)
        b = rng.standard_normal((9, 3)) * rng.uniform(0.2, 5.0, (9, 1))
        terms = kin._invariant_terms(f)
        s = np.diagonal(f, axis1=-2, axis2=-1)
        geometry, inverse = stab._point_geometry(s, *kin._principal_terms(s, terms[0]))
        got = principal_acoustic_terms(geometry, b)
        tangent_terms = cons._tangent_terms(f, terms)
        ref = np.einsum("ptiIjJ,dI,dJ->ptdij", tangent_terms, b, b)
        for k in range(5):
            for p in range(len(f)):
                scale = np.abs(ref[p, k]).max()
                assert np.abs(got[p, k] - ref[p, k]).max() <= 1e-13 * scale
        # the diagonal of F^-T, scaled by a power of two per point
        ratio = inverse / np.diagonal(np.linalg.inv(f), axis1=-2, axis2=-1)
        assert (np.frexp(ratio)[0] == 0.5).all() and (ratio == ratio[:, :1]).all()
        assert ((inverse.max(axis=-1) >= 0.5) & (inverse.max(axis=-1) < 1.0)).all()

    def test_principal_geometry_matches_outer_reference(self, rng):
        # at a diagonal F the general-F geometry is zero but at the principal
        # entries, which equal the principal geometry bit for bit
        lam = np.linspace(0.5, 3.0, 10)
        lam1, lam2 = np.meshgrid(lam, lam, indexing="ij")
        point_sets = {
            "scan grid": kin.principal_stretch_gradient(lam1.ravel(), lam2.ravel()),
            "near-tolerance determinants": diagonal_block(rng),
            "wide stretches": kin.principal_stretch_gradient(
                *np.geomspace(1e-3, 1e3, 14).reshape(2, 7)),
        }
        for name, f in point_sets.items():
            terms = kin._invariant_terms(f)
            s = np.diagonal(f, axis1=-2, axis2=-1)
            geometry, _ = stab._point_geometry(s, *kin._principal_terms(s, terms[0]))
            ref, _ = outer_point_geometry(f, *terms)
            assert np.array_equal(geometry, ref[..., PRINCIPAL_ENTRIES]), name
            # bit for bit, signed zeros included
            assert geometry.tobytes() == ref[..., PRINCIPAL_ENTRIES].tobytes(), name
            rest = np.delete(ref, PRINCIPAL_ENTRIES, axis=-1)
            assert not rest.any(), name

    def test_runtime_path_builds_no_fourth_order_tangent(self, rng, monkeypatch):
        law = random_laws()[1]
        lam = np.linspace(0.4, 3.5, 5)
        directions = stab.fibonacci_directions(40)
        f = unimodular_block(rng, count=3)
        b = rng.standard_normal((4, 3))
        scan = stab.scan_invariant_plane(law, [[0.2], [0.7]], lam, lam, directions)
        q = stab.acoustic_tensor(law, f, T0, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fourth-order path was used")

        # replace each function in every module that holds it, including
        # modules that imported it by name
        for original in (cons._tangent_terms, kin.invariant_derivatives, kin.tensor_cross):
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

    def test_scan_runs_no_tensor_invariant_pass(self, monkeypatch, tmp_path):
        # the same report bytes with kinematics._invariant_terms unusable, on
        # a grid whose edges fail by det F and by overflowing invariants
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1,
                                 np.random.default_rng(3))
        lam1, lam2 = [1e-200, 0.6, 1.0, 2.5], [1e-160, 0.5, 1.7, 3.0]
        directions = stab.fibonacci_directions(30)

        def write(name):
            for law in (MR, cons.NeuralLaw(model)):
                report = stab.scan_invariant_plane(law, [[0.2], [0.7]], lam1, lam2,
                                                   directions)
                assert 0 < report.per_parameter[0]["failed_points"] < len(lam1) * len(lam2)
                stab.write_report_json(report, tmp_path / f"{name}-{law.label}.json")
                stab.write_summary_csv(report, tmp_path / f"{name}-{law.label}.csv")

        write("before")

        def forbidden(*args, **kwargs):
            raise AssertionError("the tensor invariant pass was used")

        for module in (cons, kin, stab):
            monkeypatch.setattr(module, "_invariant_terms", forbidden, raising=False)
        write("after")
        for path in sorted(tmp_path.glob("before-*")):
            after = tmp_path / path.name.replace("before", "after")
            assert path.read_bytes() == after.read_bytes(), path.name

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_error_types(self, rng):
        f = unimodular_block(rng, count=3)
        bad = f.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(InvertedConfigurationError):
            stab._point_terms(MR, bad, T0)
        off = f.copy()
        off[1] *= 1.01
        s = np.linalg.svd(off, compute_uv=False)
        with pytest.raises(NotIsochoricError):
            stab._point_geometry(s, *kin._principal_terms(s, np.linalg.det(off)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_nan_point_fails_alone_in_every_row(self, rng):
        f = unimodular_block(rng, count=3)
        f[1, 0, 0] = np.nan
        weights = rng.uniform(0.1, 1.0, (2, 3, 5))
        errors = np.full((2, 3), None, dtype=object)
        vectors = stab.fibonacci_directions(20)
        geometry = np.full((3, 5, 12), np.nan), np.full((3, 3), np.nan)
        frames = np.full((3, 3, 3), np.nan)
        stab._pointwise(lambda f: stab._point_terms(MR, f, T0), (f,),
                        (*geometry, np.full((3, 5), np.nan), np.full((3, 3, 3), np.nan), frames),
                        errors)
        minima = stab._minima(stab._polynomials(weights, *geometry), vectors, frames)
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
        f = uniaxial_gradient(1.5)
        elliptic, min_value = stab.ellipticity_incompressible(law, f, T0, directions)
        assert not elliptic
        assert min_value < -1e-3

    def test_zero_potential_degenerate_pass(self, directions):
        law = cons.MooneyRivlin([0.0], [0.0], [0.0])
        f = uniaxial_gradient(1.5)
        elliptic, min_value = stab.ellipticity_incompressible(law, f, T0, directions)
        assert elliptic
        assert min_value == 0.0
        comp, comp_min = stab.ellipticity_compressible(law, f, T0, directions)
        assert comp and comp_min == 0.0

    def test_direction_sign_and_scale_invariance(self, directions):
        # bit for bit under a sign or a power of two, even where the squares
        # of the directions' entries would overflow
        law = cons.neo_hookean(0.5)
        f = uniaxial_gradient(1.7)
        plus = condition_values(law, f, T0, directions)
        for factor in (-1.0, 2.0**-600, -(2.0**600)):
            other = condition_values(law, f, T0, factor * directions)
            for a, b in zip(plus[0] + plus[1], other[0] + other[1]):
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
            f = general_block(rng)
            inc, comp = condition_values(law, f, t, b)
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
                f = random_unimodular(rng, spread=0.8)
                b = rng.standard_normal(3)
                q = stab.acoustic_tensor(law, f, t, b)
                basis = tangent_plane_basis(f, b)
                lowest = np.linalg.eigvalsh(basis @ q @ basis.T)[0]
                if abs(lowest) < 1e-6 * np.linalg.norm(q):
                    continue
                elliptic, _ = stab.ellipticity_incompressible(law, f, t, b[None])
                assert elliptic == (lowest > 0.0)
                verdicts.add(elliptic)
        assert verdicts == {True, False}

    def test_acoustic_tensor_batched_shape(self, rng):
        law = random_laws()[0]
        f = np.stack([random_unimodular(rng) for _ in range(3)])
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
        directions = stab.fibonacci_directions(50)
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
        # a power of two changes no bit of the minima, even where the cubes
        # of the scaled law's acoustic tensors would under- or overflow
        def minima(report):
            return np.stack([report.points.min_value, report.points.compressible_min_value])

        assert np.equal(ref.points.error, None).all()
        for c in (2.0**-500, 2.0**-300, 2.0**300, 2.0**500):
            got = stab.scan_invariant_plane(scaled(law, c), [[0.5]], lam, lam, directions)
            assert got.points.elliptic.tolist() == ref.points.elliptic.tolist()
            assert minima(got).tobytes() == minima(ref).tobytes()

    def test_rotation_invariance(self, rng, directions):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            for _ in range(5):
                f = random_unimodular(rng, spread=0.8)
                rf = random_rotation(rng) @ f
                for check in (stab.ellipticity_incompressible,
                              stab.ellipticity_compressible):
                    ok, low = check(law, f, t, directions)
                    rot_ok, rot_low = check(law, rf, t, directions)
                    assert ok == rot_ok
                    assert rot_low == pytest.approx(low, rel=1e-9, abs=1e-12)

    def test_scan_over_several_blocks_matches_per_point_calls(self, monkeypatch):
        law = random_laws()[3]
        directions = stab.fibonacci_directions(64)
        _, lam = two_block_grid(64)
        points, pairs, features = [], [], []
        point_geometry, scan_block = stab._point_geometry, stab._scan_block

        def recording_points(s, *terms):
            points.append(len(s))
            return point_geometry(s, *terms)

        def recording_blocks(polynomials, block_features, minima, work):
            pairs.append(minima.shape[1] * len(directions))
            features.append(block_features)
            scan_block(polynomials, block_features, minima, work)

        monkeypatch.setattr(stab, "_point_geometry", recording_points)
        monkeypatch.setattr(stab, "_scan_block", recording_blocks)
        report = stab.scan_invariant_plane(law, [[0.3], [0.8]], lam, lam, directions)
        # the point geometry and the direction features are built once per
        # scan, and each block serves both rows
        assert points == [len(lam) ** 2]
        assert len(pairs) == 2 and max(pairs) <= stab._BLOCK_PAIRS
        assert features[0] is features[1] and features[0][0].shape == (3, len(directions))
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
        directions = stab.fibonacci_directions(64)
        block, lam = two_block_grid(64)
        grid = [[0.3], [0.8]]
        ref = stab.scan_invariant_plane(law, grid, lam, lam, directions)
        workspace = stab._workspace
        sizes = []

        def nan_filled(count, dirs):
            sizes.append((count, dirs))
            work = workspace(count, dirs)
            # the buffer behind the views, padding included
            work[0].base.fill(np.nan)
            return work

        monkeypatch.setattr(stab, "_workspace", nan_filled)
        got = stab.scan_invariant_plane(law, grid, lam, lam, directions)
        assert sizes == [(block, 64)]
        assert [outcome(p) for p in got.points] == [outcome(p) for p in ref.points]
        docs = []
        for name, report in (("got", got), ("ref", ref)):
            stab.write_report_json(report, tmp_path / f"{name}.json")
            docs.append(json.loads((tmp_path / f"{name}.json").read_text()))
        assert docs[0] == docs[1]

    def test_checks_take_the_scan_blocks(self, rng, monkeypatch, directions):
        # many points at once stay within one block's workspace, and give
        # the minima of every point-direction pair: seven and a half blocks
        block = stab._BLOCK_PAIRS // len(directions)
        f = unimodular_block(rng, count=7 * block + block // 2)
        workspace, sizes = stab._workspace, []

        def recording(count, dirs):
            sizes.append(count * dirs)
            return workspace(count, dirs)

        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            inc, comp = condition_values(law, f, t, directions)
            monkeypatch.setattr(stab, "_workspace", recording)
            sizes.clear()
            low = min(values.min() for values in inc)
            assert stab.ellipticity_incompressible(law, f, t, directions) == (
                low >= -stab.ELLIPTICITY_TOLERANCE, low)
            low = min(values.min() for values in comp)
            assert stab.ellipticity_compressible(law, f, t, directions) == (
                low >= -stab.ELLIPTICITY_TOLERANCE, low)
            assert len(sizes) == 2 and max(sizes) <= stab._BLOCK_PAIRS
            monkeypatch.undo()


class TestScanArena:
    def test_block_workspaces_are_aligned(self, rng, monkeypatch):
        # 7 directions: a full block, then 15 points; neither block's pair
        # count is a multiple of 8
        directions = stab.fibonacci_directions(7)
        block = stab._BLOCK_PAIRS // 7
        assert block * 7 % 8 and 15 * 7 % 8
        f = unimodular_block(rng, count=block + 15)
        scan_block, built = stab._scan_block, []

        def recording(polynomials, features, minima, work):
            built.append((minima.shape[1], work))
            scan_block(polynomials, features, minima, work)

        ref = stab.ellipticity_incompressible(MR, f, T0, directions)
        monkeypatch.setattr(stab, "_scan_block", recording)
        assert stab.ellipticity_incompressible(MR, f, T0, directions) == ref
        assert [count for count, _ in built] == [block, 15]
        # the shorter last block takes its views from the same buffer
        base = built[0][1][0].base
        for count, work in built:
            assert len(work) == 5 and work[0].shape == (2, count, 7)
            assert all(view.flags.c_contiguous and view.ctypes.data % 64 == 0
                       and view.base is base for view in work)


def tensor_cross_decomposition(law, f, par):
    """The two parts of the rank-one quadratic form from their Levi-Civita
    definitions, through ``tensor_cross_ref``."""
    i1, i2 = kin.isochoric_invariants(f)
    coef, hess = law.derivatives(i1, i2, par)
    h_cof = tensor_cross_ref(f, f) / 2.0

    def constitutive_term(a, b):
        incr = np.outer(a, b)
        w1 = float(np.sum(f * incr))
        w2 = float(np.sum(h_cof * tensor_cross_ref(incr, f)))
        return 4.0 * (float(hess[..., 0, 0]) * w1 * w1
                      + 2.0 * float(hess[..., 0, 1]) * w1 * w2
                      + float(hess[..., 1, 1]) * w2 * w2)

    def geometric_term(a, b):
        incr = np.outer(a, b)
        cross = tensor_cross_ref(incr, f)
        return 2.0 * (float(coef[..., 0]) * float(np.sum(incr * incr))
                      + float(coef[..., 1]) * float(np.sum(cross * cross)))

    return constitutive_term, geometric_term


class TestHessianDecomposition:
    def test_closed_forms_match_tensor_cross_reference(self, rng):
        for law in random_laws():
            t = rng.uniform(0.0, 1.0, 1)
            for _ in range(10):
                f = random_unimodular(rng, spread=0.8)
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
            f = np.stack([random_unimodular(rng, spread=0.8) for _ in range(6)])
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
            f = random_unimodular(rng)
            con, geo = stab.hessian_decomposition(law, f, t)
            tangent = cons.pk1_tangent(law, f, t)
            b = rng.standard_normal(3)
            for a in tangent_plane_basis(f, b):
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
            f = random_unimodular(rng)
            _, geo = stab.hessian_decomposition(law, f, t)
            b = rng.standard_normal(3)
            a = rng.standard_normal(3)
            assert geo(a, b) >= 0.0

    def test_tangent_plane_basis_is_admissible(self, rng):
        f = random_unimodular(rng)
        b = rng.standard_normal(3)
        for a in tangent_plane_basis(f, b):
            incr = np.outer(a, b)
            assert abs(np.sum(incr * np.linalg.inv(f).T)) < 1e-12


class TestBakerEricksen:
    @pytest.mark.parametrize(
        "arch", [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC]
    )
    def test_constrained_model_everywhere(self, arch, rng):
        model = nets.build_model(arch, 5, 1, rng)
        for _ in range(100):
            f = random_unimodular(rng)
            assert stab.baker_ericksen_check(model, f, np.array([0.3]))

    def test_negative_first_coefficient_fails(self):
        law = cons.neo_hookean(-1.0)
        assert not stab.baker_ericksen_check(law, uniaxial_gradient(1.4), T0)

    def test_batched_matches_per_point(self, rng):
        law = MR
        f = np.stack([random_unimodular(rng, spread=0.8) for _ in range(40)])
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
        f = uniaxial_gradient(lam)
        assert stab.baker_ericksen_check(law, f, T0) == expected

    def test_neo_hookean_passes(self):
        assert stab.baker_ericksen_check(
            cons.neo_hookean(0.5), uniaxial_gradient(2.5), T0
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
                cons.neo_hookean(1.0), [[0.0]], [1.0], [1.0], np.empty((0, 3))
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_row_raises_before_the_law(self, directions, monkeypatch,
                                                            value):
        def never(*args):
            raise AssertionError("the law was called")

        monkeypatch.setattr(stab, "_law_values", never)
        with pytest.raises(ShapeMismatchError, match=r"parameter row 1 is not finite"):
            stab.scan_invariant_plane(cons.neo_hookean(1.0), [[0.0], [value]], [1.0, 2.0],
                                      [1.0], directions)

    @pytest.mark.parametrize("law", [MR, cons.MooneyRivlin([1.0], [-0.2], [0.0])])
    def test_baker_ericksen_matches_svd_check(self, law):
        # the scan reads the stretches off F's diagonal; the public check
        # takes them from an SVD.  Stretches from 1e-3 to 1e3, and 1e200,
        # whose points fail on an overflowing det F or invariants
        lam = np.concatenate([np.geomspace(1e-3, 1e3, 13), np.linspace(0.5, 3.0, 11),
                              [1e200]])
        rows = [[0.0], [0.5], [1.0]]
        report = stab.scan_invariant_plane(law, rows, lam, lam,
                                           stab.fibonacci_directions(20))
        points = report.points.reshape(len(rows), -1)
        ok = np.equal(points.error, None)
        assert ok.any(axis=-1).all() and not ok.all(axis=-1).any()
        for row, t, evaluated in zip(points, rows, ok):
            expected = stab.baker_ericksen_check(law, row.f[evaluated], np.array(t))
            assert row.be_ok[evaluated].tolist() == expected.tolist()
            assert len(set(expected.tolist())) == 2
            assert not row.be_ok[~evaluated].any()
        # the report's array is built without a fill of its object field:
        # every entry is written
        assert all(e is None or isinstance(e, str) for e in report.points.error.tolist())
        reasons = {e.split()[0] for e in report.points.error.tolist() if e is not None}
        assert {"det", "isochoric"} <= reasons

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
        law = RowFailingLaw(MR, 0.5, fail)
        report = stab.scan_invariant_plane(law, grid, lam, lam, directions)
        # NaN values come from the one call for every row; an error makes
        # the scan evaluate each row, then each point of the failing row
        row_calls = 0 if fail is nan_values else 3 + len(lam) ** 2
        assert law.par_shapes == [(3, 1, 1)] + [(1,)] * row_calls
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


# ---------------------------------------------------------------------------
# report writers against one repr per entry


def reference_column(points, name):
    """The JSON text of the field ``name`` of each point, one ``repr`` per
    entry: the column text that the report writers are checked against."""
    values = points[name]
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    if values.dtype == object:
        return ["null" if e is None else json.dumps(e) for e in values.tolist()]
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=-1)):
        texts[k] = "null" if name in stab._NULLABLE else json.dumps(values[k].tolist())
    return texts


def reference_report_json(report, path):
    """The JSON report, one ``repr`` per entry: the header as ``json`` indents
    it, then one line per point from :func:`reference_column`."""
    head = json.dumps({"law": report.law_label, "direction_count": report.direction_count,
                       "region": report.region, "per_parameter": report.per_parameter},
                      indent=2, sort_keys=True)
    names = sorted(report.points.dtype.names)
    columns = {name: reference_column(report.points, name) for name in names}
    lines = ["{" + ", ".join(f'"{name}": {columns[name][k]}' for name in names) + "}"
             for k in range(len(report.points))]
    points = ",\n    ".join(lines)
    Path(path).write_text(f'{head[:-2]},\n  "points": [\n    {points}\n  ]\n}}\n')


def reference_summary_csv(report, path):
    """The per-point summary, one ``repr`` per entry, through ``csv.writer``."""
    points = report.points
    t = [cons._format_params(entry["t"]) for entry in report.per_parameter
         for _ in range(entry["points"])]
    lam1, lam2, i1, i2, min_value = (
        map(repr, points[name].tolist())
        for name in ("lambda1", "lambda2", "i1", "i2", "min_value")
    )
    elliptic, be_ok = (np.where(points[name], "true", "false").tolist()
                       for name in ("elliptic", "be_ok"))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lambda1", "lambda2", "i1", "i2", "elliptic", "min_value",
                         "be_ok"])
        writer.writerows(zip(t, lam1, lam2, i1, i2, elliptic, min_value, be_ok))


def law_failed_scan(directions):
    # the row t = 0.5 fails at every point, so its fractions are None
    lam = np.linspace(0.5, 3.0, 4)
    return stab.scan_invariant_plane(RowFailingLaw(MR, 0.5, raise_out_of_range),
                                     [[0.0], [0.5], [1.0]], lam, lam, directions)


def overflowing_scan(directions):
    # det F or the invariants overflow on the edges: null i1 and i2
    return stab.scan_invariant_plane(cons.neo_hookean(0.5), [[0.0], [1.0]],
                                     [1e-200, 1.0, 3.0], [1e-160, 0.5, 2.0], directions)


def edited_scan(directions):
    # rows that differ in lambda1 and f, -0.0 next to 0.0 in lambda1 and in f
    # (point 1 and its twin 10 in the other row), an inf in f, a NaN lambda1
    lam = np.linspace(0.5, 3.0, 3)
    report = stab.scan_invariant_plane(MR, [[0.0], [1.0]], lam, lam, directions)
    points = report.points.copy()
    points.lambda1[15:18] += 0.25
    points.lambda1[4:7] = -0.0, 0.0, np.nan
    points.f[12] *= 1.5
    points.f[1, 0, 1] = -0.0
    points.f[3, 2, 2] = np.inf
    return dataclasses.replace(report, points=points)


def signed_zero_scan(directions):
    # values shared across fields with both signs of zero: lambda2 = -0.0 on
    # a point whose f and t hold 0.0, min_value -0.0 and 0.0, an f entry
    # -0.0 beside 0.0, and 1.5 in lambda1, i1 and f at one point
    lam = np.linspace(0.5, 3.0, 3)
    report = stab.scan_invariant_plane(MR, [[0.0], [1.0]], lam, lam, directions)
    points = report.points.copy()
    points.lambda2[0] = -0.0
    points.min_value[[1, 10]] = -0.0, 0.0
    points.compressible_min_value[2] = -0.0
    points.f[3, 0, 1] = -0.0
    points.lambda1[4] = points.i1[4] = points.f[4, 2, 2] = 1.5
    return dataclasses.replace(report, points=points)


def two_parameter_scan(directions):
    model = nets.build_model(nets.Architecture.MONOTONIC, 4, 2, np.random.default_rng(5))
    lam = np.linspace(0.5, 3.0, 3)
    return stab.scan_invariant_plane(cons.NeuralLaw(model), [[0.0, 1.0], [0.5, 0.25]],
                                     lam, lam, directions)


class TestReportWriters:
    @pytest.mark.parametrize("make", [law_failed_scan, overflowing_scan, edited_scan,
                                      signed_zero_scan, two_parameter_scan])
    def test_text_matches_one_repr_per_entry(self, make, directions, tmp_path):
        report = make(directions)
        stab.write_report_json(report, tmp_path / "report.json")
        stab.write_summary_csv(report, tmp_path / "summary.csv")
        reference_report_json(report, tmp_path / "reference.json")
        reference_summary_csv(report, tmp_path / "reference.csv")
        assert (tmp_path / "report.json").read_bytes() == \
            (tmp_path / "reference.json").read_bytes()
        assert (tmp_path / "summary.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_reports_cover_the_text_paths(self, directions):
        failed = law_failed_scan(directions)
        assert failed.per_parameter[1]["elliptic_fraction"] is None
        assert reference_column(overflowing_scan(directions).points, "i1").count("null") > 0
        f = reference_column(edited_scan(directions).points, "f")
        assert f[1] == f[10].replace("0.0", "-0.0", 1) and "Infinity" in f[3]
        zero = signed_zero_scan(directions).points
        column = partial(reference_column, zero)
        assert column("lambda2")[0] == "-0.0" and "-0.0" not in column("f")[0] + column("t")[0]
        assert [column("min_value")[k] for k in (1, 10)] == ["-0.0", "0.0"]
        assert column("f")[3].count("-0.0") == 1
        assert column("lambda1")[4] == column("i1")[4] == "1.5" and "1.5]]" in column("f")[4]
        assert reference_column(two_parameter_scan(directions).points, "t")[0] == "[0.0, 1.0]"
