import numpy as np
import pytest

from monopann import calibration, kinematics, networks


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def central_difference(fun, x, h=1e-5):
    """Gradient of a scalar function of an array by central differences."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def central_difference_tensor(fun, x, h=1e-5):
    """Jacobian of an array-valued function of an array, by central differences.

    Output axes are the function's output axes followed by the input axes.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(fun(x))
    out = np.zeros(base.shape + x.shape)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        out[(...,) + idx] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unimodular(rng: np.random.Generator, spread: float = 0.4) -> np.ndarray:
    """Well-conditioned random deformation gradient with det F = 1."""
    while True:
        f = np.eye(3) + spread * rng.standard_normal((3, 3))
        det = np.linalg.det(f)
        if det > 0.3:  # keep the inverse well scaled
            return f * det ** (-1.0 / 3.0)


def uniaxial_gradient(lam) -> np.ndarray:
    """Incompressible uniaxial tension at stretch ``lam``, as the principal
    stretches (lam, lam^-1/2, 1/(lam lam^-1/2)); broadcasts over an array."""
    lam = np.asarray(lam, dtype=float)
    return kinematics.principal_stretch_gradient(lam, lam**-0.5)


def parameter_gradients(model, inv, par):
    """d psi / d t, shape (..., m), from the engine's reverse rule: past its
    invariant columns, the entry layer's product ``ahat W`` is the adjoint of
    that layer's other inputs, which the rule sweeps down through every
    layer below the entry layer to the parameters."""
    inv, par, lead = networks._as_batch(model, inv, par)
    work = networks._Workspace(model, inv - 3.0, par)
    networks._coefficients(model, work)
    entry = networks._entry(model)
    g = work.products[entry][..., 2:]
    for k in range(entry - 1, -1, -1):
        g = (g * work.slopes[k]) @ model.layers[k].weights
    return g.reshape(g.shape[:-2] + lead + (model.param_dim,))


def stack_models(models):
    """One model whose arrays view one (R, P) buffer, row r from ``models[r]``."""
    rows = [calibration._flat(networks.parameter_arrays(m)) for m in models]
    return networks.with_buffer(models[0], np.stack(rows))
