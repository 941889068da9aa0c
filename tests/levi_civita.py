"""Reference tensor cross products from their permutation-tensor definitions.

The package evaluates these in closed form; the tests compare against the
definitions here, which build their own Levi-Civita tensor.
"""

import numpy as np


def levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


EPS = levi_civita()


def tensor_cross_ref(a, b) -> np.ndarray:
    """(a x b)_iI = eps_ijk eps_IJK a_jJ b_kK, over leading axes of a and b."""
    return np.einsum("ijk,IJK,...jJ,...kK->...iI", EPS, EPS, a, b)


def cross_operator_ref(m) -> np.ndarray:
    """The fourth-order tensor [i,I,j,J] of ``x -> tensor_cross_ref(m, x)``."""
    return np.einsum("ikj,IKJ,...kK->...iIjJ", EPS, EPS, m)
