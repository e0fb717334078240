"""The suite's test states and child-process environment, each defined once.

The paper's examples are built here from their amplitude matrices with the
constructor; ``schmidt.catalog.example_state`` parses the same states from the
ket text of ``catalog.EXPRESSIONS``, so a test can hold one against the other.
"""

import os
from pathlib import Path

import numpy as np

import schmidt.modes
from schmidt.modes import BipartitePureState

LATIN = ("a", "b")
GREEK = ("alpha", "beta", "gamma")

# Each example's amplitude matrix, rows over its Latin labels and columns over its
# Greek labels, with its exact Schmidt number K.
AMPLITUDES = {
    "psi0": [[2, 1, 1], [1, 2, 1]],  # K = 144/122
    "psi1": [[2, 1, 1], [1, 2, -1]],  # K = 1.6
    "psi2": [[2, 1, 1, -1], [1, 2, -1, 1]],  # K = 196/106
    "psi3": [[2, 1j, 1], [1j, 2, 1]],  # K = 144/74
    "bell": [[0, 1], [1, 0]],  # K = 2
}
LABELS = {
    "psi0": (LATIN, GREEK),
    "psi1": (LATIN, GREEK),
    "psi2": (LATIN, GREEK + ("delta",)),
    "psi3": (LATIN, GREEK),
    "bell": (("H", "V"), ("H", "V")),
}


def example(name):
    """The example ``name`` of ``AMPLITUDES``, built with the constructor, not parsed."""
    return BipartitePureState(*LABELS[name], AMPLITUDES[name])


def labelled_state(amplitudes):
    """A state of ``amplitudes`` with generated labels: ``m0, m1, ...`` and ``s0, s1, ...``."""
    rows, cols = np.shape(amplitudes)
    return BipartitePureState([f"m{i}" for i in range(rows)], [f"s{j}" for j in range(cols)],
                              amplitudes)


def circulant_state(c):
    """The d x d circulant state ``C[j, k] = c[(j - k) mod d]``, labelled as ``labelled_state``."""
    d = len(c)
    return labelled_state(np.asarray(c)[np.subtract.outer(np.arange(d), np.arange(d)) % d])


def product_state(a, b):
    """The state of amplitudes ``np.kron(a, b)``, psi (x) phi for amplitude matrices ``a`` and
    ``b``. Each side is labelled by its pair of indices: Latin ``xa0_ya1`` is row 0 of ``a``
    with row 1 of ``b``, and Greek ``xb0_yb1`` is column 0 of ``a`` with column 1 of ``b``."""
    (a_rows, a_cols), (b_rows, b_cols) = np.shape(a), np.shape(b)
    return BipartitePureState([f"xa{i}_ya{k}" for i in range(a_rows) for k in range(b_rows)],
                              [f"xb{j}_yb{l}" for j in range(a_cols) for l in range(b_cols)],
                              np.kron(a, b))


def random_unitary(rng, n):
    """A Haar-random n x n unitary: QR of a complex Gaussian matrix, R's phases moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def child_env(**extra):
    """The environment of a child Python that imports this checkout's package, with
    ``extra`` set and PYTHONUNBUFFERED unset."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    package_root = str(Path(schmidt.modes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(extra)
    return env
