"""Seeded inputs for the three workloads, with the references their checks use.

Every input comes from ``numpy.random.default_rng([seed, workload, pass])``:
the same seed writes the same files. A run makes a fixed number of passes
over a fixed cycle of shapes, so the size mix, and with it the size class
that holds each latency percentile, is the same for every seed. Each pass
has inputs of its own, drawn afresh with the same shapes, so no pass repeats
an earlier pass's input and a cache keyed on the input cannot make later
passes cheaper. The seed picks amplitudes, coefficients and, for the
double-Gaussian states, random local phases; it never picks sizes.

The only program function used here is ``format_state``, which renders the
wide-ket states as the canonical ket text a user would feed back in.
References come from numpy or from closed forms, never from the program.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

# Amplitude matrices of the paper's example states: rows are the Latin kets
# a, b; columns the Greek kets alpha, beta, gamma (and delta for psi2).
PAPER_AMPLITUDES = {
    "psi0": [[2, 1, 1], [1, 2, 1]],
    "psi1": [[2, 1, 1], [1, 2, -1]],
    "psi2": [[2, 1, 1, -1], [1, 2, -1, 1]],
    "psi3": [[2, 1j, 1], [1j, 2, 1]],
}
PAPER_GREEK = ("alpha", "beta", "gamma", "delta")
# Schmidt numbers the paper states in closed form.
PAPER_K = {"psi0": 144 / 122, "psi3": 144 / 74}

# Inputs that reproduce ROADMAP defects, with the outcome a correct program gives.
OVERFLOW_EXPR = "1e999|a>(x)|b>"  # non-finite coefficient: must exit 2
TINY_BELL_EXPR = "1e-200|a>(x)|b> + 1e-200|c>(x)|d>"  # valid Bell-type state: K = 2

# One cycle of wide-ket shapes (k Latin kets, N Greek kets), in run order.
# Latency classes: 7 x (4, 256) < 6 x (3, 1024) < 6 x (2, 2048) < 1 x (2, 4096).
# The median falls inside the (3, 1024) class; with the 4 passes of a run,
# the tail (the eleventh slowest operation) is the seventh slowest of the 24
# in the (2, 2048) class.
WIDE_KET_CYCLE = [
    (4, 256), (3, 1024), (2, 2048), (4, 256), (3, 1024), (2, 4096), (4, 256),
    (2, 2048), (3, 1024), (4, 256), (2, 2048), (3, 1024), (4, 256), (2, 2048),
    (3, 1024), (4, 256), (2, 2048), (3, 1024), (4, 256), (2, 2048),
]

# One cycle of square-json inputs (d, kind), shape d x (d+1), in run order.
# "rand" is a random complex state, "dg" a discretised double-Gaussian state.
# Latency classes: 5 x d=16 < 3 x (32, dg) < 6 x (32, rand) < 5 x d=48 <
# 4 x (64, rand) < 2 x d=96 (a refused dg state skips rendering, so it is
# the faster kind at d = 32). The median falls inside the (32, rand) class.
# With the 3 passes of a run, the tail (the eleventh slowest operation) is
# the fifth slowest of the 12 in the (64, rand) class.
SQUARE_JSON_CYCLE = [
    (16, "dg"), (32, "rand"), (48, "dg"), (64, "rand"), (32, "dg"), (16, "rand"),
    (32, "rand"), (48, "rand"), (96, "dg"), (16, "dg"), (32, "rand"), (64, "rand"),
    (48, "dg"), (32, "dg"), (16, "rand"), (32, "rand"), (64, "rand"), (48, "rand"),
    (16, "dg"), (96, "rand"), (32, "rand"), (48, "dg"), (32, "dg"), (64, "rand"),
    (32, "rand"),
]
# Width ratio R of the double-Gaussian states per dimension. The Jacobi
# sweep count, and so the cost, grows with R, so R is fixed rather than
# seeded (the seed only picks local phases); a d-point grid resolves each of
# these spectra.
DG_RATIO = {16: 1.5, 32: 1.5, 48: 3.0, 96: 6.0}
# numpy's SVD of every generated double-Gaussian matrix must match the closed
# form this well, so a later, more accurate program is held to the oracle.
DG_ORACLE_RTOL = 1e-10
# Closed-form eigenvalues above this are compared one by one.
DG_LAMBDA_FLOOR = 1e-6


def schmidt_number_of(amplitudes: np.ndarray) -> float:
    """Reference K = 1 / sum(lambda^2) from numpy's SVD of the normalized matrix."""
    s = np.linalg.svd(amplitudes / np.linalg.norm(amplitudes), compute_uv=False)
    lam = s * s
    return float(1.0 / np.sum(lam * lam))


def _random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _state_doc(latin, greek, amplitudes) -> dict:
    """A schmidt-state-v1 document, written here rather than by the program."""
    return {
        "format": "schmidt-state-v1",
        "latin_labels": list(latin),
        "greek_labels": list(greek),
        "amplitudes": [[[float(z.real), float(z.imag)] for z in row] for row in amplitudes],
    }


def _ref(latin, greek, amplitudes, k_value=None, lambdas=None) -> dict:
    amps = np.asarray(amplitudes, dtype=complex)
    normalized = amps / np.linalg.norm(amps)
    return {
        "latin": list(latin),
        "greek": list(greek),
        "amps": normalized,
        "K": schmidt_number_of(amps) if k_value is None else k_value,
        "lambdas": lambdas,
    }


# --- double-Gaussian oracle -----------------------------------------------


def double_gaussian(d: int, ratio: float, half_width: float) -> np.ndarray:
    """psi(x, y) ~ exp(-(x+y)^2/4a^2 - (x-y)^2/4b^2) on a d x (d+1) grid.

    a = sqrt(R), b = 1/sqrt(R), both axes spanning [-half_width, half_width].
    """
    a2, b2 = ratio, 1.0 / ratio
    x = np.linspace(-half_width, half_width, d)[:, None]
    y = np.linspace(-half_width, half_width, d + 1)[None, :]
    psi = np.exp(-((x + y) ** 2) / (4 * a2) - ((x - y) ** 2) / (4 * b2))
    return psi / np.linalg.norm(psi)


def double_gaussian_spectrum(ratio: float, count: int) -> tuple[np.ndarray, float]:
    """Closed-form lambda_n = (1 - mu^2) mu^(2n), mu = (R-1)/(R+1), and K = (R + 1/R)/2.

    Law, Walmsley & Eberly, PRL 84, 5304 (2000).
    """
    mu = (ratio - 1.0) / (ratio + 1.0)
    n = np.arange(count)
    return (1.0 - mu * mu) * mu ** (2 * n), (ratio + 1.0 / ratio) / 2.0


def _oracle_error(psi: np.ndarray, exact: np.ndarray, k_exact: float) -> float:
    """How far numpy's SVD of ``psi`` is from the closed-form spectrum and K."""
    lam = np.linalg.svd(psi, compute_uv=False) ** 2
    return max(
        abs(1.0 / np.sum(lam * lam) - k_exact) / k_exact,
        float(np.max(np.abs(lam - exact))),
    )


@functools.cache
def _double_gaussian_grid(d: int, ratio: float) -> np.ndarray:
    """The grid half-width whose matrix numpy's SVD resolves best."""
    exact, k_exact = double_gaussian_spectrum(ratio, d)
    grids = [double_gaussian(d, ratio, factor * math.sqrt(ratio)) for factor in np.linspace(3.0, 6.0, 31)]
    return min(grids, key=lambda psi: _oracle_error(psi, exact, k_exact))


def _double_gaussian_input(rng, d: int, ratio: float) -> tuple[np.ndarray, float, np.ndarray]:
    """A double-Gaussian state under seeded local phases, with its closed-form spectrum.

    The phases diag(e^{i a}) psi diag(e^{i b}) are a local unitary, so the
    Schmidt spectrum is the closed form's, while the amplitudes differ from
    pass to pass. Returns the matrix, the closed-form K and the closed-form
    eigenvalues above DG_LAMBDA_FLOOR. Raises if numpy's SVD of the matrix
    misses them by more than DG_ORACLE_RTOL.
    """
    exact, k_exact = double_gaussian_spectrum(ratio, d)
    phase_a = np.exp(2j * np.pi * rng.random(d))[:, None]
    phase_b = np.exp(2j * np.pi * rng.random(d + 1))[None, :]
    psi = phase_a * _double_gaussian_grid(d, ratio) * phase_b
    err = _oracle_error(psi, exact, k_exact)
    if err > DG_ORACLE_RTOL:
        raise RuntimeError(f"no grid resolves the double-Gaussian state d={d}, R={ratio}: {err:.1e}")
    return psi, k_exact, exact[exact > DG_LAMBDA_FLOOR]


# --- per-workload generators ------------------------------------------------


def _paper_ref(name: str) -> dict:
    amps = np.array(PAPER_AMPLITUDES[name], dtype=complex)
    greek = PAPER_GREEK[: amps.shape[1]]
    ref = _ref(("a", "b"), greek, amps, PAPER_K.get(name))
    if name in PAPER_K and abs(schmidt_number_of(amps) - PAPER_K[name]) > 1e-12:
        raise RuntimeError(f"paper value of K for {name} disagrees with numpy")
    return ref


def _ket_coefficient(value: complex) -> str:
    """Magnitude text for an integer or Gaussian-integer coefficient, in ket-v1."""
    re, im = int(value.real), int(value.imag)
    if im == 0:
        return "" if abs(re) == 1 else str(abs(re))
    if re == 0:
        return ("" if abs(im) == 1 else str(abs(im))) + "i"
    return f"({abs(re)}{'+' if im * re > 0 else '-'}{abs(im)}i)"


def _small_ket_state(rng) -> tuple[str, dict]:
    """A random small state with Gaussian-integer coefficients, as hand-typed ket text."""
    rows, cols = [(2, 3), (3, 3), (3, 4)][int(rng.integers(3))]
    latin = ("a", "b", "c")[:rows]
    greek = PAPER_GREEK[:cols]
    while True:
        amps = rng.integers(-3, 4, size=(rows, cols)) + 1j * rng.integers(-2, 3, size=(rows, cols))
        amps[np.abs(amps) == 0] = 1
        if np.linalg.matrix_rank(amps) == rows:
            break
    groups = []
    for j, g in enumerate(greek):
        parts = []
        for i, l in enumerate(latin):
            z = amps[i, j]
            negative = z.real < 0 or (z.real == 0 and z.imag < 0)
            text = _ket_coefficient(z) + f"|{l}>"
            if not parts:
                parts.append(("-" if negative else "") + text)
            else:
                parts.append((" - " if negative else " + ") + text)
        groups.append(f"({''.join(parts)})(x)|{g}>")
    return " + ".join(groups), _ref(latin, greek, amps)


def paper_cli_inputs(rng, work: str, tag: str) -> list[dict]:
    """One cycle of CLI invocations: argv, expected outcome and reference.

    Each format gets the paper's examples, one ``--expr`` and one ``--file``
    state, and one of the two ROADMAP defect inputs.
    """
    bell = np.array([[1, 0], [0, 1]], dtype=complex)
    defects = {
        "table": {"argv": ["analyze", "--expr", OVERFLOW_EXPR], "expect": "reject", "ref": None},
        "json": {"argv": ["analyze", "--expr", TINY_BELL_EXPR], "expect": "report",
                 "ref": _ref(("a", "c"), ("b", "d"), bell, 2.0)},
    }
    cycle = []
    for fmt in ("table", "json"):
        block = [{"argv": ["examples", name], "expect": "report", "ref": _paper_ref(name)}
                 for name in ("psi0", "psi1", "psi2", "psi3")]
        block += [{"argv": ["examples", name], "expect": "comparison", "ref": None}
                  for name in ("bell", "classical")]
        text, ref = _small_ket_state(rng)
        block.append({"argv": ["analyze", "--expr", text], "expect": "report", "ref": ref})
        d = int(rng.integers(3, 6))
        amps = _random_complex(rng, d, d + 1)
        latin = [f"x{i}" for i in range(d)]
        greek = [f"y{j}" for j in range(d + 1)]
        path = os.path.join(work, f"cli-{tag}-{fmt}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_state_doc(latin, greek, amps), handle)
        block.append({"argv": ["analyze", "--file", path], "expect": "report",
                      "ref": _ref(latin, greek, amps)})
        block.insert(4, defects[fmt])
        for item in block:
            item["argv"] = item["argv"] + ["--format", fmt]
            item["format"] = fmt
        cycle += block
    return cycle


def wide_ket_inputs(rng, work: str, tag: str) -> list[dict]:
    """One cycle of canonical ket texts of random k x N states."""
    from schmidt import BipartitePureState, format_state

    cycle = []
    for index, (k, n) in enumerate(WIDE_KET_CYCLE):
        latin = [f"q{i}" for i in range(k)]
        greek = [f"m{j}" for j in range(n)]
        amps = _random_complex(rng, k, n)
        text = format_state(BipartitePureState.from_amplitudes(latin, greek, amps))
        path = os.path.join(work, f"ket-{tag}-{index:02d}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        cycle.append({"path": path, "shape": [k, n], "kind": "rand", "ref": _ref(latin, greek, amps)})
    return cycle


def square_json_inputs(rng, work: str, tag: str) -> list[dict]:
    """One cycle of schmidt-state-v1 files: random and double-Gaussian d x (d+1) states."""
    cycle = []
    for index, (d, kind) in enumerate(SQUARE_JSON_CYCLE):
        latin = [f"x{i}" for i in range(d)]
        greek = [f"y{j}" for j in range(d + 1)]
        if kind == "rand":
            amps = _random_complex(rng, d, d + 1)
            ref = _ref(latin, greek, amps)
            shape = [d, d + 1]
        else:
            ratio = DG_RATIO[d]
            amps, k_exact, lambdas = _double_gaussian_input(rng, d, ratio)
            ref = _ref(latin, greek, amps, k_exact, lambdas)
            shape = [d, d + 1, ratio]
        path = os.path.join(work, f"state-{tag}-{index:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_state_doc(latin, greek, amps), handle)
        cycle.append({"path": path, "shape": shape, "kind": kind, "ref": ref})
    return cycle


GENERATORS = {
    "paper-cli": paper_cli_inputs,
    "wide-ket": wide_ket_inputs,
    "square-json": square_json_inputs,
}


def write_inputs(workload: str, seed: int, passes: int, work: str) -> str:
    """Generate ``passes`` cycles of inputs under ``work`` and return the manifest path.

    Pass ``p`` draws from ``default_rng([seed, workload, p])``. Reference
    matrices go to one ``refs.npz``; the manifest holds the rest.
    """
    cycles = []
    for p in range(passes):
        rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload), p])
        cycles.append(GENERATORS[workload](rng, work, f"{p:02d}"))
    arrays = {}
    for p, cycle in enumerate(cycles):
        for index, item in enumerate(cycle):
            ref = item["ref"]
            if ref is None:
                continue
            arrays[f"amps{p}_{index}"] = ref.pop("amps")
            if ref["lambdas"] is not None:
                arrays[f"lambdas{p}_{index}"] = ref["lambdas"]
            ref["lambdas"] = ref["lambdas"] is not None
    np.savez(os.path.join(work, "refs.npz"), **arrays)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "cycles": cycles}, handle)
    return manifest


def load_inputs(manifest: str) -> list[list[dict]]:
    """Read a manifest written by ``write_inputs``: one list of inputs per pass."""
    with open(manifest, encoding="utf-8") as handle:
        cycles = json.load(handle)["cycles"]
    with np.load(os.path.join(os.path.dirname(manifest), "refs.npz")) as arrays:
        for p, cycle in enumerate(cycles):
            for index, item in enumerate(cycle):
                ref = item["ref"]
                if ref is None:
                    continue
                ref["amps"] = arrays[f"amps{p}_{index}"]
                ref["lambdas"] = arrays[f"lambdas{p}_{index}"] if ref["lambdas"] else None
    return cycles
