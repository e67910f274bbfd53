"""Seeded construction of instances with planted, exactly known solutions.

Plants invert the complementary structure: pick the solution point and an
active set S first, then choose the data so that H_i(r*) = 0 and F_i(r*) > 0
on S while H_i(r*) > 0 and F_i(r*) = 0 off S.  The strict margins (both
slacks drawn from (0.1, 1]) keep planted instances away from degenerate
boundaries so tolerance-based tests are not flaky.

Reproducibility contract: all randomness comes from numpy's PCG64 stream
(``numpy.random.default_rng(seed)``); the identifier RNG_STREAM_ID names that
stream in serialized instance files.  For a fixed spec the draw order is
fixed too: matrix family draws, then (affine family only) the raw C entries,
then the solution point, then the active-set permutation, then the H-side
margins h, then the F-side margins g.  Identical specs therefore produce
bit-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AffineMap, IcpInstance, ImplicitMap, ZeroMap
from .linalg import as_count, as_real

MATRIX_FAMILIES = ("diag_dominant", "symmetric_pd", "dense")
F_FAMILIES = ("zero", "contractive_affine")
RNG_STREAM_ID = "numpy-pcg64"


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one planted instance.

    gamma bounds the infinity norm of the affine part C (ignored for the zero
    family); active_fraction is the fraction of indices with H_i(r*) = 0.
    The active set has round(active_fraction * n) indices, and Python rounds
    a tie to the even integer: at 0.5, n = 1, 3, 5, 7 give 0, 2, 2, 4.
    """

    n: int
    seed: int
    matrix_family: str = "diag_dominant"
    f_family: str = "zero"
    gamma: float = 0.0
    active_fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n", 1))
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))
        if self.matrix_family not in MATRIX_FAMILIES:
            raise ValueError(f"unknown matrix family {self.matrix_family!r}")
        if self.f_family not in F_FAMILIES:
            raise ValueError(f"unknown f family {self.f_family!r}")
        object.__setattr__(self, "gamma", as_real(self.gamma, "gamma", "lie in [0, 1)", lambda v: 0.0 <= v < 1.0))
        fraction = as_real(self.active_fraction, "active_fraction", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        object.__setattr__(self, "active_fraction", fraction)


def _uniform_open_low(rng: np.random.Generator, low: float, high: float, n: int) -> np.ndarray:
    """Uniform draw on (low, high]: flip the half-open side of rng.uniform."""
    return (low + high) - rng.uniform(low, high, n)


def _draw_matrix(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if family == "diag_dominant":
        a = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        margin = _uniform_open_low(rng, 0.1, 1.0, n)
        np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + margin)
        return a
    if family == "symmetric_pd":
        b = rng.uniform(-1.0, 1.0, (n, n))
        m = b @ b.T + n * np.eye(n)
        m = (m + m.T) / 2.0
        s = np.sqrt(np.diagonal(m))
        return m / np.outer(s, s)
    return rng.uniform(-1.0, 1.0, (n, n))  # dense: GeneratorSpec admits no other family


def _contractive_map(rng: np.random.Generator, n: int, gamma: float) -> np.ndarray:
    raw = rng.uniform(-1.0, 1.0, (n, n))
    norm = np.max(np.sum(np.abs(raw), axis=1))
    if gamma == 0.0 or norm == 0.0:
        return np.zeros((n, n))
    return raw * (gamma / norm)


def generate_planted(spec: GeneratorSpec) -> tuple[IcpInstance, np.ndarray, tuple[int, ...]]:
    """Build (instance, planted solution, active set) from a spec.

    Active indices i carry H_i(r*) = 0 and F_i(r*) = g_i in (0.1, 1]; the
    rest carry H_i(r*) = h_i in (0.1, 1] and F_i(r*) = 0.  For the zero
    family H(r) = r, so the plant itself is zero on the active set and h_i
    elsewhere; for the affine family the offset d absorbs the pattern and the
    plant is uniform on [-1, 1].
    """
    n = spec.n
    rng = np.random.default_rng(spec.seed)

    a = _draw_matrix(spec.matrix_family, n, rng)
    if spec.f_family == "contractive_affine":
        c = _contractive_map(rng, n, spec.gamma)
    else:
        c = None

    r_star = rng.uniform(-1.0, 1.0, n)
    k = int(round(spec.active_fraction * n))
    order = rng.permutation(n)
    active = np.zeros(n, dtype=bool)
    active[order[:k]] = True

    h = _uniform_open_low(rng, 0.1, 1.0, n)
    g = _uniform_open_low(rng, 0.1, 1.0, n)

    f: ImplicitMap
    if c is None:
        # H(r) = r, so the complementary pattern must live in the plant itself.
        r_star = np.where(active, 0.0, h)
        f = ZeroMap()
    else:
        base = r_star - c @ r_star
        d = np.where(active, base, base - h)
        f = AffineMap(c, d)

    b = np.where(active, -(a @ r_star) + g, -(a @ r_star))
    inst = IcpInstance(A=a, b=b, f=f)
    active_set = tuple(int(i) for i in np.flatnonzero(active))
    r_star = np.array(r_star)
    r_star.setflags(write=False)
    return inst, r_star, active_set
