"""Problem data and the solution predicate for implicit complementarity problems.

An instance is the triple (A, b, f).  A point r solves it when the pair

    H(r) = r - f(r)    and    F(r) = A r + b

is componentwise nonnegative and componentwise complementary (H_i or F_i is
zero at every index).  With f identically zero, H(r) = r and the instance is
an ordinary linear complementarity problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, as_real, as_vector


class ImplicitMap:
    """Evaluation contract for the implicit term f.

    Implementations must be deterministic and return a finite array of the
    input's shape for every finite input, a point (n,) or a stack (p, n).
    ``affine_parts(n)`` returns (C, d) with f(r) = C r + d when the map is
    affine, else None; the enumeration oracle only supports affine maps.
    """

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def affine_parts(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        return None


@dataclass(frozen=True)
class ZeroMap(ImplicitMap):
    """f(r) = 0 for all r; reduces the instance to an LCP."""

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(r, dtype=float))

    def affine_parts(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((n, n)), np.zeros(n)


@dataclass(frozen=True)
class AffineMap(ImplicitMap):
    """f(r) = C r + d."""

    C: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.C, name="affine map matrix")
        d = as_vector(self.d, name="affine map offset")
        if c.shape[0] != d.shape[0]:
            raise ValueError(f"affine map dimensions disagree: C {c.shape}, d {d.shape}")
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "d", d)

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.shape[-1:] != self.d.shape:
            raise ValueError(f"dimension mismatch: map dim {self.d.shape[0]}, point {r.shape}")
        return np.matmul(self.C, r[..., None])[..., 0] + self.d

    def affine_parts(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n != self.d.shape[0]:
            raise ValueError(f"dimension mismatch: map dim {self.d.shape[0]}, requested {n}")
        return self.C, self.d


@dataclass(frozen=True)
class ToleranceConfig:
    """Slack for the numeric solution test; all fields nonnegative.

    feas_tol bounds how negative H or F may go and comp_tol bounds |H_i * F_i|.
    """

    feas_tol: float = 1e-10
    comp_tol: float = 1e-10

    def __post_init__(self):
        for name in ("feas_tol", "comp_tol"):
            value = as_real(getattr(self, name), name, "be finite and >= 0", lambda v: 0.0 <= v < np.inf)
            object.__setattr__(self, name, value)


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class IcpInstance:
    """The triple (A, b, f) of one implicit complementarity problem."""

    A: np.ndarray
    b: np.ndarray
    f: ImplicitMap = field(default_factory=ZeroMap)

    def __post_init__(self):
        a = as_matrix(self.A, name="A")
        b = as_vector(self.b, name="b")
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"dimension mismatch: A {a.shape}, b {b.shape}")
        if isinstance(self.f, AffineMap) and self.f.d.shape[0] != b.shape[0]:
            raise ValueError(f"dimension mismatch: f dim {self.f.d.shape[0]}, instance dim {b.shape[0]}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def _point(self, r) -> np.ndarray:
        """r as a float array of shape (n,), one point, or (p, n), a stack of p points."""
        r = np.asarray(r, dtype=float)
        if r.ndim not in (1, 2) or r.shape[-1] != self.n:
            raise ValueError(f"dimension mismatch: instance dim {self.n}, point shape {r.shape}")
        return r


def evaluate_H(inst: IcpInstance, r: np.ndarray) -> np.ndarray:
    """H(r) = r - f(r), for a point or row by row for a stack."""
    r = inst._point(r)
    return r - inst.f.evaluate(r)


def evaluate_F(inst: IcpInstance, r: np.ndarray) -> np.ndarray:
    """F(r) = A r + b, for a point or row by row for a stack."""
    r = inst._point(r)
    # Every row of a stack runs the matrix-vector kernel of a single point,
    # so each row of the result is bit-identical to the per-point call.
    return np.matmul(inst.A, r[..., None])[..., 0] + inst.b


@dataclass(frozen=True)
class SolutionCheck:
    """Outcome of the solution test with the H and F it tested.

    For one point ok is a bool and h and f are arrays of shape (n,).  For a
    stack of p points ok is a bool array of length p and h and f have shape
    (p, n); row k describes point k.
    """

    ok: bool | np.ndarray
    h: np.ndarray
    f: np.ndarray


def check_solution(inst: IcpInstance, r: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> SolutionCheck:
    """Test H >= -feas_tol, F >= -feas_tol and |H_i F_i| <= comp_tol per component.

    Complementarity is checked componentwise rather than through the inner
    product H^T F: the two are equivalent for exact nonnegative solutions, and
    the componentwise form cannot hide a violation behind sign cancellation.
    r is one point (n,) or a stack (p, n), tested row by row; a nan anywhere
    in a row fails it.
    """
    h = evaluate_H(inst, r)
    f = evaluate_F(inst, r)
    ok = (
        np.all(h >= -tol.feas_tol, axis=-1)
        & np.all(f >= -tol.feas_tol, axis=-1)
        & np.all(np.abs(h * f) <= tol.comp_tol, axis=-1)
    )
    return SolutionCheck(ok.item() if h.ndim == 1 else ok, h, f)


def is_solution(inst: IcpInstance, r: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool | np.ndarray:
    """Boolean view of check_solution: a bool for one point, a bool array for a stack."""
    return check_solution(inst, r, tol).ok
