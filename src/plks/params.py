"""Parameter algebra for the critical chemotaxis model with p-Laplacian diffusion.

The aggregation system couples a density rho driven by gradient-dependent
diffusion of exponent p with an attractant generated by rho^m.  Scale
invariance of the mass pins the nonlinearity to

    m = ((p - 2) N + p) / N,

and every other constant used by the solvers (similarity exponents, the
transformed-equation exponent q, the flux constant B, equilibrium heights)
derives from the triple (N, p, chi).  This module owns that arithmetic and the
regime split at p = 2, which is matched exactly: derived quantities that only
make sense away from p = 2 (q, B, u_star, lam) or only at p = 2 (u_star_log)
are absent in the other regime, and reading an absent one raises DomainError.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:     # annotations; numpy is imported where an array is read
    import numpy as np

__all__ = [
    "Regime",
    "ModelParams",
    "derive_params",
    "phi_of_u",
    "compact_support_admissible",
    "admissible_p_threshold",
]


class Regime(enum.Enum):
    """Diffusion regime, split exactly at p = 2."""

    SLOW = "slow"      # p > 2, degenerate diffusion, compact support
    LINEAR = "linear"  # p = 2, semilinear
    FAST = "fast"      # 2N/(N+1) < p < 2, singular diffusion


class ModelParams:
    """Validated parameter triple (N, p, chi) with all derived constants.

    Always present: m, alpha, beta, gamma (similarity exponents rho ~
    tau^-alpha, length ~ tau^beta, attractant ~ tau^gamma).  Present only for
    p != 2: q, B, u_star; only for p > 2: lam; only for p = 2: u_star_log.
    """

    __slots__ = ("N", "p", "chi", "m", "alpha", "beta", "gamma",
                 "_q", "_B", "_lam", "_u_star", "_u_star_log")

    def __init__(self, N: int, p: float, chi: float = 1.0):
        if not isinstance(N, (int,)) or isinstance(N, bool):
            raise DomainError(f"N must be an integer >= 1, got {N!r}")
        if N < 1:
            raise DomainError(f"N must be >= 1, got {N}")
        p = float(p)
        chi = float(chi)
        if not math.isfinite(p) or not math.isfinite(chi):
            raise DomainError("p and chi must be finite")
        p_floor = 2.0 * N / (N + 1.0)
        if p <= p_floor:
            raise DomainError(
                f"p must exceed 2N/(N+1) = {p_floor:.6g} for N = {N}, got {p}")
        if chi <= 0.0:
            raise DomainError(f"chi must be positive, got {chi}")

        self.N = N
        self.p = p
        self.chi = chi
        self.m = ((p - 2.0) * N + p) / N
        # m > 0 exactly when p > 2N/(N+1), so these are safe.
        self.alpha = 1.0 / self.m
        self.beta = 1.0 / (self.m * N)
        self.gamma = (2.0 - self.m * N) / (self.m * N)

        if p != 2.0:
            self._q = self.m * (p - 1.0) / (p - 2.0)
            self._B = abs((p - 1.0) / (p - 2.0)) ** (p - 1.0)
            try:
                self._u_star = (1.0 / (chi * self.m)) ** (1.0 / self._q)
            except OverflowError:
                raise DomainError(
                    f"equilibrium height u* = (1/(chi m))^(1/q) overflows a "
                    f"double: 1/(chi m) = {1.0 / (chi * self.m):.6g}, "
                    f"q = {self._q:.6g}") from None
            self._u_star_log = None
        else:
            self._q = None
            self._B = None
            self._u_star = None
            self._u_star_log = math.log(1.0 / (chi * self.m)) / self.m
        if p > 2.0:
            self._lam = (p - 1.0) * (self.m + 2.0 - p) / (p * (p - 2.0))
        else:
            self._lam = None

    def _require(self, value, name: str, when: str):
        if value is None:
            raise DomainError(
                f"{name} is only defined for {when} (p = {self.p}, N = {self.N})")
        return value

    @property
    def q(self) -> float:
        """Exponent of the transformed scalar equation, m(p-1)/(p-2)."""
        return self._require(self._q, "q", "p != 2")

    @property
    def B(self) -> float:
        """Flux constant |(p-1)/(p-2)|^(p-1) of the transformed equation."""
        return self._require(self._B, "B", "p != 2")

    @property
    def lam(self) -> float:
        """Rescaling exponent (p-1)(m+2-p)/(p(p-2)), slow regime only."""
        return self._require(self._lam, "lam", "p > 2")

    @property
    def u_star(self) -> float:
        """Equilibrium height (1/(chi m))^(1/q) of the transformed equation."""
        return self._require(self._u_star, "u_star", "p != 2")

    @property
    def u_star_log(self) -> float:
        """Equilibrium height ln(1/(chi m))/m of the p = 2 equation."""
        return self._require(self._u_star_log, "u_star_log", "p = 2")

    @property
    def regime(self) -> Regime:
        if self.p > 2.0:
            return Regime.SLOW
        if self.p == 2.0:
            return Regime.LINEAR
        return Regime.FAST

    def __repr__(self) -> str:
        return f"ModelParams(N={self.N}, p={self.p!r}, chi={self.chi!r})"


def derive_params(N: int, p: float, chi: float = 1.0) -> ModelParams:
    """Validate (N, p, chi) and compute every derived constant."""
    return ModelParams(N, p, chi)


def phi_of_u(params: ModelParams, u) -> np.ndarray:
    """Density profile phi of the transformed profile u, pointwise.

    phi = e^u at p = 2; elsewhere phi = u^((p-1)/(p-2)) where u > 0 and
    phi = 0 where u <= 0, the outside of the profile's support.
    """
    import numpy as np
    u = np.asarray(u, dtype=float)
    if params.p == 2.0:
        return np.exp(u)
    ex = (params.p - 1.0) / (params.p - 2.0)
    with np.errstate(over="ignore"):     # inf, reported as null
        return np.power(u, ex, out=np.zeros_like(u), where=u > 0.0)


def admissible_p_threshold(N: int) -> float:
    """Lower p threshold for ground-state existence in the slow regime.

    Comes from requiring q < Np/(N-p) - 1 alongside p > 2; for N <= 2 the
    threshold sits at or below 2 so p > 2 alone decides.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return (math.sqrt(5.0 * N * N + 2.0 * N + 1.0) + 3.0 * N + 1.0) / (2.0 * (N + 1.0))


def compact_support_admissible(N: int, p: float) -> bool:
    """True when the slow-regime shooting problem admits a vanishing profile.

    Equivalent to p > 2 together with q below the Sobolev-type ceiling
    Np/(N-p) - 1 (vacuous for p >= N); above the ceiling every trajectory
    stays positive and no compactly supported profile exists.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return p > 2.0 and p > admissible_p_threshold(N)
