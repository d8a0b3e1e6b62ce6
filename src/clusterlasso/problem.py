"""Problem container shared by every solver."""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import DesignMatrix
from .prox import Penalties


@dataclass
class ProblemData:
    """Least-squares data plus penalty levels.

    penalties may be left None while assembling a problem (e.g. right after
    synthetic generation, before the levels are derived from A and b); the
    solver entry points reject it.  offset, added to both objectives, is
    the part of 1/2||Ax - b||^2 an equivalent smaller problem leaves out.
    """

    A: DesignMatrix
    b: np.ndarray
    penalties: Optional[Penalties] = None
    offset: float = 0.0

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        if self.b.shape[0] != self.A.m:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.A.m}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def n(self) -> int:
        return self.A.n

    def with_penalties(self, pen: Penalties) -> "ProblemData":
        return replace(self, penalties=pen)

    def require_penalties(self) -> Penalties:
        if self.penalties is None:
            raise ValueError("problem has no penalty levels set")
        if self.penalties.beta == 0.0 and self.penalties.rho == 0.0:
            raise ValueError("at least one of beta, rho must be positive")
        return self.penalties
