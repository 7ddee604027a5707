"""Per-component work accounting.

One epoch is n component queries. A full gradient charges n, a Hessian build
charges its sample size once (component curvatures are scalars cached at
build time, so later operator applications are free), and function values
charge nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EpochLedger:
    n: int
    component_gradient_queries: int = 0
    component_hessian_queries: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def add_gradient_pass(self, count: int | None = None) -> None:
        count = self.n if count is None else count
        if count < 0:
            raise ValueError("count must be >= 0")
        self.component_gradient_queries += count

    def add_hessian_build(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        self.component_hessian_queries += size

    @property
    def epochs(self) -> float:
        return (self.component_gradient_queries + self.component_hessian_queries) / self.n
