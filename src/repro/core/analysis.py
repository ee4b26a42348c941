"""Closed-form implementations of the paper's theoretical results.

* **Theorem 1** -- capacity scalability: the maximum total raw file size
  storable, as the minimum of a capacity-driven and a value-driven bound.
* **Theorem 2** -- collision probability: an upper bound on the probability
  that any sector's free capacity drops below 1/8 of its capacity when all
  files have equal size.
* **Theorem 3** -- robustness: a high-probability upper bound on the ratio
  of lost file value when an adversary corrupts a ``lambda`` fraction of
  capacity.
* **Theorem 4** -- deposit ratio: the deposit ratio sufficient for full
  compensation with probability at least ``1 - c``.

Every function mirrors the paper's notation so the benchmark output can be
compared line-by-line with Section V; the Monte-Carlo scenarios in
:mod:`repro.scenarios` check the simulated system against these bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "FilePopulation",
    "scalability_r1",
    "scalability_r2",
    "theorem1_max_storable_size",
    "theorem2_collision_probability_bound",
    "theorem3_loss_ratio_bound",
    "theorem4_deposit_ratio_bound",
    "expected_file_loss_probability",
    "expected_lost_value_fraction",
]


@dataclass(frozen=True)
class FilePopulation:
    """Summary statistics of a set of files, the inputs to Theorem 1.

    ``sizes`` and ``values`` are parallel sequences; values are in units of
    ``min_value``.
    """

    sizes: Tuple[int, ...]
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.values):
            raise ValueError("sizes and values must have equal length")
        if any(s <= 0 for s in self.sizes) or any(v <= 0 for v in self.values):
            raise ValueError("sizes and values must be positive")

    @property
    def total_size(self) -> int:
        """Sum of file sizes."""
        return sum(self.sizes)

    @property
    def total_value(self) -> int:
        """Sum of file values (in units of ``min_value``)."""
        return sum(self.values)

    @property
    def size_value_product(self) -> int:
        """``sum_f f.size * f.value``."""
        return sum(s * v for s, v in zip(self.sizes, self.values))


# ----------------------------------------------------------------------
# Theorem 1 -- capacity scalability
# ----------------------------------------------------------------------
def scalability_r1(population: FilePopulation, min_value: int = 1) -> float:
    """``r1 = sum(size*value) / (minValue * sum(size))`` (eq. 1)."""
    if population.total_size == 0:
        raise ValueError("population must contain at least one file")
    return population.size_value_product / (min_value * population.total_size)


def scalability_r2(
    population: FilePopulation,
    min_capacity: int,
    cap_para: float,
    min_value: int = 1,
) -> float:
    """``r2 = minCapacity * sum(value) / (minValue * sum(size) * capPara)`` (eq. 2)."""
    if population.total_size == 0:
        raise ValueError("population must contain at least one file")
    return (min_capacity * population.total_value) / (
        min_value * population.total_size * cap_para
    )


def theorem1_max_storable_size(
    ns: float,
    min_capacity: int,
    k: int,
    r1: float,
    r2: float,
) -> float:
    """Theorem 1: maximum total raw file size storable in FileInsurer.

    ``min{ Ns*minCapacity / (2*r1*k), Ns*minCapacity / r2 }``.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("r1 and r2 must be positive")
    total_capacity = ns * min_capacity
    return min(total_capacity / (2.0 * r1 * k), total_capacity / r2)


# ----------------------------------------------------------------------
# Theorem 2 -- collision probability
# ----------------------------------------------------------------------
def theorem2_collision_probability_bound(
    ns: float, sector_capacity: int, file_size: int
) -> float:
    """Theorem 2 upper bound on ``Pr[exists s: freeCap <= capacity/8]``.

    ``Ns * exp(-0.144 * capacity / file_size)`` for equal-size files under
    the redundant-capacity assumption.
    """
    if sector_capacity <= 0 or file_size <= 0:
        raise ValueError("sector_capacity and file_size must be positive")
    exponent = -0.144 * sector_capacity / file_size
    # Guard against overflow for tiny exponents; math.exp underflows to 0.0
    # gracefully for exponents below ~-745.
    try:
        tail = math.exp(exponent)
    except OverflowError:  # pragma: no cover - cannot happen for negative exponent
        tail = 0.0
    return ns * tail


# ----------------------------------------------------------------------
# Theorem 3 -- robustness
# ----------------------------------------------------------------------
def theorem3_loss_ratio_bound(
    lam: float,
    k: int,
    ns: float,
    cap_para: float,
    gamma_m_v: float,
    security_c: float = 1e-18,
) -> float:
    """Theorem 3: high-probability bound on ``gamma_lost``.

    ``max{ 5*lambda^k, lambda^(k/2),
           4*(log(e/2pi) - log(c))/Ns - log(lambda^lambda (1-lambda)^(1-lambda))
           / (gamma_m_v * k * log(1/lambda) * capPara) }``

    All logarithms are natural logs, matching the proof in Appendix C.
    """
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    if k <= 0 or ns <= 0 or cap_para <= 0 or gamma_m_v <= 0:
        raise ValueError("k, Ns, capPara and gamma_m_v must be positive")
    if not 0 < security_c < 1:
        raise ValueError("security_c must lie in (0, 1)")

    term1 = 5.0 * lam**k
    term2 = lam ** (k / 2.0)
    entropy = lam * math.log(lam) + (1.0 - lam) * math.log(1.0 - lam)
    numerator = 4.0 * ((math.log(math.e / (2.0 * math.pi)) - math.log(security_c)) / ns - entropy)
    denominator = gamma_m_v * k * math.log(1.0 / lam) * cap_para
    term3 = numerator / denominator
    return max(term1, term2, term3)


# ----------------------------------------------------------------------
# Theorem 4 -- deposit ratio
# ----------------------------------------------------------------------
def theorem4_deposit_ratio_bound(
    lam: float,
    k: int,
    ns: float,
    cap_para: float,
    security_c: float = 1e-18,
) -> float:
    """Theorem 4: deposit ratio sufficient for full compensation.

    ``max{ 5*lambda^(k-1), lambda^(k/2 - 1),
           (4 / (k*capPara)) * ( log(Ns)/log(1/lambda) + log(1/c)/log(Ns) ) }``
    """
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    if k <= 0 or ns <= 1 or cap_para <= 0:
        raise ValueError("k and capPara must be positive and Ns > 1")
    if not 0 < security_c < 1:
        raise ValueError("security_c must lie in (0, 1)")

    term1 = 5.0 * lam ** (k - 1)
    term2 = lam ** (k / 2.0 - 1.0)
    term3 = (4.0 / (k * cap_para)) * (
        math.log(ns) / math.log(1.0 / lam) + math.log(1.0 / security_c) / math.log(ns)
    )
    return max(term1, term2, term3)


# ----------------------------------------------------------------------
# Expectation helpers used by the Monte-Carlo experiments
# ----------------------------------------------------------------------
def expected_file_loss_probability(lam: float, k: int) -> float:
    """Probability a file with ``k`` i.i.d. replica locations is lost.

    Under storage randomness each replica lands in corrupted capacity with
    probability ``lambda`` independently, so the file is lost with
    probability ``lambda^k`` -- the quantity the robustness proof builds on.
    """
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    if k <= 0:
        raise ValueError("k must be positive")
    return lam**k


def expected_lost_value_fraction(lam: float, k: int) -> float:
    """Expected fraction of total value lost (equal-value files)."""
    return expected_file_loss_probability(lam, k)
