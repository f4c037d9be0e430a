"""Channel-access contention models.

The default is the paper's quadratic model ``G * n**2``.  The footnote in
Section 4.1 observes that other MAC delay models use higher powers of ``n`` or
an exponential function of ``n`` and that substituting them only biases the
comparison further towards SPMS; the :class:`PolynomialContention` and
:class:`ExponentialContention` variants exist to reproduce that ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class ContentionModel(ABC):
    """Maps the number of contending nodes to an expected access delay (ms).

    Contract: :meth:`access_delay_ms` must be a **pure function** of
    *contenders* — no internal state, clock or RNG dependence.  The
    network's link table keeps its value per (sender, power level, packet
    size) on the simulation's hottest path (``repro.core.network``), so a
    stateful plugin model would silently be evaluated once per link and
    frozen.
    Randomness belongs in the backoff (which is drawn fresh on every call),
    not in the contention model.
    """

    @abstractmethod
    def access_delay_ms(self, contenders: int) -> float:
        """Expected channel-access delay with *contenders* nodes in range.

        Must be pure (see the class contract): same *contenders*, same delay.
        """

    def _validate(self, contenders: int) -> None:
        if contenders < 0:
            raise ValueError(f"contenders must be non-negative, got {contenders}")


class QuadraticContention(ContentionModel):
    """The paper's model: ``T_csma = G * n**2``.

    Args:
        g: Proportionality constant (the paper's example uses ``G = 0.01``).
    """

    def __init__(self, g: float = 0.01) -> None:
        if g < 0:
            raise ValueError(f"G must be non-negative, got {g}")
        self.g = g

    def access_delay_ms(self, contenders: int) -> float:
        self._validate(contenders)
        return self.g * contenders**2


class PolynomialContention(ContentionModel):
    """Generalised polynomial model ``G * n**p`` used for ablations."""

    def __init__(self, g: float = 0.01, exponent: float = 2.0) -> None:
        if g < 0:
            raise ValueError(f"G must be non-negative, got {g}")
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        self.g = g
        self.exponent = exponent

    def access_delay_ms(self, contenders: int) -> float:
        self._validate(contenders)
        return self.g * contenders**self.exponent


class ExponentialContention(ContentionModel):
    """Exponential model ``G * (base**n - 1)`` — the harshest MAC assumption."""

    def __init__(self, g: float = 0.01, base: float = 1.2) -> None:
        if g < 0:
            raise ValueError(f"G must be non-negative, got {g}")
        if base <= 1.0:
            raise ValueError(f"base must exceed 1, got {base}")
        self.g = g
        self.base = base

    def access_delay_ms(self, contenders: int) -> float:
        self._validate(contenders)
        return self.g * (self.base**contenders - 1.0)
