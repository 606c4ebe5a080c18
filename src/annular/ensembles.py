"""The four ensembles and the checks of their sizes.

A module of its own so that the Monte Carlo route reads the ensemble
tags and dimension checks without importing the exact routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import _check_integer

__all__ = ["Ensemble"]


@dataclass(frozen=True)
class Ensemble:
    """One of the four ensembles, normalized to its upper-case tag."""

    kind: str

    def __post_init__(self):
        kind = self.kind.upper()
        kinds = ("GOE", "GUE", "LOE", "LUE")
        if kind not in kinds:
            raise ValueError(f"unknown ensemble {self.kind!r}; expected one of {', '.join(kinds)}")
        object.__setattr__(self, "kind", kind)

    @classmethod
    def parse(cls, value: "Ensemble | str") -> "Ensemble":
        if isinstance(value, Ensemble):
            return value
        return cls(str(value))

    @property
    def is_gaussian(self) -> bool:
        return self.kind in ("GOE", "GUE")

    @property
    def is_laguerre(self) -> bool:
        return self.kind in ("LOE", "LUE")

    @property
    def is_complex(self) -> bool:
        return self.kind in ("GUE", "LUE")

    def check_dimensions(self, n: int, N: int, M: int | None) -> None:
        """Raise ``ValueError`` unless n, N ≥ 1 and M ≥ 1 is given exactly when Laguerre."""
        _check_positive("moment order", n)
        _check_positive("dimension N", N)
        if self.is_laguerre:
            if M is None:
                raise ValueError(f"{self.kind} requires the rectangular dimension M")
            _check_positive("dimension M", M)
        elif M is not None:
            raise ValueError("M applies to the Laguerre ensembles only")


def _check_positive(name: str, value: int) -> None:
    if _check_integer(name, value) < 1:
        raise ValueError(f"{name} must be a positive integer")
