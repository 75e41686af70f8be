"""Positive systems adapted to a Weyl involution.

Given a basis of the (-1)-eigenspace of an involution w, a positive
system is constructed by the last-nonzero-pairing rule: for i maximal
with (beta, v_i) != 0, beta is positive iff (beta, v_i) > 0; roots fixed
by w fall back to a freely chosen positive system on Psi.  With respect
to the result, w has maximal length in its conjugacy class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fields import QQ
from .linalg import kernel, rank
from .rootsys import RootSystem, Vector, WeylElement, conjugacy_class, dot


class DegenerateBasisError(ValueError):
    """Some root outside Psi pairs to zero with every basis vector."""

    def __init__(self, root: Vector):
        self.root = root
        super().__init__(
            f"root {tuple(str(x) for x in root)} is orthogonal to every v_i "
            "but is not fixed by w"
        )


@dataclass(frozen=True)
class EigenBasisChoice:
    """An ordered basis of the (-1)-eigenspace of an involution.

    `psi_positive` optionally fixes the free positive choice on
    Psi = {roots fixed by w}; default is the standard-system trace.
    """

    w: WeylElement
    basis: tuple[Vector, ...]
    psi_positive: Optional[frozenset[Vector]] = None

    def __post_init__(self):
        if not self.w.is_involution():
            raise ValueError("w must be an involution")
        for v in self.basis:
            img = self.w.apply_vector(v)
            if img != tuple(-x for x in v):
                raise ValueError(f"basis vector {v} is not in the (-1)-eigenspace")
        if rank(QQ, self.basis) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")


@dataclass(frozen=True)
class PositiveSystem:
    """A positive system on a root system, as an explicit root set."""

    system: RootSystem
    positive: frozenset[Vector]

    def is_positive(self, root: Vector) -> bool:
        return root in self.positive

    def length_of(self, w: WeylElement) -> int:
        return sum(1 for r in self.positive if w.apply_root(r) not in self.positive)

    def inverted_roots(self, w: WeylElement) -> list[Vector]:
        return [r for r in self.positive if w.apply_root(r) not in self.positive]

    def simples(self) -> list[Vector]:
        pos = self.positive
        out = []
        for r in pos:
            if not any(
                tuple(a - b for a, b in zip(r, s)) in pos for s in pos if s != r
            ):
                out.append(r)
        return sorted(out)

    def validate(self) -> None:
        roots = set(self.system.roots)
        for r in roots:
            neg = tuple(-x for x in r)
            if (r in self.positive) == (neg in self.positive):
                raise AssertionError(f"not exactly one of +-{r} is positive")
        for a in self.positive:
            for b in self.positive:
                s = tuple(x + y for x, y in zip(a, b))
                if s in roots and s not in self.positive:
                    raise AssertionError(f"positive set not closed: {a} + {b}")


def fixed_roots(w: WeylElement) -> list[Vector]:
    """Psi = roots lying in the fixed space of w."""
    return [r for r in w.system.roots if w.apply_root(r) == r]


def standard_system(system: RootSystem) -> PositiveSystem:
    return PositiveSystem(system, frozenset(system.positive_roots))


def positive_system(choice: EigenBasisChoice) -> PositiveSystem:
    """Positive system from an eigenbasis, by the last-nonzero-pairing rule."""
    system = choice.w.system
    psi = set(fixed_roots(choice.w))
    if choice.psi_positive is not None:
        psi_pos = set(choice.psi_positive)
        if psi_pos | {tuple(-x for x in r) for r in psi_pos} != psi:
            raise ValueError("psi_positive must pick one of each +- pair in Psi")
    else:
        psi_pos = {r for r in psi if system.is_positive_root(r)}
    positive = set(psi_pos)
    for beta in system.roots:
        if beta in psi:
            continue
        val = None
        for v in reversed(choice.basis):  # i maximal first
            pairing = dot(beta, v)
            if pairing != 0:
                val = pairing
                break
        if val is None:
            raise DegenerateBasisError(beta)
        if val > 0:
            positive.add(beta)
    out = PositiveSystem(system, frozenset(positive))
    out.validate()
    # the defining property: the unfixed positives are exactly those inverted
    bad = {
        r for r in out.positive - psi
        if choice.w.apply_root(r) in out.positive
    }
    if bad:
        raise AssertionError(f"construction violated w(Phi+ \\ Psi) < 0 on {bad}")
    return out


def check_max_length(w: WeylElement, system: PositiveSystem) -> bool:
    """True iff w has maximal length in its conjugacy class w.r.t. `system`."""
    lw = system.length_of(w)
    return all(system.length_of(x) <= lw for x in conjugacy_class(w))


def minus_one_eigenbasis(w: WeylElement) -> tuple[Vector, ...]:
    """A canonical rational basis of the (-1)-eigenspace of w."""
    sys = w.system
    dim = sys.dim
    # rows of (1 + action) on ambient coordinates; kernel = (-1)-eigenspace
    cols = []
    for i in range(dim):
        e = tuple(Fraction(int(j == i)) for j in range(dim))
        img = w.apply_vector(e)
        cols.append(tuple(x + y for x, y in zip(e, img)))
    return tuple(kernel(QQ, tuple(zip(*cols))))
