"""Positive systems adapted to a Weyl involution.

Given a basis of the (-1)-eigenspace of an involution w, a positive
system is constructed by the last-nonzero-pairing rule: for i maximal
with (beta, v_i) != 0, beta is positive iff (beta, v_i) > 0; roots fixed
by w fall back to a freely chosen positive system on Psi.  With respect
to the result, w has maximal length in its conjugacy class.  The rule
runs on integers: each v_i becomes its pairings with the simple roots,
scaled by a positive integer, and a root pairs with it through its
integer simple-root coefficients.  `EigenBasisChoice` checks its basis
on the same pairings, against the integer matrix of w, and keeps them
for `positive_system`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .fields import QQ, _cleared
from .linalg import kernel, rank
from .rootsys import RootSystem, Vector, WeylElement, _dot, conjugacy_class


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
    #: `_integer_pairings` of each basis vector, in basis order
    _pairings: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        """Checks the basis on integers.  w acts as the identity off the
        root span, so w v = -v holds iff v lies in the span and
        (alpha_i, w v) = -(alpha_i, v) for every simple root.  For the
        involution w, (alpha_i, w v) = (w alpha_i, v) = sum_j M[j][i]
        (alpha_j, v) with M = `w.matrix`, so on the integer pairings t of
        v the test is t M = -t.  The pairing map is injective on the span,
        and each t is v's pairings times a positive integer, so the basis
        is independent iff the t are."""
        w = self.w
        if not w.is_involution():
            raise ValueError("w must be an involution")
        system = w.system
        cols = tuple(zip(*w.matrix))
        pairings = []
        for v in self.basis:
            t = _integer_pairings(system, v)
            if (len(v) != system.dim or not system.in_span(v)
                    or any(_dot(t, c) != -x for c, x in zip(cols, t))):
                raise ValueError(f"basis vector {v} is not in the (-1)-eigenspace")
            pairings.append(t)
        if rank(QQ, pairings) != len(pairings):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "_pairings", tuple(pairings))


@dataclass(frozen=True)
class PositiveSystem:
    """A positive system on a root system, as an explicit root set."""

    system: RootSystem
    positive: frozenset[Vector]
    #: the root indices of `positive`
    _indices: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = self.system.index
        object.__setattr__(self, "_indices",
                           frozenset(index[r] for r in self.positive))

    def length_of(self, w: WeylElement) -> int:
        pos, perm = self._indices, w.perm
        return sum(1 for k in pos if perm[k] not in pos)

    def inverted_roots(self, w: WeylElement) -> list[Vector]:
        pos, perm = self._indices, w.perm
        return [self.system.roots[k] for k in sorted(pos) if perm[k] not in pos]

    def simples(self) -> list[Vector]:
        return [self.system.roots[k]
                for k in self.system.indecomposables(self._indices)]

    def validate(self) -> None:
        sys, pos = self.system, self._indices
        for k, n in enumerate(sys.neg):
            if (k in pos) == (n in pos):
                raise AssertionError(
                    f"not exactly one of +-{sys.roots[k]} is positive")
        table = sys._sum_table
        for a in pos:
            row = table[a]
            for b in pos:
                s = row[b]
                if s >= 0 and s not in pos:
                    raise AssertionError(
                        f"positive set not closed: {sys.roots[a]} + {sys.roots[b]}")


def fixed_roots(w: WeylElement) -> list[Vector]:
    """Psi = roots lying in the fixed space of w."""
    return [r for k, r in enumerate(w.system.roots) if w.perm[k] == k]


def _integer_pairings(system: RootSystem, v: Vector) -> tuple[int, ...]:
    """The pairings (alpha_i, v) with the simple roots times L = 2 D, D the
    lcm of the denominators of v: the integers t_i = (2 alpha_i, D v)."""
    u = _cleared(v)[1]
    return tuple(_dot(t, u) for t in system._twice_simple)


def positive_system(choice: EigenBasisChoice) -> PositiveSystem:
    """Positive system from an eigenbasis, by the last-nonzero-pairing rule.

    A root beta = sum_i c_i alpha_i pairs with v as (beta, v) = sum_i c_i
    (alpha_i, v).  Each basis vector is replaced by its integer pairings
    t_i = L (alpha_i, v) with the simple roots (`_integer_pairings`, kept
    on the choice), so the rule reads the integer sum_i c_i t_i =
    L (beta, v).  Since L > 0, that integer is zero exactly when (beta, v)
    is, and has the same sign otherwise: every positive set,
    DegenerateBasisError and AssertionError is the one the rational
    pairings give.  L depends on v only, so each basis vector may have
    its own.
    """
    w = choice.w
    system = w.system
    psi = {k for k, j in enumerate(w.perm) if j == k}
    if choice.psi_positive is not None:
        # a vector that is no root maps to -1, which psi never contains
        psi_pos = {system.index.get(r, -1) for r in choice.psi_positive}
        if psi_pos | {system.neg[k] for k in psi_pos} != psi:
            raise ValueError("psi_positive must pick one of each +- pair in Psi")
    else:
        psi_pos = {k for k in psi if system._positive[k]}
    positive = set(psi_pos)
    # i maximal first
    pairings = choice._pairings[::-1]
    for k, c in enumerate(system._coeffs):
        if k in psi:
            continue
        for t in pairings:
            val = _dot(c, t)
            if val:
                break
        else:
            raise DegenerateBasisError(system.roots[k])
        if val > 0:
            positive.add(k)
    roots = system.roots
    out = PositiveSystem(system, frozenset([roots[k] for k in positive]))
    out.validate()
    # the defining property: the unfixed positives are exactly those inverted
    bad = [system.roots[k] for k in positive - psi if w.perm[k] in positive]
    if bad:
        raise AssertionError(f"construction violated w(Phi+ \\ Psi) < 0 on {bad}")
    return out


def check_max_length(w: WeylElement, system: PositiveSystem) -> bool:
    """True iff w has maximal length in its conjugacy class w.r.t. `system`."""
    lw = system.length_of(w)
    return all(system.length_of(x) <= lw for x in conjugacy_class(w))


def minus_one_eigenbasis(w: WeylElement) -> tuple[Vector, ...]:
    """A canonical rational basis of the (-1)-eigenspace of w: the kernel
    of 1 + w on ambient coordinates."""
    one_plus = tuple(tuple(x + (i == j) for j, x in enumerate(row))
                     for i, row in enumerate(w.ambient))
    return tuple(kernel(QQ, one_plus))
