"""The embedded catalog of spherical sheets and strata per simple type.

Everything here is citable data: which sheets of spherical classes exist,
their simple-root subsets Pi, expected component structure of the slice
intersection, smoothness verdicts, and the spherical-class marking used by
the finite-group oracle, a table from the shape of a class (its
`linalg.class_type` over the closure) to its tag.  Each `SheetDescriptor`
is the one source of its sheet's data: its Weyl element w_S = w0*w_Pi is
read from its Pi, for every type, and `catalog_sheet` finds a descriptor
by label.  The catalog is literal data, not re-derived; consistency with
the other modules is enforced by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .linalg import class_type
from .matgroups import GroupContext
from .rootsys import (
    _VALID,
    RootSystem,
    WeylElement,
    build_root_system,
    longest_element,
    w0_wPi,
)


@dataclass(frozen=True)
class SheetDescriptor:
    """One non-trivial sheet of spherical conjugacy classes."""

    group_type: str          # A B C D E
    rank: int
    label: str               # e.g. "S", "Sprime", "S1", "-S1", "S2", "R"
    semisimple_members: str  # eigenvalue pattern, human-readable
    unipotent_members: tuple[str, ...]
    isolated_members: tuple[str, ...]
    pi: tuple[int, ...]      # zero-based simple-root indices
    expected_components: int
    component_geometry: str  # "affine line", "graph surface", "cuspidal curve"
    sheet_smooth: bool
    stratum_id: str
    stratum_smooth: bool

    def weyl_system(self) -> RootSystem:
        return build_root_system(self.group_type, self.rank)

    def w_S(self) -> WeylElement:
        """w0*w_Pi, the same object on every call."""
        return self._w_S

    @cached_property
    def _w_S(self) -> WeylElement:
        """w0*w_Pi on first use; a theta-twisted sheet's must be the
        theta-image of its untwisted partner's."""
        system = self.weyl_system()
        w = w0_wPi(system, self.pi)
        if self.label in ("thetaS", "thetaR"):
            partner = catalog_sheet(self.group_type, self.rank,
                                    self.label.replace("theta", ""))
            if _theta_conjugate(system, partner.w_S()) != w:
                raise AssertionError("theta twist disagrees with its Pi data")
        return w


class CatalogError(ValueError):
    pass


def catalog_sheet(group_type: str, rank: int, label: str) -> SheetDescriptor:
    """The catalog sheet `label` of the given type and rank."""
    for d in sheet_catalog(group_type, rank):
        if d.label == label:
            return d
    raise CatalogError(f"no catalog sheet {label} in {group_type}{rank}")


def catalog_w_S(group_type: str, rank: int, label: str) -> WeylElement:
    return catalog_sheet(group_type, rank, label).w_S()


def _theta_conjugate(system: RootSystem, w: WeylElement) -> WeylElement:
    """Image of w under the order-2 graph automorphism of D_n.

    theta acts as conjugation by diag(1,..,1,-1) on the coordinate model.
    """
    n = system.rank

    def flip(v):
        return tuple(-x if i == n - 1 else x for i, x in enumerate(v))

    return system.element(lambda r: flip(w.apply_root(flip(r))))


def sheet_catalog(group_type: str, rank: int):
    """All non-trivial sheets of spherical classes for a simple type, as a
    new list of descriptors that are built once per process."""
    return list(_catalog(group_type.upper(), rank))


@lru_cache(maxsize=None)
def _catalog(group_type: str, rank: int) -> list:
    """The catalog of a simple type; CatalogError for a rank the catalog
    does not cover or a (type, rank) that names no simple type."""
    if group_type == "B":
        if rank < 2:
            raise CatalogError("type B requires rank >= 2")
        return _b_catalog(rank)
    if group_type == "C":
        if rank < 3:
            raise CatalogError(
                "type C catalog starts at rank 3; rank 2 is listed under B_2")
        return _c_catalog(rank)
    if group_type == "D":
        if rank < 4:
            raise CatalogError("type D requires rank >= 4")
        return _d_catalog(rank)
    if group_type not in _VALID or not _VALID[group_type](rank):
        raise CatalogError(
            f"({group_type}, {rank}) is not a valid simple type")
    if group_type == "A":
        return _a_catalog(rank)
    # E6 and E7 have sheets; E8, F4 and G2 none
    return _e_catalog(rank) if group_type == "E" else []


def _a_catalog(n: int):
    # The solver finds 2^(m-1) sign components; the quoted count (m-1)
    # disagrees and is not adopted.
    return [
        SheetDescriptor(
            group_type="A",
            rank=n,
            label=f"S_{m}",
            semisimple_members=(
                f"two eigenvalues with multiplicities ({n + 1 - m},{m})"
            ),
            unipotent_members=(f"(2^{m},1^{n + 1 - 2 * m})",),
            isolated_members=(),
            pi=tuple(range(m, n - m)),  # alpha_{m+1}, ..., alpha_{n-m}
            expected_components=2 ** (m - 1),
            component_geometry="graph surface (a,b) -> (a,b,a^2/b+b)",
            sheet_smooth=True,
            stratum_id=f"A{n}:S_{m}",
            stratum_smooth=True,
        )
        for m in range(1, (n + 1) // 2 + 1)
    ]


def _b_catalog(n: int):
    unip_S = f"(3,2^{n - 1})" if n % 2 == 1 else f"(3,2^{n - 2},1^2)"
    stratum_S = f"B{n}:unip(3,1^2)" if n == 2 else f"B{n}:S"
    stratum_Sp = f"B{n}:unip(3,1^2)" if n == 2 else f"B{n}:Sprime"
    return [
        SheetDescriptor(
            group_type="B",
            rank=n,
            label="S",
            semisimple_members="eigenvalues 1,l,1/l with multiplicities 1,n,n",
            unipotent_members=(unip_S,),
            isolated_members=(
                f"rho_n * unipotent (2^{n}) in SO_{2 * n}" if n % 2 == 0
                else f"rho_n * unipotent (2^{n - 1},1^2) in SO_{2 * n}",
            ),
            pi=(),
            expected_components=2 ** (2 * n - 1),
            component_geometry="affine line",
            sheet_smooth=True,
            stratum_id=stratum_S,
            stratum_smooth=n != 2,
        ),
        SheetDescriptor(
            group_type="B",
            rank=n,
            label="Sprime",
            semisimple_members=(
                "eigenvalues 1,l,1/l with multiplicities 2n-1,1,1"),
            unipotent_members=(f"(3,1^{2 * n - 2})",),
            isolated_members=(),
            pi=tuple(range(2, n)),
            expected_components=4,
            component_geometry="affine line",
            sheet_smooth=True,
            stratum_id=stratum_Sp,
            stratum_smooth=n != 2,
        ),
    ]


def _c_catalog(n: int):
    common = dict(group_type="C", rank=n)
    out = []
    for label, sign in (("S1", "+"), ("-S1", "-")):
        out.append(
            SheetDescriptor(
                **common,
                label=label,
                semisimple_members=(
                    f"{sign}(eigenvalues l,1/l,1 with multiplicities 1,1,2n-2)"),
                unipotent_members=(f"{sign}(2^2,1^{2 * n - 4})",),
                isolated_members=(f"{sign}sigma_1 x_beta(1)",),
                pi=tuple(range(2, n)),
                expected_components=4,
                component_geometry="affine line",
                sheet_smooth=True,
                stratum_id=f"C{n}:{label}",
                stratum_smooth=True,
            )
        )
    out.append(
        SheetDescriptor(
            **common,
            label="S2",
            semisimple_members="eigenvalues l,1/l with multiplicities n,n",
            unipotent_members=(f"+-(2^{n})",),
            isolated_members=(),
            pi=(),
            expected_components=2 ** n,
            component_geometry="affine line",
            sheet_smooth=True,
            stratum_id=f"C{n}:S2",
            stratum_smooth=True,
        )
    )
    return out


def _d_catalog(n: int):
    common = dict(group_type="D", rank=n)
    out = []
    if n % 2 == 0:
        h = n // 2
        # theta swaps the two fork roots alpha_{n-1} <-> alpha_n
        for label, pi in (("S", tuple(range(0, n, 2))),
                          ("thetaS", tuple(range(0, n - 2, 2)) + (n - 1,))):
            out.append(
                SheetDescriptor(
                    **common,
                    label=label,
                    semisimple_members=(
                        "eigenvalues l,1/l with multiplicities n,n"
                        + (" (theta-twisted)" if label == "thetaS" else "")),
                    unipotent_members=(
                        f"+-(2^{n}){'_II' if label == 'thetaS' else '_I'}",),
                    isolated_members=(),
                    pi=pi,
                    expected_components=2 ** h,
                    component_geometry="affine line",
                    sheet_smooth=True,
                    stratum_id=f"D{n}:{label}",
                    stratum_smooth=True,
                )
            )
    else:
        h = (n - 1) // 2
        for label in ("R", "thetaR"):
            out.append(
                SheetDescriptor(
                    **common,
                    label=label,
                    semisimple_members=(
                        "eigenvalues l,1/l with multiplicities n,n"
                        + (" (theta-twisted)" if label == "thetaR" else "")),
                    unipotent_members=(f"+-(2^{n - 1},1^2)",),
                    isolated_members=(),
                    pi=tuple(range(0, n - 2, 2)),
                    expected_components=2 ** h,
                    component_geometry="affine line (coordinate zeta in k^*)",
                    sheet_smooth=True,
                    stratum_id=f"D{n}:R-thetaR",
                    stratum_smooth=False,
                )
            )
    out.append(
        SheetDescriptor(
            **common,
            label="Sprime",
            semisimple_members=(
                "eigenvalues 1,l,1/l with multiplicities 2n-2,1,1"),
            unipotent_members=(f"(3,1^{2 * n - 3})",),
            isolated_members=(),
            pi=tuple(range(2, n)),
            expected_components=4,
            component_geometry="affine line",
            sheet_smooth=True,
            stratum_id=f"D{n}:Sprime",
            stratum_smooth=True,
        )
    )
    return out


def _e_catalog(rank: int):
    if rank == 6:
        return [
            SheetDescriptor(
                group_type="E",
                rank=6,
                label="S",
                semisimple_members="torus family p_{2,a}, a^3 != 0,1",
                unipotent_members=("2A_1 (times the centre)",),
                isolated_members=(),
                pi=(2, 3, 4),
                expected_components=2,
                component_geometry="cuspidal curve image x^3=y^2",
                sheet_smooth=True,
                stratum_id="E6:S",
                stratum_smooth=True,
            )
        ]
    if rank == 7:
        return [
            SheetDescriptor(
                group_type="E",
                rank=7,
                label="S",
                semisimple_members="torus family q_{3,a}, a^2 != 0,1",
                unipotent_members=("3A_1'' (times the centre)",),
                isolated_members=(),
                pi=(1, 2, 3, 4),
                expected_components=8,
                component_geometry="affine line (coordinate a+1/a)",
                sheet_smooth=True,
                stratum_id="E7:S",
                stratum_smooth=True,
            )
        ]
    return []


@dataclass(frozen=True)
class SmoothnessVerdict:
    smooth: bool
    reason: str
    witness: Optional[str] = None


def smoothness_verdict(group_type: str, rank: int, stratum_id: str) -> SmoothnessVerdict:
    """Smooth/singular verdict for a stratum of spherical classes.

    Sheets themselves are always smooth; only two stratum families are not.
    """
    group_type = group_type.upper()
    if group_type == "C" and rank == 2:
        # same group as B_2 under the exceptional isogeny
        return SmoothnessVerdict(
            smooth=False,
            reason=(
                "stratum of the unipotent class (2^2); equivalently the B_2 "
                "stratum of (3,1^2)"),
            witness="shared class of S and S' under the B2=C2 identification",
        )
    descriptors = sheet_catalog(group_type, rank)
    matching = [d for d in descriptors if d.stratum_id == stratum_id]
    if not matching:
        raise CatalogError(f"unknown stratum {stratum_id} for {group_type}{rank}")
    d = matching[0]
    if d.stratum_smooth:
        return SmoothnessVerdict(True, "all sheets in the stratum are smooth "
                                       "and pairwise disjoint")
    if group_type == "B" and rank == 2:
        return SmoothnessVerdict(
            False,
            "S and S' intersect in the unipotent class (3,1^2)",
            witness="(3,1^2), equivalently (2^2) in the C_2 picture",
        )
    if group_type == "D":
        n = rank
        return SmoothnessVerdict(
            False,
            "R and theta(R) intersect in the sign-twisted unipotent classes",
            witness=f"+-(2^{n - 1},1^2) shared by R and theta(R)",
        )
    raise CatalogError(f"no verdict rule for {stratum_id}")


# -- spherical-class marking for the oracle groups --------------------------

@dataclass(frozen=True)
class SphericalTag:
    tag: str
    dim: int
    sheet: Optional[str]          # catalog sheet label when the class sits in one
    w_class: Optional[str]        # "w0" | "long-root-reflection" | "identity"


# A class's shape: per eigenvalue over the closure its Jordan partition, off
# `class_type`, marked + or - at +1 or -1 and o elsewhere (unmarked for SL);
# Sp4 up to g ~ -g.  A shape not listed is not spherical.
_B2, _LONG = "B2-sheet", "long-root-reflection"
_SHAPES = {
    ("SL", 1): [
        ("(1,1)", "central", 0, None, "identity"),
        ("(2)", "unipotent(2) up to centre", 2, "S_1", "w0"),
        ("(1) (1)", "regular semisimple", 2, "S_1", "w0"),
    ],
    ("SL", 2): [
        ("(1,1,1)", "central", 0, None, "identity"),
        ("(2,1)", "unipotent(2,1) up to centre", 4, "S_1", "w0"),
        ("(1,1) (1)", "semisimple, two eigenvalues", 4, "S_1", "w0"),
    ],
    ("Sp", 2): [
        ("+(1,1,1,1)", "central", 0, None, "identity"),
        ("+(2,1,1)", "transvection (2,1^2) up to centre", 4, None, _LONG),
        ("+(2,2)", "unipotent (2^2) up to centre", 6, _B2, "w0"),
        ("+(1,1) -(1,1)", "involution diag(-1,-1,1,1)", 4, None, None),
        ("o(1,1) o(1,1)", "semisimple (l,l,1/l,1/l)", 6, _B2, "w0"),
        ("+(1,1) o(1) o(1)", "semisimple (1,1,l,1/l) up to centre", 6, _B2, "w0"),
        ("+(2) -(1,1)", "mixed sigma * x_beta(1) up to centre", 6, _B2, "w0"),
    ],
    ("SO-odd", 2): [
        ("+(1,1,1,1,1)", "identity", 0, None, "identity"),
        ("+(2,2,1)", "unipotent (2^2,1)", 4, None, _LONG),
        ("+(3,1,1)", "unipotent (3,1^2)", 6, "S and Sprime", "w0"),
        ("+(1) -(1,1,1,1)", "involution rho (1,-1^4)", 4, None, None),
        ("+(1,1,1) -(1,1)", "involution (1^3,-1^2)", 6, "Sprime", "w0"),
        ("+(1) o(1,1) o(1,1)", "semisimple (1,l^2,1/l^2)", 6, "S", "w0"),
        ("+(1,1,1) o(1) o(1)", "semisimple (1^3,l,1/l)", 6, "Sprime", "w0"),
        ("+(1) -(2,2)", "mixed rho * (2^2)", 6, "S", "w0"),
    ],
}


def _shape(label: str, tokens) -> str:
    """The tokens sorted and joined; for Sp the lesser of g's and -g's."""
    shape = " ".join(sorted(tokens))
    if label == "Sp":
        flipped = shape.translate(str.maketrans("+-", "-+"))
        shape = min(shape, " ".join(sorted(flipped.split())))
    return shape


_SPHERICAL = {group: {_shape(group[0], shape.split()): SphericalTag(*tag)
                      for shape, *tag in rows}
              for group, rows in _SHAPES.items()}


def classify_spherical(ctx: GroupContext, field, g) -> Optional[SphericalTag]:
    """Spherical marking of a conjugacy class member: the tag of its
    shape, or None for a non-spherical class.  Only the oracle groups
    (SL2, SL3, Sp4, SO5) are catalogued."""
    tags = _SPHERICAL.get((ctx.label, ctx.rank))
    if tags is None:
        raise CatalogError(f"no spherical marking for {ctx.label} rank {ctx.rank}")
    signs = {field.neg(field.one): "-", field.one: "+"}
    tokens = []
    for p, parts in class_type(field, g):
        d = len(p) - 1
        mark = "o" if d > 1 else signs.get(field.neg(p[0]), "o")
        tokens += [("" if ctx.label == "SL" else mark)
                   + f"({','.join(map(str, parts))})"] * d
    return tags.get(_shape(ctx.label, tokens))


def expected_w_element(system: RootSystem, w_class: str) -> WeylElement:
    """Concrete Weyl element for a marking's expected-w description."""
    if w_class == "identity":
        return system.identity_element()
    if w_class == "w0":
        return longest_element(system, range(system.rank))
    if w_class == "long-root-reflection":
        return system.reflection(system.highest_root())
    raise CatalogError(f"unknown w-class {w_class!r}")
