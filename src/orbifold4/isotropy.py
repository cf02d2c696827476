"""Combinatorial data model of a symplectic 4-orbifold's isotropy locus.

A spec records the base space's Betti numbers, the isolated isotropy points,
the isotropy surfaces, and the corner points where surfaces meet, each point
carrying its finite unitary isotropy group.  Validation enforces the
stratum trichotomy; `delta_set` extracts the points whose reflection quotient
is nontrivial (the ones contributing exceptional cohomology beyond surfaces).
`spec_from_json` builds a spec from the JSON value of a spec file, which the
CLI reads; a spec's integers follow the package's one rule (`is_int`).
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import is_int
from .cyclotomic import CyclotomicScalar
from .unitary import UMat2
from .groups import (DEFAULT_MAX_ORDER, NotFiniteWithinBound, UnitaryGroup, builtin_group,
                     generate_group, group_from_json, stratum_class)

PROVENANCE = ("asserted", "computed", "user-asserted", "user-default")


IsolatedPoint = namedtuple("IsolatedPoint", "label group")
# m is the order of the transverse cyclic isotropy
Surface = namedtuple("Surface", "label genus m compact", defaults=(True,))
CornerPoint = namedtuple("CornerPoint", "label group incident_surfaces")
# betti_provenance holds one flag per Betti entry, each "asserted" by default
OrbifoldSpec = namedtuple(
    "OrbifoldSpec",
    "base_betti isolated_points surfaces corner_points betti_provenance name",
    defaults=((), (), (), ("asserted",) * 5, ""))
ValidationReport = namedtuple("ValidationReport", "valid structural_errors semantic_errors")


def _is_labels(x) -> bool:
    return isinstance(x, tuple) and all(isinstance(s, str) for s in x)


def validate_spec(spec: OrbifoldSpec) -> ValidationReport:
    structural: list[str] = []
    semantic: list[str] = []

    # a label is a string: any other JSON value is refused, and left out of
    # the duplicate check, where a list would not hash
    seen: set[str] = set()
    for kind, items in (("isolated point", spec.isolated_points), ("surface", spec.surfaces),
                        ("corner point", spec.corner_points)):
        for i, lbl in enumerate(x.label for x in items):
            if not isinstance(lbl, str):
                structural.append(f"{kind} {i}: label {json.dumps(lbl)} is not a string")
                continue
            if lbl in seen:
                structural.append(f"duplicate label {lbl!r}")
            seen.add(lbl)
    surface_labels = {s.label for s in spec.surfaces if isinstance(s.label, str)}
    for c in spec.corner_points:
        if not _is_labels(c.incident_surfaces):
            structural.append(
                f"corner {c.label!r}: incident_surfaces must be a list of surface labels")
            continue
        for s in c.incident_surfaces:
            if s not in surface_labels:
                structural.append(f"corner {c.label!r} references unknown surface {s!r}")
    if len(spec.base_betti) != 5 or not all(is_int(b) and b >= 0 for b in spec.base_betti):
        structural.append("base_betti must be five nonnegative integers")
    if len(spec.betti_provenance) != 5 or any(p not in PROVENANCE for p in spec.betti_provenance):
        structural.append("betti_provenance must be five known flags")

    for s in spec.surfaces:
        if not is_int(s.m):
            semantic.append(f"surface {s.label!r}: transverse isotropy order {s.m!r} is not an integer")
        elif s.m < 2:
            semantic.append(f"surface {s.label!r}: transverse isotropy order {s.m} < 2")
        if not (is_int(s.genus) and s.genus >= 0):
            semantic.append(f"surface {s.label!r}: genus {s.genus!r} is not a nonnegative integer")
        if not isinstance(s.compact, bool):
            semantic.append(f"surface {s.label!r}: compact {s.compact!r} is not a boolean")
        elif not s.compact:
            semantic.append(f"surface {s.label!r}: closure not compact")
    for p in spec.isolated_points:
        cls = stratum_class(p.group)
        if cls != "Sigma0":
            semantic.append(f"isolated point {p.label!r}: group classifies as {cls}, not Sigma0")
    for c in spec.corner_points:
        cls = stratum_class(c.group)
        if cls != "Sigma1":
            semantic.append(f"corner point {c.label!r}: group classifies as {cls}, not Sigma1")
        if not _is_labels(c.incident_surfaces):
            continue
        lines = {k.fixed_line for k in c.group.classes if k.kind == "reflection"}
        needed = len(set(c.incident_surfaces))
        if len(lines) < needed:
            semantic.append(
                f"corner point {c.label!r}: {len(lines)} reflection lines < {needed} incident surfaces"
            )
    return ValidationReport(not structural and not semantic, structural, semantic)


DeltaSet = namedtuple("DeltaSet", "labels")


def delta_set(spec: OrbifoldSpec) -> DeltaSet:
    """Labels of corner points whose reflection quotient is nontrivial.

    Isolated points have trivial reflection subgroup and always contribute to
    the resolved cohomology; they are tracked separately, not in Delta.
    """
    out = []
    for c in spec.corner_points:
        if c.group.gamma_prime.order > 1:
            out.append(c.label)
    return DeltaSet(tuple(out))


# -- built-in specs ------------------------------------------------------


def builtin_mapping_torus() -> OrbifoldSpec:
    """Quotient of (mapping torus of a genus-2 surface) x S^1 by two
    commuting involutions: five isolated points with central isotropy and
    four corner points with Klein-four isotropy on three surfaces."""
    minus = builtin_group("minus_identity")
    klein = builtin_group("klein_four")
    surfaces = [
        Surface("S_phi", genus=0, m=2),
        Surface("S_xi_1", genus=1, m=2),
        Surface("S_xi_2", genus=1, m=2),
    ]
    isolated = [IsolatedPoint(lbl, minus) for lbl in ("C1", "D1", "E1", "F1", "G1")]
    corners = [
        CornerPoint("A0", klein, ("S_phi", "S_xi_1")),
        CornerPoint("B0", klein, ("S_phi", "S_xi_1")),
        CornerPoint("A1", klein, ("S_phi", "S_xi_2")),
        CornerPoint("B1", klein, ("S_phi", "S_xi_2")),
    ]
    return OrbifoldSpec(
        base_betti=(1, 0, 2, 0, 1),
        isolated_points=isolated,
        surfaces=surfaces,
        corner_points=corners,
        betti_provenance=("asserted", "asserted", "asserted", "user-default", "asserted"),
        name="mapping_torus",
    )


def _refuse_past_max_order(order: int) -> None:
    """The closure's refusal of a corner group of known order past
    DEFAULT_MAX_ORDER, raised before any of its scalars is built: a scalar
    of conductor m costs time linear in m."""
    if order > DEFAULT_MAX_ORDER:
        raise NotFiniteWithinBound(f"closure exceeds max_order={DEFAULT_MAX_ORDER}")


def _cyclic_pair_group(m: int, mp: int) -> UnitaryGroup:
    """C_m x C_m', of order m m'."""
    _refuse_past_max_order(m * mp)
    one = CyclotomicScalar.one()
    return generate_group([
        UMat2.diagonal(CyclotomicScalar.zeta(m), one),
        UMat2.diagonal(one, CyclotomicScalar.zeta(mp)),
    ])


def _swap_corner_group(m: int) -> UnitaryGroup:
    """(C_m x C_m) extended by the factor swap, of order 2 m^2."""
    _refuse_past_max_order(2 * m * m)
    one = CyclotomicScalar.one()
    zero = CyclotomicScalar.zero()
    swap = UMat2([[zero, one], [one, zero]])
    return generate_group([
        UMat2.diagonal(CyclotomicScalar.zeta(m), one),
        UMat2.diagonal(one, CyclotomicScalar.zeta(m)),
        swap,
    ])


def builtin_product(cone_points_S: list[int], cone_points_S2: list[int] | None = None,
                    symmetric: bool = False) -> OrbifoldSpec:
    """Product of two spherical 2-orbifolds with cone points, optionally
    quotiented by the factor swap (which requires equal factors)."""
    if any(m < 2 for m in cone_points_S) or any(m < 2 for m in (cone_points_S2 or [])):
        raise ValueError("cone point orders must be >= 2")
    if not symmetric:
        if cone_points_S2 is None:
            cone_points_S2 = []
        surfaces = [Surface(f"P{j}xS2", genus=0, m=m) for j, m in enumerate(cone_points_S, 1)]
        surfaces += [Surface(f"S1xQ{k}", genus=0, m=m) for k, m in enumerate(cone_points_S2, 1)]
        corners = [
            CornerPoint(
                f"P{j}xQ{k}",
                _cyclic_pair_group(mj, mk),
                (f"P{j}xS2", f"S1xQ{k}"),
            )
            for j, mj in enumerate(cone_points_S, 1)
            for k, mk in enumerate(cone_points_S2, 1)
        ]
        return OrbifoldSpec(
            base_betti=(1, 0, 2, 0, 1),
            surfaces=surfaces,
            corner_points=corners,
            name="product",
        )
    if cone_points_S2 is not None and list(cone_points_S2) != list(cone_points_S):
        raise ValueError("symmetric product requires identical factors")
    ms = list(cone_points_S)
    surfaces = [Surface("diagonal", genus=0, m=2)]
    surfaces += [Surface(f"P{j}", genus=0, m=m) for j, m in enumerate(ms, 1)]
    corners = []
    for j, mj in enumerate(ms, 1):
        corners.append(CornerPoint(f"P{j}P{j}", _swap_corner_group(mj), (f"P{j}", "diagonal")))
        for k in range(j + 1, len(ms) + 1):
            corners.append(
                CornerPoint(f"P{j}P{k}", _cyclic_pair_group(mj, ms[k - 1]), (f"P{j}", f"P{k}"))
            )
    return OrbifoldSpec(
        base_betti=(1, 0, 1, 0, 1),
        surfaces=surfaces,
        corner_points=corners,
        name="symmetric_product",
    )


BUILTIN_SPECS = {
    "mapping_torus": builtin_mapping_torus,
}


# -- JSON reading ---------------------------------------------------------


def _group_from_json(obj) -> UnitaryGroup:
    """A spec's group: a built-in name or a group object."""
    return builtin_group(obj) if isinstance(obj, str) else group_from_json(obj)


def _labels(value):
    """A JSON list as a tuple; anything else, a string included, is kept for
    validate_spec to refuse rather than split into characters."""
    return tuple(value) if isinstance(value, list) else value


def spec_from_json(obj: dict) -> OrbifoldSpec:
    return OrbifoldSpec(
        base_betti=tuple(obj["base_betti"]),
        isolated_points=[
            IsolatedPoint(p["label"], _group_from_json(p["group"]))
            for p in obj.get("isolated_points", [])
        ],
        surfaces=[
            Surface(s["label"], s["genus"], s["m"], s.get("compact", True))
            for s in obj.get("surfaces", [])
        ],
        corner_points=[
            CornerPoint(c["label"], _group_from_json(c["group"]), _labels(c["incident_surfaces"]))
            for c in obj.get("corner_points", [])
        ],
        betti_provenance=tuple(obj.get("betti_provenance", ("asserted",) * 5)),
        name=obj.get("name", ""),
    )
