"""Orbifold isotropy specs: validation, delta sets, built-ins, serialization."""

import pytest

from fd_oracles import spec_to_json
from orbifold4 import (CornerPoint, IsolatedPoint, OrbifoldSpec, Surface,
                       builtin_group, builtin_mapping_torus, builtin_product,
                       delta_set, spec_from_json, validate_spec)
from orbifold4.isotropy import _swap_corner_group


def test_mapping_torus_spec_is_valid():
    spec = builtin_mapping_torus()
    report = validate_spec(spec)
    assert report.valid, (report.structural_errors, report.semantic_errors)
    assert len(spec.isolated_points) == 5
    assert len(spec.corner_points) == 4
    assert {s.m for s in spec.surfaces} == {2}
    assert spec.base_betti == (1, 0, 2, 0, 1)
    assert spec.betti_provenance[3] == "user-default"


def test_mapping_torus_delta_is_empty():
    # every corner group is generated by its reflections, so no corner
    # carries a nontrivial reflection quotient
    assert delta_set(builtin_mapping_torus()).labels == ()


def test_product_spec():
    spec = builtin_product([3], [4])
    report = validate_spec(spec)
    assert report.valid, (report.structural_errors, report.semantic_errors)
    assert len(spec.corner_points) == 1
    corner = spec.corner_points[0]
    assert corner.group.order == 12
    assert delta_set(spec).labels == ()


def test_symmetric_product_spec():
    spec = builtin_product([2, 3], symmetric=True)
    report = validate_spec(spec)
    assert report.valid, (report.structural_errors, report.semantic_errors)
    labels = {c.label for c in spec.corner_points}
    assert labels == {"P1P1", "P2P2", "P1P2"}
    # the swap-stabilized corners have order 2*m^2
    swap_corner = next(c for c in spec.corner_points if c.label == "P2P2")
    assert swap_corner.group.order == 2 * 3 * 3


@pytest.mark.parametrize("m", range(2, 7))
def test_swap_corner_group_has_m_plus_2_reflection_lines(m):
    # the two axes, and the line (1 : zeta^k) of each swap-type reflection
    G = _swap_corner_group(m)
    assert len({c.fixed_line for c in G.classes if c.kind == "reflection"}) == m + 2


def test_symmetric_product_rejects_mismatched_factors():
    with pytest.raises(ValueError):
        builtin_product([2, 3], [2, 5], symmetric=True)
    with pytest.raises(ValueError):
        builtin_product([1])


def test_validation_structural_errors():
    spec = OrbifoldSpec(
        base_betti=(1, 0, 2, 0, 1),
        surfaces=[Surface("S", genus=0, m=2)],
        corner_points=[CornerPoint("c", builtin_group("klein_four"), ("S", "missing"))],
    )
    report = validate_spec(spec)
    assert not report.valid
    assert any("unknown surface" in e for e in report.structural_errors)

    dup = OrbifoldSpec(
        base_betti=(1, 0, 2, 0, 1),
        surfaces=[Surface("S", genus=0, m=2), Surface("S", genus=1, m=2)],
    )
    assert any("duplicate" in e for e in validate_spec(dup).structural_errors)


def test_validation_semantic_errors():
    # an isolated point whose group contains reflections is misfiled
    spec = OrbifoldSpec(
        base_betti=(1, 0, 2, 0, 1),
        isolated_points=[IsolatedPoint("p", builtin_group("klein_four"))],
    )
    report = validate_spec(spec)
    assert not report.valid
    assert any("Sigma1" in e for e in report.semantic_errors)

    # a corner point needs at least one reflection axis per incident surface
    spec = OrbifoldSpec(
        base_betti=(1, 0, 2, 0, 1),
        surfaces=[Surface("A", genus=0, m=2), Surface("B", genus=0, m=2)],
        corner_points=[CornerPoint("c", builtin_group("minus_identity"), ("A", "B"))],
    )
    report = validate_spec(spec)
    assert not report.valid


def test_surface_order_bound():
    spec = OrbifoldSpec(base_betti=(1, 0, 2, 0, 1),
                        surfaces=[Surface("S", genus=0, m=1)])
    assert any("order" in e for e in validate_spec(spec).semantic_errors)


def test_json_round_trip():
    spec = builtin_mapping_torus()
    back = spec_from_json(spec_to_json(spec))
    assert back.base_betti == spec.base_betti
    assert back.betti_provenance == spec.betti_provenance
    assert [s.label for s in back.surfaces] == [s.label for s in spec.surfaces]
    assert [c.label for c in back.corner_points] == [c.label for c in spec.corner_points]
    assert all(a.group.order == b.group.order
               for a, b in zip(back.corner_points, spec.corner_points))
    assert validate_spec(back).valid
