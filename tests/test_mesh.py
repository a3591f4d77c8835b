import numpy as np
import pytest

from obstaclecontrol.mesh import (
    build_friedrichs_keller,
    signed_areas,
)

from conftest import recursive_nested_dissection


def test_counts_n2():
    m = build_friedrichs_keller(2)
    assert m.num_nodes == 9
    assert m.num_triangles == 8
    assert m.boundary_mask.sum() == 8
    assert list(m.interior) == [4]


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_counting_formulas(n):
    m = build_friedrichs_keller(n)
    assert m.num_nodes == (n + 1) ** 2
    assert m.num_triangles == 2 * n**2
    assert m.interior.size == (n - 1) ** 2


def test_mesh_width_table_row():
    m = build_friedrichs_keller(16)
    assert m.h == 1 / 16


def test_signed_areas_positive_and_cover_square():
    m = build_friedrichs_keller(3)
    areas = signed_areas(m)
    assert np.allclose(areas, m.h**2 / 2)
    assert areas.sum() == pytest.approx(1.0, abs=1e-15)


def test_boundary_mask_matches_coordinates():
    m = build_friedrichs_keller(5)
    expected = np.any((m.nodes == 0.0) | (m.nodes == 1.0), axis=1)
    assert np.array_equal(m.boundary_mask, expected)


def test_interior_nodes_ascending_and_interior():
    m = build_friedrichs_keller(16)
    inter = m.interior
    assert inter.size == 225
    assert np.all(np.diff(inter) > 0)
    coords = m.nodes[inter]
    assert np.all((coords > 0.0) & (coords < 1.0))


def test_interior_nodes_n4():
    m = build_friedrichs_keller(4)
    assert m.interior.size == 9


def test_each_interior_edge_shared_by_two_triangles():
    m = build_friedrichs_keller(3)
    from collections import Counter

    edges = Counter()
    for tri in m.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((tri[a], tri[b]))] += 1
    for edge, count in edges.items():
        i, j = sorted(edge)
        both_boundary = m.boundary_mask[i] and m.boundary_mask[j]
        # a boundary edge connects two adjacent boundary nodes along a side
        pi, pj = m.nodes[i], m.nodes[j]
        on_same_side = any(
            pi[d] == pj[d] and pi[d] in (0.0, 1.0) for d in (0, 1)
        )
        if both_boundary and on_same_side:
            assert count == 1
        else:
            assert count == 2


def test_determinism():
    a = build_friedrichs_keller(6)
    b = build_friedrichs_keller(6)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.triangles, b.triangles)


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_rejects_small_n(bad):
    with pytest.raises(ValueError):
        build_friedrichs_keller(bad)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_nested_dissection_is_a_permutation_of_the_nodes(n):
    m = build_friedrichs_keller(n)
    order = m.nested_dissection
    assert np.array_equal(np.sort(order), np.arange(m.num_nodes))


@pytest.mark.parametrize("n", range(2, 71))
def test_nested_dissection_is_the_recursive_order(n):
    order = build_friedrichs_keller(n).nested_dissection
    assert order.dtype == np.int64
    assert np.array_equal(order, recursive_nested_dissection(n))


def test_nested_dissection_is_one_read_only_array_per_n():
    order = build_friedrichs_keller(12).nested_dissection
    assert build_friedrichs_keller(12).nested_dissection is order
    assert build_friedrichs_keller(13).nested_dissection is not order
    with pytest.raises(ValueError):
        order[0] = 1
    assert np.array_equal(order, recursive_nested_dissection(12))
