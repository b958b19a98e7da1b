import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_gadgets import (EXACT, UP_TO_ISO, ArrowInstance, ColorPattern,
                            EdgeColoring, GraphError, PatternFamily,
                            complete_graph, cycle_graph, path_graph,
                            pattern_of, patterns_isomorphic, star_graph)
from ramsey_gadgets.coloring import _mono_copy


def test_coloring_basics():
    c = EdgeColoring.from_map(2, {0: 1, 2: 2})
    assert c.color_of(0) == 1 and c.color_of(1) is None
    assert c.as_dict() == {0: 1, 2: 2}
    g = path_graph(4)
    assert c.uncolored(g) == [1]
    assert not c.is_total(g)
    assert c.restricted([0]).as_dict() == {0: 1}
    assert c.class_edges(2) == frozenset({2})


def test_coloring_validates_colors():
    with pytest.raises(GraphError):
        EdgeColoring.from_map(2, {0: 3})
    with pytest.raises(GraphError):
        EdgeColoring.from_map(2, {0: 0})


def test_coloring_json_round_trip():
    c = EdgeColoring.from_map(3, {5: 2, 1: 3})
    assert EdgeColoring.from_json(3, c.to_json()) == c


def test_pattern_partition_ignores_color_names():
    g = path_graph(3)
    a = pattern_of(g, EdgeColoring.from_map(2, {0: 1, 1: 2}))
    b = pattern_of(g, EdgeColoring.from_map(2, {0: 2, 1: 1}))
    assert a.as_partition() == b.as_partition()


def test_pattern_requires_total_coloring():
    with pytest.raises(GraphError):
        pattern_of(path_graph(3), EdgeColoring.from_map(2, {0: 1}))


def test_h_free_and_witness():
    # a pattern is h-free when `_mono_copy` finds no one-colored copy in
    # the instance's copy list of h in the pattern's graph
    def mono_copy(pattern, h):
        copies = ArrowInstance.create(pattern.graph, h, 2).copies
        return _mono_copy(copies, pattern.to_coloring())

    g = complete_graph(3)
    mono = pattern_of(g, EdgeColoring.from_map(2, {0: 1, 1: 1, 2: 1}))
    split = pattern_of(g, EdgeColoring.from_map(2, {0: 1, 1: 1, 2: 2}))
    assert mono_copy(mono, g) is not None
    assert mono_copy(split, g) is None
    assert mono_copy(split, path_graph(3)) is not None   # 0,1 same color share a vertex
    assert mono_copy(mono, g) == (0, 1, 2)
    assert mono_copy(split, g) is None


def test_class_graph():
    g = complete_graph(3)
    p = pattern_of(g, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 2}))
    assert p.class_graph(0).num_edges == 1
    assert p.class_graph(1).num_edges == 2


def test_patterns_isomorphic():
    c4 = cycle_graph(4)
    opposite = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    rotated = pattern_of(c4, EdgeColoring.from_map(2, {0: 2, 1: 1, 2: 2, 3: 1}))
    adjacent = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 1, 2: 2, 3: 2}))
    assert patterns_isomorphic(opposite, rotated)
    assert not patterns_isomorphic(opposite, adjacent)
    # another color count, or other class sizes, with no isomorphism test
    three = pattern_of(c4, EdgeColoring.from_map(3, {0: 1, 1: 2, 2: 1, 3: 2}))
    lopsided = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 2, 3: 2}))
    assert not patterns_isomorphic(opposite, three)
    assert not patterns_isomorphic(opposite, lopsided)


def test_family_modes():
    c4 = cycle_graph(4)
    member = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    probe = pattern_of(c4, EdgeColoring.from_map(2, {0: 2, 1: 1, 2: 2, 3: 1}))
    shifted = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 1, 2: 2, 3: 2}))
    exact = PatternFamily(c4, (member,), EXACT)
    iso = PatternFamily(c4, (member,), UP_TO_ISO)
    assert exact.contains(probe)          # same partition after renaming colors
    assert not exact.contains(shifted)
    assert not iso.contains(shifted)      # not isomorphic to the member
    assert iso.contains(probe)
    assert len(exact) == 1


def test_family_rejects_foreign_pattern():
    c4 = cycle_graph(4)
    foreign = pattern_of(path_graph(3),
                         EdgeColoring.from_map(2, {0: 1, 1: 2}))
    with pytest.raises(GraphError):
        PatternFamily(c4, (foreign,), EXACT)



def test_family_rejects_a_member_over_another_graph_of_equal_size():
    # K1,4 has C4's four edges but not its vertices or edges
    member = pattern_of(star_graph(4),
                        EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    for mode in (EXACT, UP_TO_ISO):
        with pytest.raises(GraphError, match="not a pattern of the base"):
            PatternFamily(cycle_graph(4), (member,), mode)

def test_family_json_form():
    c4 = cycle_graph(4)
    member = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    family = PatternFamily(c4, (member,), UP_TO_ISO)
    data = family.to_json()
    assert data == {"base": c4.to_json(), "mode": UP_TO_ISO,
                    "members": [[[0, 2], [1, 3]]]}
    assert PatternFamily.from_json(data) == family


@pytest.mark.parametrize("damage", [
    lambda d: "not a family",
    lambda d: {**d, "base": None},                      # no base graph
    lambda d: {**d, "members": [[[0, 2], [1]]]},        # edge 3 uncovered
    lambda d: {**d, "members": [[[0, 2], [1, 3, 9]]]},  # no edge 9
    lambda d: {**d, "members": [[[0, "2"], [1, 3]]]},   # not an edge id
    lambda d: {**d, "members": None},
    lambda d: {**d, "mode": "sometimes"},
    lambda d: {**d, "mode": []},
])
def test_family_from_malformed_json_raises_graph_error(damage):
    c4 = cycle_graph(4)
    member = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    with pytest.raises(GraphError):
        PatternFamily.from_json(damage(PatternFamily(c4, (member,)).to_json()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_to_coloring_round_trips_partition(data):
    g = complete_graph(4)
    q = data.draw(st.integers(2, 3))
    cmap = {e: data.draw(st.integers(1, q)) for e in range(g.num_edges)}
    p = pattern_of(g, EdgeColoring.from_map(q, cmap))
    again = pattern_of(g, p.to_coloring())
    assert p.as_partition() == again.as_partition()
