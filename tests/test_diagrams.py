"""The diagram model, its text form, and the counting checks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowlab.diagrams import (
    Bow,
    BowDiagram,
    BowSyntaxError,
    DuplicateInterval,
    EmptySegmentList,
    NotCobalanced,
    SegmentRef,
    UnknownIntervalInEdge,
    diagram_from_json_dict,
    diagram_to_json_dict,
    embed_deformation,
    embed_stability,
    framed_dims_of_cobalanced,
    is_cobalanced,
    lambda_of_nu,
    local_emptiness_check,
    parse_bow_diagram,
    serialize,
    underlying_quiver,
)


def reverse_diagram(d):
    """Every interval's orientation and every edge's direction reversed:
    first segments become last, so the two local emptiness
    configurations trade places."""
    bow = Bow(d.bow.intervals, tuple((h, t) for t, h in d.bow.edges))
    return BowDiagram(bow, {name: tuple(reversed(d.seg_dims[name])) for name in d.bow.intervals})


CANONICAL = "bow {\n  wavy a [2];\n  wavy b [5, 2];\n  edge a -> b;\n}\n"


def test_parse_canonical():
    d = parse_bow_diagram(CANONICAL)
    assert d.bow.intervals == ("a", "b")
    assert d.bow.edges == (("a", "b"),)
    assert d.seg_dims == {"a": (2,), "b": (5, 2)}


def test_parse_tolerates_whitespace_and_comments():
    messy = """
    bow {   # a comment
      wavy a [ 2 ] ;
      wavy b [5,2];  # trailing
      edge a->b;
    }
    """
    assert parse_bow_diagram(messy) == parse_bow_diagram(CANONICAL)


def test_serialize_is_canonical():
    d = parse_bow_diagram(CANONICAL)
    assert serialize(d) == CANONICAL
    assert serialize(parse_bow_diagram(serialize(d))) == CANONICAL


@pytest.mark.parametrize("bad", [
    "bow { wavy a [2] }",          # missing semicolon
    "bow { wavy a []; }",          # empty dims
    "bow { wavy a [2]; edge a -> c; }",   # unknown interval
    "bow { wavy a [2]; wavy a [3]; }",    # duplicate
    "bow { wavy a [x]; }",         # non-integer dim
    "wavy a [2];",                 # missing bow block
    "bow { wavy a [2];",           # unclosed
])
def test_parse_rejects_bad_input(bad):
    with pytest.raises((BowSyntaxError, DuplicateInterval,
                        UnknownIntervalInEdge, EmptySegmentList)):
        parse_bow_diagram(bad)


@pytest.mark.parametrize("text, line, column, message", [
    ("bow { wavy a [2]\n  wavy b [1]; }", 2, 3, "expected ;, got 'wavy'"),
    # a digit to str.isdigit but not a decimal, so int() cannot read it
    ("bow { wavy a [²]; }", 1, 15, "unexpected character '²'"),
    ("bow { wavy a [1", 1, 15, "unexpected end of input, expected ]"),
    ("bow { node a; }", 1, 7, "expected 'wavy' or 'edge', got 'node'"),
    ("bow { wavy a [1]; } x", 1, 21, "trailing input after '}': 'x'"),
])
def test_syntax_errors_say_where(text, line, column, message):
    with pytest.raises(BowSyntaxError, match=message) as exc:
        parse_bow_diagram(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_decimal_digits_of_any_script_are_dims():
    assert parse_bow_diagram("bow { wavy a [٣]; }").seg_dims == {"a": (3,)}


def test_model_validation():
    with pytest.raises(DuplicateInterval):
        Bow(("a", "a"), ())
    with pytest.raises(UnknownIntervalInEdge):
        Bow(("a",), (("a", "z"),))
    with pytest.raises(EmptySegmentList):
        BowDiagram(Bow(("a",), ()), {"a": ()})
    with pytest.raises(ValueError):
        BowDiagram(Bow(("a",), ()), {"a": (1,), "b": (1,)})
    with pytest.raises(ValueError):
        BowDiagram(Bow(("a",), ()), {"a": (-1,)})


def test_segment_and_x_point_layout():
    d = parse_bow_diagram("bow { wavy a [1, 2, 3]; wavy b [4]; edge b -> a; }")
    assert d.segments() == [SegmentRef("a", 0), SegmentRef("a", 1),
                            SegmentRef("a", 2), SegmentRef("b", 0)]
    assert d.x_points() == [("a", 0), ("a", 1)]
    assert d.x_point_count("b") == 0
    assert d.dim(SegmentRef("a", 1)) == 2
    # edges run from the end of the tail to the beginning of the head
    assert d.edge_tail_segment(0) == SegmentRef("b", 0)
    assert d.edge_head_segment(0) == SegmentRef("a", 0)
    d2 = parse_bow_diagram("bow { wavy a [1, 2]; edge a -> a; }")
    assert d2.edge_tail_segment(0) == SegmentRef("a", 1)
    assert d2.edge_head_segment(0) == SegmentRef("a", 0)


def test_json_round_trip():
    d = parse_bow_diagram(CANONICAL)
    blob = json.dumps(diagram_to_json_dict(d))
    assert diagram_from_json_dict(json.loads(blob)) == d


@pytest.mark.parametrize("data, message", (
    ({"intervals": [{"name": "a"}], "edges": []}, "interval 'a' has no 'dims' entry"),
    ({"intervals": [{"dims": [1]}], "edges": []}, "interval 0 has no 'name' entry"),
    ({"intervals": [{"name": "a", "dims": [1]}], "edges": [{"tail": "a"}]},
     "edge 0 has no 'head' entry"),
    ({"intervals": []}, "diagram data has no 'edges' entry"),
))
def test_json_reader_names_a_missing_entry(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        diagram_from_json_dict(data)


# names the diagram text cannot hold, and ones it can: a letter or _
# first, then letters, digits or _ as str.isalnum reads them
BAD_NAMES = ("x y", "12", 5, "", "a-b", "²a")
GOOD_NAMES = ("wavy", "edge", "bow", "_", "a²", "é1", "x_2")


@pytest.mark.parametrize("name", BAD_NAMES)
def test_json_reader_rejects_a_name_the_text_cannot_hold(name):
    data = {"intervals": [{"name": "a", "dims": [1]}, {"name": name, "dims": [2, 2]}],
            "edges": []}
    with pytest.raises(ValueError, match=f"^interval 1 has name {name!r}, which the diagram"):
        diagram_from_json_dict(data)


@pytest.mark.parametrize("name", BAD_NAMES)
def test_serialize_refuses_a_name_the_text_cannot_hold(name):
    d = BowDiagram(Bow(("a", name), ((name, "a"),)), {"a": (1,), name: (2, 2)})
    with pytest.raises(ValueError, match=f"^interval 1 has name {name!r}, which the diagram"):
        serialize(d)


@pytest.mark.parametrize("name", GOOD_NAMES)
def test_every_name_the_reader_accepts_parses_back(name):
    data = {"intervals": [{"name": name, "dims": [1, 1]}], "edges": [{"tail": name, "head": name}]}
    d = diagram_from_json_dict(data)
    assert parse_bow_diagram(serialize(d)) == d


_names = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=4, unique=True)


@st.composite
def diagrams(draw):
    names = draw(_names)
    dims = {n: tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)))
            for n in names}
    n_edges = draw(st.integers(0, 4))
    edges = tuple((draw(st.sampled_from(names)), draw(st.sampled_from(names)))
                  for _ in range(n_edges))
    return BowDiagram(Bow(tuple(names), edges), dims)


@given(diagrams())
@settings(max_examples=80, deadline=None)
def test_serialize_parse_round_trip(d):
    assert parse_bow_diagram(serialize(d)) == d
    assert diagram_from_json_dict(diagram_to_json_dict(d)) == d


@given(diagrams())
@settings(max_examples=80, deadline=None)
def test_reverse_is_an_involution(d):
    assert reverse_diagram(reverse_diagram(d)) == d


def test_underlying_quiver():
    d = parse_bow_diagram(CANONICAL)
    q = underlying_quiver(d.bow)
    assert q.vertices == ("a", "b")
    assert q.arrows == (("a", "b"),)


def test_cobalanced_detection():
    assert is_cobalanced(parse_bow_diagram("bow { wavy a [2, 2]; wavy b [1]; }"))
    assert not is_cobalanced(parse_bow_diagram(CANONICAL))
    with pytest.raises(NotCobalanced):
        framed_dims_of_cobalanced(parse_bow_diagram(CANONICAL))


def test_framed_dims_round_trip():
    d = parse_bow_diagram("bow { wavy a [2, 2, 2]; wavy b [3]; edge a -> b; }")
    v, w = framed_dims_of_cobalanced(d)
    assert v == {"a": 2, "b": 3}
    assert w == {"a": 2, "b": 0}


def test_parameter_embeddings():
    d = parse_bow_diagram("bow { wavy a [1, 1]; wavy b [2]; }")
    lam = embed_deformation(d, {"a": 2.0, "b": 1j})
    assert lam[SegmentRef("a", 0)] == 2.0
    assert lam[SegmentRef("a", 1)] == 0
    assert lam[SegmentRef("b", 0)] == 1j
    th = embed_stability(d, {"a": 3})
    assert th[SegmentRef("a", 0)] == 3 and th[SegmentRef("b", 0)] == 0
    # per-segment values aggregate back to per-interval sums
    nu = {SegmentRef("a", 0): 1.0, SegmentRef("a", 1): 2.0, SegmentRef("b", 0): -1.0}
    assert lambda_of_nu(d, nu) == {"a": 3.0, "b": -1.0}
    # a key naming no interval is an error, not a zero
    with pytest.raises(ValueError, match=r"\['c'\]"):
        embed_deformation(d, {"a": 1.0, "c": 2.0})
    with pytest.raises(ValueError, match=r"\['A', 'c'\]"):
        embed_stability(d, {"c": 1, "A": 1})


def test_counting_check_flags_oversized_first_segment():
    # stacked (A, b) out of the 5-dim first segment can reach at most
    # 1 + 1 = 2 dims: injectivity is impossible
    d = parse_bow_diagram("bow { wavy a [5, 1]; }")
    v = local_emptiness_check(d)
    assert len(v) == 1
    assert v[0].config == "injective" and v[0].v0 == 5 and v[0].bound == 2
    # an incoming edge of dim 4 closes the gap
    d2 = parse_bow_diagram("bow { wavy a [5, 1]; wavy c [4]; edge c -> a; }")
    assert local_emptiness_check(d2) == []


def test_counting_check_flags_oversized_last_segment():
    d = parse_bow_diagram("bow { wavy a [1, 5]; }")
    v = local_emptiness_check(d)
    assert len(v) == 1
    assert v[0].config == "surjective" and v[0].v0 == 5


def test_counting_check_passes_known_tight_case():
    assert local_emptiness_check(parse_bow_diagram(CANONICAL)) == []


@given(diagrams())
@settings(max_examples=60, deadline=None)
def test_counting_check_reversal_symmetry(d):
    # reversing every interval and edge swaps the two configurations
    fwd = {(v.interval, v.x_index, v.config) for v in local_emptiness_check(d)}
    rev = set()
    for v in local_emptiness_check(reverse_diagram(d)):
        w = d.x_point_count(v.interval)
        config = "surjective" if v.config == "injective" else "injective"
        rev.add((v.interval, w - 1 - v.x_index, config))
    assert fwd == rev
