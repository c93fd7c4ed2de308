"""Bows, bow diagrams, and their textual description language.

A bow is a set of oriented intervals (wavy lines) plus directed edges,
each edge running from the end of one interval to the beginning of
another (self-edges allowed).  A bow diagram marks x-points on the
intervals and assigns a nonnegative dimension to every segment between
them.  Segment dims are listed in orientation order, so an interval
with dims [v0, ..., vw] carries w x-points; x-point i sits between
segments i and i+1.

Text form:

    bow {
      wavy a [2];          # one interval, no x-points
      wavy b [5, 2];       # one x-point
      edge a -> b;         # from the end of a to the beginning of b
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import _field

__all__ = [
    "Bow",
    "BowDiagram",
    "SegmentRef",
    "BowSyntaxError",
    "DuplicateInterval",
    "UnknownIntervalInEdge",
    "EmptySegmentList",
    "NotCobalanced",
    "parse_bow_diagram",
    "serialize",
    "diagram_to_json_dict",
    "diagram_from_json_dict",
    "underlying_quiver",
    "is_cobalanced",
    "framed_dims_of_cobalanced",
    "embed_deformation",
    "embed_stability",
    "lambda_of_nu",
    "local_emptiness_check",
    "Violation",
]


class BowSyntaxError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateInterval(ValueError):
    pass


class UnknownIntervalInEdge(ValueError):
    pass


class EmptySegmentList(ValueError):
    pass


class NotCobalanced(ValueError):
    pass


@dataclass(frozen=True)
class Bow:
    """Intervals plus directed edges from interval ends to interval beginnings."""

    intervals: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (tail, head) pairs, self-edges allowed

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        object.__setattr__(self, "edges", tuple((t, h) for t, h in self.edges))
        seen = set()
        for name in self.intervals:
            if name in seen:
                raise DuplicateInterval(f"interval {name!r} declared twice")
            seen.add(name)
        for tail, head in self.edges:
            for name in (tail, head):
                if name not in seen:
                    raise UnknownIntervalInEdge(f"edge references unknown interval {name!r}")


class SegmentRef(NamedTuple):
    """Segment `index` (0-based, orientation order) of `interval`."""

    interval: str
    index: int


@dataclass(frozen=True)
class BowDiagram:
    bow: Bow
    seg_dims: dict[str, tuple[int, ...]]  # per interval, orientation order

    def __post_init__(self):
        dims = {name: tuple(int(v) for v in vals) for name, vals in self.seg_dims.items()}
        object.__setattr__(self, "seg_dims", dims)
        if set(dims) != set(self.bow.intervals):
            raise ValueError("seg_dims must cover exactly the bow's intervals")
        for name, vals in dims.items():
            if len(vals) == 0:
                raise EmptySegmentList(f"interval {name!r} has no segments")
            if any(v < 0 for v in vals):
                raise ValueError(f"interval {name!r} has a negative segment dim")

    def x_point_count(self, interval: str) -> int:
        return len(self.seg_dims[interval]) - 1

    def segments(self) -> list[SegmentRef]:
        """All segments, intervals in declaration order, then by index;
        listed once, then memoised on the diagram."""
        try:
            segs = self._segments
        except AttributeError:
            segs = tuple(SegmentRef(name, j) for name in self.bow.intervals
                         for j in range(len(self.seg_dims[name])))
            # not a field: ==, repr and replace ignore it
            object.__setattr__(self, "_segments", segs)
        return list(segs)

    def x_points(self) -> list[tuple[str, int]]:
        out = []
        for name in self.bow.intervals:
            out.extend((name, i) for i in range(self.x_point_count(name)))
        return out

    def dim(self, seg: SegmentRef) -> int:
        return self.seg_dims[seg.interval][seg.index]

    def first_segment(self, interval: str) -> SegmentRef:
        return SegmentRef(interval, 0)

    def last_segment(self, interval: str) -> SegmentRef:
        return SegmentRef(interval, len(self.seg_dims[interval]) - 1)

    def edge_tail_segment(self, edge_index: int) -> SegmentRef:
        # edges leave from the end of the tail interval
        return self.last_segment(self.bow.edges[edge_index][0])

    def edge_head_segment(self, edge_index: int) -> SegmentRef:
        # and arrive at the beginning of the head interval
        return self.first_segment(self.bow.edges[edge_index][1])


# --- DSL ------------------------------------------------------------------

def _name_end(text: str, i: int) -> int:
    """Where the name starting at text[i] ends, i where none starts: a
    letter or _, then letters, digits or _ as str.isalnum reads them."""
    if i < len(text) and (text[i].isalpha() or text[i] == "_"):
        i += 1
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
    return i


def _check_name(name, where: str) -> None:
    """Raise unless the diagram text can hold name (keywords can)."""
    if not (isinstance(name, str) and name and _name_end(name, 0) == len(name)):
        raise ValueError(f"{where} has name {name!r}, which the diagram text cannot "
                         f"hold: a name is a letter or _, then letters, digits or _")


def _tokenize(text):
    """Yield (kind, value, line, col) with kind in ident/int/punct."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            yield ("punct", "->", line, col)
            i += 2
            col += 2
            continue
        if c in "{}[],;":
            yield ("punct", c, line, col)
            i += 1
            col += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            yield ("int", int(text[i:j]), line, col)
            col += j - i
            i = j
            continue
        j = _name_end(text, i)
        if j > i:
            yield ("ident", text[i:j], line, col)
            col += j - i
            i = j
            continue
        raise BowSyntaxError(f"unexpected character {c!r}", line, col)


class _Parser:
    def __init__(self, text):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", "", 1, 1)
            raise BowSyntaxError(f"unexpected end of input, expected {value or kind}", last[2], last[3])
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise BowSyntaxError(f"expected {value or kind}, got {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def parse(self):
        kw = self.expect("ident")
        if kw[1] != "bow":
            raise BowSyntaxError(f"expected 'bow', got {kw[1]!r}", kw[2], kw[3])
        self.expect("punct", "{")
        intervals: list[str] = []
        dims: dict[str, tuple[int, ...]] = {}
        edges: list[tuple[str, str]] = []
        while True:
            tok = self.peek()
            if tok is None:
                last = self.tokens[-1]
                raise BowSyntaxError("unexpected end of input, expected '}'", last[2], last[3])
            if tok[0] == "punct" and tok[1] == "}":
                self.pos += 1
                break
            item = self.expect("ident")
            if item[1] == "wavy":
                name_tok = self.expect("ident")
                name = name_tok[1]
                self.expect("punct", "[")
                close = self.peek()
                if close is not None and close[0] == "punct" and close[1] == "]":
                    raise EmptySegmentList(
                        f"line {name_tok[2]}: interval {name!r} has an empty segment list"
                    )
                vals = [self.expect("int")[1]]
                while self.peek() and self.peek()[0] == "punct" and self.peek()[1] == ",":
                    self.pos += 1
                    vals.append(self.expect("int")[1])
                self.expect("punct", "]")
                self.expect("punct", ";")
                if name in dims:
                    raise DuplicateInterval(f"line {name_tok[2]}: interval {name!r} declared twice")
                intervals.append(name)
                dims[name] = tuple(vals)
            elif item[1] == "edge":
                tail = self.expect("ident")[1]
                self.expect("punct", "->")
                head = self.expect("ident")[1]
                self.expect("punct", ";")
                edges.append((tail, head))
            else:
                raise BowSyntaxError(f"expected 'wavy' or 'edge', got {item[1]!r}", item[2], item[3])
        tok = self.peek()
        if tok is not None:
            raise BowSyntaxError(f"trailing input after '}}': {tok[1]!r}", tok[2], tok[3])
        return BowDiagram(Bow(tuple(intervals), tuple(edges)), dims)


def parse_bow_diagram(text: str) -> BowDiagram:
    """Parse DSL text into a BowDiagram; errors carry line/column."""
    return _Parser(text).parse()


def serialize(d: BowDiagram) -> str:
    """Canonical text: wavies then edges, each in declaration order;
    raises ValueError on an interval name the text cannot hold."""
    lines = ["bow {"]
    for k, name in enumerate(d.bow.intervals):
        _check_name(name, f"interval {k}")
        dims = ", ".join(str(v) for v in d.seg_dims[name])
        lines.append(f"  wavy {name} [{dims}];")
    for tail, head in d.bow.edges:
        lines.append(f"  edge {tail} -> {head};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_json_dict(d: BowDiagram) -> dict:
    return {
        "intervals": [{"name": name, "dims": list(d.seg_dims[name])} for name in d.bow.intervals],
        "edges": [{"tail": t, "head": h} for t, h in d.bow.edges],
    }


def diagram_from_json_dict(data: dict) -> BowDiagram:
    """Inverse of diagram_to_json_dict; an error (a missing entry, an
    interval name the diagram text cannot hold) names its interval or edge."""
    items = _field(data, "intervals", "diagram data")
    intervals = tuple(_field(item, "name", f"interval {k}") for k, item in enumerate(items))
    for k, name in enumerate(intervals):
        _check_name(name, f"interval {k}")
    dims = {name: tuple(_field(item, "dims", f"interval {name!r}"))
            for name, item in zip(intervals, items)}
    edges = tuple((_field(e, "tail", f"edge {k}"), _field(e, "head", f"edge {k}"))
                  for k, e in enumerate(_field(data, "edges", "diagram data")))
    return BowDiagram(Bow(intervals, edges), dims)


# --- structure ------------------------------------------------------------


def underlying_quiver(b: Bow):
    """One vertex per interval, one arrow per edge."""
    from .quiver import Quiver

    return Quiver(vertices=b.intervals, arrows=b.edges)


def is_cobalanced(d: BowDiagram) -> bool:
    """True iff every x-point has equal dims on its two sides."""
    return all(
        len(set(d.seg_dims[name])) == 1 for name in d.bow.intervals
    )


def framed_dims_of_cobalanced(d: BowDiagram) -> tuple[dict[str, int], dict[str, int]]:
    """(v, w) per interval: common segment dim and x-point count."""
    if not is_cobalanced(d):
        raise NotCobalanced("diagram has an x-point with unequal adjacent dims")
    v = {name: d.seg_dims[name][0] for name in d.bow.intervals}
    w = {name: d.x_point_count(name) for name in d.bow.intervals}
    return v, w


# --- parameter embeddings -------------------------------------------------


def _known_intervals(d: BowDiagram, values: dict, what: str):
    unknown = sorted(set(values) - set(d.bow.intervals), key=repr)
    if unknown:
        raise ValueError(f"{what} names unknown interval(s) {unknown}; "
                         f"the diagram's intervals are {list(d.bow.intervals)}")


def _embed(d: BowDiagram, values: dict, what: str, cast) -> dict:
    _known_intervals(d, values, what)
    return {seg: cast(values.get(seg.interval, 0) if seg.index == 0 else 0)
            for seg in d.segments()}


def embed_deformation(d: BowDiagram, lam: dict[str, complex]) -> dict[SegmentRef, complex]:
    """Place each interval's value on its first segment, zero elsewhere
    and at intervals lam omits; a key naming no interval is an error."""
    return _embed(d, lam, "lambda", complex)


def embed_stability(d: BowDiagram, theta: dict[str, int]) -> dict[SegmentRef, int]:
    """embed_deformation for integer weights."""
    return _embed(d, theta, "theta", int)


def lambda_of_nu(d: BowDiagram, nu: dict[SegmentRef, complex]) -> dict[str, complex]:
    """Per-interval sums of the segment values."""
    out = {name: 0j for name in d.bow.intervals}
    for seg, val in nu.items():
        out[seg.interval] += complex(val)
    return out


# --- local emptiness test -------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """An x-point whose local dimension count rules out solutions."""

    interval: str
    x_index: int
    config: str  # "injective" (first-segment side) or "surjective" (last-segment side)
    v0: int
    bound: int


def local_emptiness_check(d: BowDiagram) -> list[Violation]:
    """Necessary condition for a nonempty zero-level fiber.

    At an x-point whose left segment is the first segment of its
    interval, the stacked map out of that segment (A, b, and the D of
    every incoming edge) must be injective, so v0 <= v_other + 1 + sum
    of incoming edge dims.  Dually for an x-point whose right segment
    is the last segment.  Returns all x-points where the count fails;
    an empty list is necessary, not sufficient, for solutions.
    """
    violations = []
    for name, i in d.x_points():
        dims = d.seg_dims[name]
        w = len(dims) - 1
        if i == 0:
            incoming = sum(
                d.seg_dims[tail][-1] for tail, head in d.bow.edges if head == name
            )
            v0, bound = dims[0], dims[1] + 1 + incoming
            if v0 > bound:
                violations.append(Violation(name, i, "injective", v0, bound))
        if i == w - 1:
            outgoing = sum(
                d.seg_dims[head][0] for tail, head in d.bow.edges if tail == name
            )
            v0, bound = dims[w], dims[w - 1] + 1 + outgoing
            if v0 > bound:
                violations.append(Violation(name, i, "surjective", v0, bound))
    return violations

