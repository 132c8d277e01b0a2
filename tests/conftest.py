"""Shared fixtures: the canonical two-device instance and helpers."""

from __future__ import annotations

import copy
import functools
import operator

import pytest
from hypothesis import strategies as st

from ccplace import DeviceSpec, GridDims, Netlist, ObjectiveRanges, parse_rendered


class FakeRng:
    """Scripted stand-in for a numpy Generator (integers/random only)."""

    def __init__(self, integers=(), randoms=()):
        self._ints = list(integers)
        self._floats = list(randoms)

    def integers(self, n):
        v = self._ints.pop(0)
        assert 0 <= v < n, f"scripted draw {v} out of range {n}"
        return v

    def random(self):
        return self._floats.pop(0)


def make_grid(rows, names=None):
    """Placement from per-cell characters, e.g. ["AABB", "BBAA"]."""
    return parse_rendered("\n".join(" ".join(row) for row in rows), names)


def ranges_of(bounds):
    """The envelope of the vector of lows and the vector of highs of
    ``bounds``, one (low, high) pair per component."""
    r = ObjectiveRanges()
    r.update(tuple(lo for lo, _ in bounds))
    r.update(tuple(hi for _, hi in bounds))
    return r


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def _nodes(doc, path=()):
    """Every (path, value) pair of a JSON document, the document itself first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def mutated(draw, doc, max_edits=2):
    """A copy of the JSON document ``doc`` after one to ``max_edits`` edits.
    Each edit deletes one value below the top level or replaces it with a
    random JSON value or with one of the document's own scalars."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, max_edits))):
        nodes = list(_nodes(doc))[1:]
        if not nodes:
            break
        path = draw(st.sampled_from([p for p, _ in nodes]))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            scalars = [v for _, v in nodes if not isinstance(v, (dict, list))]
            parent[path[-1]] = draw(json_values | st.sampled_from(scalars))
    return doc


@pytest.fixture
def fake_rng_cls():
    return FakeRng


@pytest.fixture
def pair_netlist():
    """Two matched 4-unit devices wired in parallel (all terminals shared),
    with one routing net per device's units."""
    return Netlist(
        (
            DeviceSpec("A", 4, gate_net="G", source_net="S", drain_net="D"),
            DeviceSpec("B", 4, gate_net="G", source_net="S", drain_net="D"),
        ),
        (("A", ("A",)), ("B", ("B",))),
    )


@pytest.fixture
def pair_dims():
    return GridDims(2, 4)


@pytest.fixture
def topologies():
    """The four CC patterns of the 4+4 instance on a 2x4 grid."""
    return {
        1: make_grid(["ABAB", "BABA"]),
        2: make_grid(["AABB", "BBAA"]),
        3: make_grid(["ABBA", "ABBA"]),
        4: make_grid(["ABBA", "BAAB"]),
    }


@pytest.fixture
def disjoint_pair_netlist():
    """Two 4-unit devices with no shared diffusion nets (every junction
    between them is a break)."""
    return Netlist(
        (
            DeviceSpec("A", 4, gate_net="GA", source_net="n1", drain_net="n2"),
            DeviceSpec("B", 4, gate_net="GB", source_net="n3", drain_net="n4"),
        ),
        (("A", ("A",)), ("B", ("B",))),
    )
