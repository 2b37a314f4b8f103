"""The package's record classes: construction, equality and hashing.

Each record is a plain class with a hand-written ``__init__``; these tests
pin what its callers rely on: positional order, keyword names and
defaults, equality over every field bar the back-references listed as
ignored, and a hash that agrees with equality where records are hashed.
"""

import os
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

import trinities
from trinities import cli, dividing, fkt, hypertrees, plane_graph, transitions, trees, trinity


class Spec(NamedTuple):
    cls: type
    fields: tuple  # (name, value, another value), in constructor order
    defaults: dict = {}  # default of each field that has one
    ignored: tuple = ()  # the fields equality ignores
    hashable: bool = True
    bare: tuple = None  # arguments of the defaults check, when not the required values


# stand-ins for the back-references equality ignores
G1, G2 = object(), object()
# Configuration checks its entries against the trinity's faces; the tags
# keep the two stand-ins unequal
T1 = SimpleNamespace(n_r={"f0": 2}, red=("f0",), tag=1)
T2 = SimpleNamespace(n_r={"f0": 2}, red=("f0",), tag=2)
NO_FACES = SimpleNamespace(n_r={}, red=())
D1, D2 = dividing.ChordDiagram((1, 0, 3, 2)), dividing.ChordDiagram((3, 2, 1, 0))
ARC = trinity.Arc("a", "f0", "f1")
COMPONENT = transitions.Component(0, (0,), {"f0": 0}, {"f0": 1}, 0)

SPECS = [
    Spec(
        cli.VerificationSuite,
        (("instance", "g", "h"), ("stages", {}, {"census": {}}), ("seconds", {}, {"census": 0.0})),
        hashable=False,
    ),
    Spec(dividing.ChordDiagram, (("partner", (1, 0, 3, 2), (3, 2, 1, 0)),)),
    Spec(
        dividing.DiscChart,
        (("face", "f0", "f1"), ("n", 1, 2), ("emerald_corner", (None, "c"), ("c", None))),
    ),
    Spec(
        dividing.Configuration,
        (("trinity", T1, T2), ("entries", (("f0", D1),), (("f0", D2),))),
        defaults={"entries": ()},
        ignored=("trinity",),
        bare=(NO_FACES,),
    ),
    Spec(dividing.TightVerdict, (("tight", True, False), ("loops", 1, 2))),
    Spec(
        fkt.Universe,
        (("graph", G1, G2), ("stars", ("f0", "f1"), ("f1", "f2"))),
        defaults={"stars": ()},
        ignored=("graph",),
    ),
    Spec(fkt.UniverseState, (("markers", (("x", 0),), (("x", 1),)),)),
    Spec(
        fkt.ClockGraph,
        (
            ("universe", G1, G2),
            ("codes", (0,), (1,)),
            ("ends", [0, 0], [0, 1]),
            ("targets", [], [0]),
            ("report", {"ok": True}, {"ok": False}),
        ),
        ignored=("universe",),
        hashable=False,
    ),
    Spec(
        fkt.CorrespondenceReport,
        (("states", 1, 2), ("tight", 1, 2), ("magic", 1, 2), ("bijective", True, False)),
    ),
    Spec(
        hypertrees.Hypertree,
        (("vector", (("r0", 0),), (("r0", 1),)), ("source", G1, G2)),
        defaults={"source": None},
        ignored=("source",),
    ),
    Spec(
        plane_graph.Vertex,
        (("id", "v0", "v1"), ("colour", "violet", None), ("rotation", ("a.0",), ("b.0",))),
    ),
    Spec(plane_graph.Edge, (("id", "a", "b"), ("darts", ("a.0", "a.1"), ("b.0", "b.1")))),
    Spec(plane_graph.Face, (("id", "f0", "f1"), ("boundary", ("a.0",), ("a.1",)))),
    Spec(
        plane_graph.ValidationReport,
        (("failures", (), ("graph has a loop edge",)), ("colouring", {"v0": "violet"}, None)),
        hashable=False,
    ),
    Spec(
        transitions.Component,
        (
            ("id", 0, 1),
            ("members", (0,), (1,)),
            ("euler", {"f0": 0}, {"f0": 1}),
            ("hypertree", {"f0": 1}, {"f0": 0}),
            ("representative", 0, 1),
        ),
        hashable=False,
    ),
    Spec(
        transitions.ConfigurationGraph,
        (
            ("trinity", T1, T2),
            ("diagrams", (((1, 0),),), ()),
            ("choices", ((0,),), ()),
            ("component_of", (0,), ()),
            ("components", (COMPONENT,), ()),
            ("total_configurations", 1, 0),
            ("disc_euler", ({0: 0},), ()),
            ("codes", array("q", [0]), array("q")),
        ),
        defaults={
            "diagrams": (),
            "choices": (),
            "component_of": (),
            "components": (),
            "total_configurations": 0,
            "disc_euler": (),
            "codes": (),
        },
        # the codes are fixed by the choices and the diagram counts
        ignored=("trinity", "codes"),
        hashable=False,
    ),
    Spec(
        trees.SpanningTree,
        (("graph", G1, G2), ("edges", frozenset({"a"}), frozenset({"b"}))),
        ignored=("graph",),
    ),
    Spec(
        trees.Arborescence,
        (("dual", G1, G2), ("root", "f0", "f1"), ("arcs", frozenset({"a"}), frozenset())),
        defaults={"arcs": frozenset()},
        ignored=("dual", "root"),
    ),
    Spec(
        trees.MagicReport,
        (
            ("det", {"violet": 2}, {"violet": 3}),
            ("enum", {"violet": 2}, {"violet": None}),
            ("hypertrees", {"VE": 2}, {"VE": None}),
            ("agree", True, False),
        ),
        hashable=False,
    ),
    Spec(
        trinity.Triangle,
        (
            ("face", "f0", "f1"),
            ("index", 0, 1),
            ("dart", "a.0", "a.1"),
            ("shade", "black", "white"),
            ("violet", "v0", "v1"),
            ("emerald", "e0", "e1"),
        ),
    ),
    Spec(trinity.Arc, (("id", "a", "b"), ("tail", "f0", "f1"), ("head", "f1", "f0"))),
    Spec(
        trinity.DirectedDual,
        (("colour", "red", "violet"), ("vertices", ("f0", "f1"), ("f0",)), ("arcs", (ARC,), ())),
    ),
]


def test_every_record_class_is_specified():
    assert len(SPECS) == len({spec.cls for spec in SPECS}) == 22


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
def test_record_construction(spec):
    names = [name for name, _value, _other in spec.fields]
    values = [value for _name, value, _other in spec.fields]
    by_position = spec.cls(*values)
    by_keyword = spec.cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == values
    required = spec.bare or values[: len(values) - len(spec.defaults)]
    bare = spec.cls(*required)
    assert list(spec.defaults) == names[len(names) - len(spec.defaults):]
    assert {name: getattr(bare, name) for name in spec.defaults} == spec.defaults


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
def test_record_equality_and_hash(spec):
    values = {name: value for name, value, _other in spec.fields}
    record = spec.cls(**values)
    assert record == spec.cls(**values)
    if not spec.hashable:
        with pytest.raises(TypeError):
            hash(record)
    for name, _value, other in spec.fields:
        changed = spec.cls(**{**values, name: other})
        assert (changed == record) is (name in spec.ignored), name
        if spec.hashable and name in spec.ignored:
            assert hash(changed) == hash(record), name
    if spec.hashable:
        assert hash(record) == hash(spec.cls(**values))
        assert len({record, spec.cls(**values)}) == 1


def test_importing_the_cli_generates_no_classes():
    # dataclasses writes each class's methods as source text and execs it,
    # and imports inspect to do so; every invocation would pay for both
    code = "import sys, trinities.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(trinities.__file__).parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
