"""The package's record classes: construction, equality and hashing.

Each record is a plain class with a hand-written ``__init__``; these tests
pin what its callers rely on: positional order and keyword names, with
every argument required. Every record compares and hashes by identity: a
configuration, the one value the tree-hugging oracle compares, is a tuple
of partner tuples, not a record.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import trinities
from trinities import cli, dividing, fkt, plane_graph, transitions, trees, trinity


class Spec(NamedTuple):
    cls: type
    fields: tuple  # (name, value), in constructor order


# a stand-in for back-references
G1 = object()
COMPONENT = transitions.Component(0, 1, (0,), (1,), 0)

SPECS = [
    Spec(
        cli.VerificationSuite,
        (("instance", "g"), ("stages", {"census": {}}), ("seconds", {"census": 0.0})),
    ),
    Spec(dividing.TightVerdict, (("tight", True), ("loops", 1))),
    Spec(fkt.Universe, (("graph", G1), ("stars", ("f0", "f1")))),
    Spec(plane_graph.Vertex, (("id", "v0"), ("colour", "violet"), ("rotation", ("a.0",)))),
    Spec(plane_graph.Edge, (("id", "a"), ("darts", ("a.0", "a.1")))),
    Spec(plane_graph.Face, (("id", "f0"), ("boundary", ("a.0",)))),
    Spec(
        transitions.Component,
        (
            ("id", 0),
            ("size", 1),
            ("euler", (0,)),
            ("hypertree", (1,)),
            ("representative", 0),
        ),
    ),
    Spec(
        transitions.ConfigurationGraph,
        (
            ("trinity", G1),
            ("diagrams", (((1, 0),),)),
            ("codes", [0]),
            ("component_of", (0,)),
            ("components", (COMPONENT,)),
            ("total_configurations", 1),
            ("disc_euler", ({0: 0},)),
        ),
    ),
    Spec(
        trees.MagicReport,
        (
            ("det", {"violet": 2}),
            ("enum", {"violet": 2}),
            ("hypertrees", {"VE": 2}),
            ("agree", True),
        ),
    ),
    Spec(
        trinity.Triangle,
        (
            ("face", "f0"),
            ("index", 0),
            ("dart", "a.0"),
            ("shade", "black"),
            ("violet", "v0"),
            ("emerald", "e0"),
        ),
    ),
    Spec(trinity.DirectedDual, (("colour", "red"), ("vertices", ("f0", "f1")), ("tail", [0]), ("head", [1]))),
]


def test_every_record_class_is_specified():
    assert len(SPECS) == len({spec.cls for spec in SPECS}) == 11


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
def test_record_construction(spec):
    names = [name for name, _value in spec.fields]
    values = [value for _name, value in spec.fields]
    by_position = spec.cls(*values)
    by_keyword = spec.cls(**dict(spec.fields))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == values
    # no argument has a default
    with pytest.raises(TypeError):
        spec.cls(*values[:-1])


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
def test_record_equality_and_hash(spec):
    values = dict(spec.fields)
    record, same = spec.cls(**values), spec.cls(**values)
    assert record == record and record != same
    assert len({record, same}) == 2


def test_importing_the_cli_generates_no_classes():
    # dataclasses writes each class's methods as source text and execs it,
    # and imports inspect to do so; every invocation would pay for both.
    # The cli's own imports load every package module (the package's
    # __init__ imports none); perfbench reads each as an attribute of the package
    code = (
        "import sys, trinities.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)));"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'trinities'))"
    )
    modules = sorted(["trinities", *(f"trinities.{info.name}" for info in pkgutil.iter_modules(trinities.__path__))])
    src = str(Path(trinities.__file__).parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"[]\n{modules}\n"
