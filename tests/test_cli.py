"""Command-line interface: subcommands, exit codes, byte-stable reports."""

import functools
import gc
import json
import re
import weakref
from collections import Counter

import pytest

from corpus import loop_document, running_example_document, triangle_document
from trinities import cli, dividing, fkt, hypertrees, limits, transitions, trees, trinity
from trinities import plane_graph as pg


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    doc = cli.generate_corpus("even_cycle", 2)
    return write_json(tmp_path, "c4.json", doc)


@pytest.fixture()
def fig8_file(tmp_path):
    return write_json(tmp_path, "fig8.json", fkt.figure_eight_universe())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_four_cycle(capsys, c4_file):
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["stages"]["magic"]["det"]["violet"] == "2"
    assert doc["stages"]["classification"]["components"] == "2"
    assert "verdict: pass" in err


def test_verify_triangle_is_usage_error(capsys, tmp_path):
    path = write_json(tmp_path, "triangle.json", triangle_document())
    code, _out, err = run(capsys, "verify", "--graph", path)
    assert code == 2
    assert "not bipartite" in err


@pytest.mark.parametrize("colour", [None, "violet"])
def test_verify_names_a_loop_once(capsys, tmp_path, colour):
    path = write_json(tmp_path, "loop.json", loop_document(colour))
    assert run(capsys, "verify", "--graph", path) == (2, "", "error: graph has a loop edge\n")


def test_missing_file_is_usage_error(capsys):
    code, _out, err = run(capsys, "verify", "--graph", "does_not_exist.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv", [("census", "--graph"), ("states", "--universe")], ids=["graph", "universe"]
)
def test_unreadable_path_is_usage_error(capsys, tmp_path, argv):
    # a directory cannot be opened as a file: IsADirectoryError, an OSError
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [("census", "--graph"), ("states", "--universe")], ids=["graph", "universe"]
)
@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"]
)
def test_unreadable_json_is_usage_error(capsys, tmp_path, argv, content):
    # a UnicodeDecodeError or the decoder's RecursionError is a usage error, not a traceback
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ")


@pytest.mark.parametrize("stars", [None, 5, "ab"], ids=["null", "number", "string"])
def test_stars_of_the_wrong_type_are_a_usage_error(capsys, tmp_path, stars):
    doc = {**fkt.figure_eight_universe(), "stars": stars}
    path = write_json(tmp_path, "universe.json", doc)
    code, out, err = run(capsys, "states", "--universe", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: stars must be a list of two face ids")


def _vertex_id(doc, value):
    doc["vertices"][0]["id"] = value


def _edge_id(doc, value):
    doc["edges"][0]["id"] = value


def _dart(doc, value):
    # the rotation names the dart as its string form, which coercion would match
    (dart, _other) = doc["edges"][0]["darts"]
    for v in doc["vertices"]:
        v["rotation"] = [str(value) if d == dart else d for d in v["rotation"]]
    doc["edges"][0]["darts"][0] = value


@pytest.mark.parametrize(
    "argv, document",
    [
        (("verify", "--graph"), lambda: cli.generate_corpus("even_cycle", 2)),
        (("states", "--universe"), fkt.figure_eight_universe),
    ],
    ids=["graph", "universe"],
)
@pytest.mark.parametrize(
    "mutate, value, message",
    [
        (_vertex_id, None, "vertex id None is not a string"),
        (_vertex_id, [1], "vertex id [1] is not a string"),
        (_edge_id, 5, "edge id 5 is not a string"),
        (_dart, 7, "are not strings"),
        (_dart, ["e1.0"], "are not strings"),
    ],
    ids=["vertex-null", "vertex-list", "edge-number", "dart-number", "dart-list"],
)
def test_an_id_that_is_not_a_string_is_a_usage_error(
    capsys, tmp_path, argv, document, mutate, value, message
):
    doc = document()
    mutate(doc, value)
    code, out, err = run(capsys, *argv, write_json(tmp_path, "input.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_one_parser_serves_a_sequence_of_calls(capsys, c4_file, fig8_file):
    # the cached parser's ``fn`` defaults pin the ``_cmd_*`` functions as
    # they were when it was built; no test monkeypatches those functions
    calls = [
        ("verify", "--graph", c4_file),
        ("gen", "--family", "nope", "--size", "1"),
        ("clock", "--universe", fig8_file),
        ("gen", "--family", "path", "--size", "2"),
        ("correspond", "--universe", fig8_file),
        ("verify", "--graph", c4_file),
    ]
    first = {}
    for argv in calls:
        cli._build_parser.cache_clear()
        first[argv] = run(capsys, *argv)[:2]
    assert first[calls[1]][0] == 2
    assert all(first[argv][0] == 0 and first[argv][1] for argv in calls if argv != calls[1])
    cli._build_parser.cache_clear()
    for argv in calls:
        assert run(capsys, *argv)[:2] == first[argv], argv
    assert cli._build_parser() is cli._build_parser()


def test_census_running_example(capsys, tmp_path):
    path = write_json(tmp_path, "running.json", running_example_document())
    code, out, _err = run(capsys, "census", "--graph", path)
    assert code == 0
    doc = json.loads(out)
    assert (doc["V"], doc["E"], doc["R"], doc["n"]) == (5, 4, 4, 11)


def test_magic_running_example(capsys, tmp_path):
    path = write_json(tmp_path, "running.json", running_example_document())
    code, out, _err = run(capsys, "magic", "--graph", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == {"violet": "11", "emerald": "11", "red": "11"}
    assert doc["agree"] is True


def test_states_figure_eight(capsys, fig8_file):
    code, out, _err = run(capsys, "states", "--universe", fig8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "5"
    assert len(doc["states"]) == 5


def test_clock_figure_eight(capsys, fig8_file):
    code, out, _err = run(capsys, "clock", "--universe", fig8_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_correspond_figure_eight(capsys, fig8_file):
    code, out, _err = run(capsys, "correspond", "--universe", fig8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["states"] == "5"


def test_correspond_lists_its_states_through_enumerate_states(capsys, fig8_file, monkeypatch):
    calls = []
    real = fkt.enumerate_states
    monkeypatch.setattr(fkt, "enumerate_states", lambda universe, cap: calls.append(cap) or real(universe, cap))
    for _ in range(2):
        code, out, _err = run(capsys, "correspond", "--universe", fig8_file)
        assert code == 0 and json.loads(out)["states"] == "5"
    assert calls == [limits.DEFAULT_CAP] * 2


def test_dual_round_trips_through_schema(capsys, c4_file):
    code, out, _err = run(capsys, "dual", "--graph", c4_file)
    assert code == 0
    dual = pg.parse_graph(json.loads(out))
    assert len(dual.vertices) == 2
    assert len(dual.edges) == 4


def test_hypertrees_output(capsys, c4_file):
    code, out, _err = run(capsys, "hypertrees", "--graph", c4_file)
    assert code == 0
    doc = json.loads(out)
    assert {entry["hypergraph"] for entry in doc} == set("VE EV ER RE VR RV".split())
    for entry in doc:
        assert entry["count"] == 2
        assert len(entry["vectors"]) == 2


def test_configs_and_classify(capsys, c4_file):
    code, out, _err = run(capsys, "configs", "--graph", c4_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == "4" and doc["tight"] == "2"
    code, out, _err = run(capsys, "classify", "--graph", c4_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"components"}
    assert [comp["size"] for comp in doc["components"]] == [1, 1]


def test_reports_byte_stable(capsys, c4_file):
    _code, out1, _ = run(capsys, "verify", "--graph", c4_file)
    _code, out2, _ = run(capsys, "verify", "--graph", c4_file)
    assert out1 == out2


def test_summary_format(capsys, c4_file):
    code, out, _err = run(capsys, "--format", "summary", "magic", "--graph", c4_file)
    assert code == 0
    assert "magic number: 2" in out


# the summary lines that print a verdict, by command; each reads a boolean
# key that a fault case in tests/test_golden.py makes false
SUMMARY_VERDICTS = {
    "magic": ["all counts agree"],
    "verify": ["magic", "hypertrees", "classification", "verdict"],
    "clock": ["structure checks"],
}


@pytest.mark.parametrize(
    "command, option",
    [(c, "--graph") for c in ("census", "magic", "hypertrees", "configs", "classify", "verify", "dual")]
    + [(c, "--universe") for c in ("states", "clock", "dual", "correspond")],
)
def test_summary_format_of_every_command(capsys, c4_file, fig8_file, command, option):
    path = c4_file if option == "--graph" else fig8_file
    json_code, _out, _err = run(capsys, command, option, path)
    code, out, err = run(capsys, "--format", "summary", command, option, path)
    assert code == json_code == 0
    assert out and err == ""
    verdicts = re.findall(r"^(.+): (?:pass|FAIL)\b", out, re.MULTILINE)
    assert verdicts == SUMMARY_VERDICTS.get(command, [])


def test_gen_families(tmp_path, capsys):
    for family, size in (("path", 1), ("even_cycle", 2), ("theta", 3), ("grid", 2), ("ladder", 3)):
        code, _out, err = run(capsys, "gen", "--family", family, "--size", str(size), "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / f"{family}_{size}.json"
        doc = json.loads(path.read_text())
        graph = pg.parse_graph(doc)
        assert pg.validate_bipartite_plane(graph).keys() == graph.vertices.keys()


def test_gen_even_cycle_two_is_the_four_cycle():
    doc = cli.generate_corpus("even_cycle", 2)
    g = pg.parse_graph(doc)
    assert len(g.vertices) == 4 and len(g.edges) == 4


def test_gen_path_one_is_the_single_edge():
    doc = cli.generate_corpus("path", 1)
    g = pg.parse_graph(doc)
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_gen_theta_three_is_even(capsys):
    doc = cli.generate_corpus("theta", 3)
    g = pg.parse_graph(doc)
    assert len(g.edges) == 6
    assert pg.validate_bipartite_plane(g).keys() == g.vertices.keys()


def test_gen_refuses_a_document_that_fails_its_self_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_path_document", lambda k: triangle_document())
    expected = (2, "", "error: not bipartite: odd cycle\n")
    assert run(capsys, "gen", "--family", "path", "--size", "1") == expected


def test_gen_unknown_family(capsys):
    code, _out, err = run(capsys, "gen", "--family", "moebius", "--size", "2")
    assert code == 2


def test_unknown_family_error():
    with pytest.raises(cli.UnknownFamily):
        cli.generate_corpus("moebius", 2)


@pytest.mark.parametrize("size", [0, -1, 65])
def test_gen_size_out_of_range_is_a_usage_error(capsys, size):
    code, out, err = run(capsys, "gen", "--family", "path", "--size", str(size))
    assert code == 2
    assert out == ""
    assert err == f"error: corpus size {size} is out of range 1-64\n"
    with pytest.raises(cli.SizeOutOfRange):
        cli.generate_corpus("path", size)


def test_a_negative_cap_is_refused_when_parsed(capsys, c4_file, monkeypatch):
    monkeypatch.setattr(trinity, "build_trinity", _raise(AssertionError("a command ran")))
    code, out, err = run(capsys, "--cap", "-5", "verify", "--graph", c4_file)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: trinities")
    assert err.endswith("trinities: error: argument --cap: -5 is negative\n")


def test_verify_refuses_the_configuration_cap_before_any_tree_work(capsys, tmp_path, monkeypatch):
    # even_cycle 10 has two faces of half-length 10: Catalan(10)^2 > 10^6
    path = write_json(tmp_path, "c20.json", cli.generate_corpus("even_cycle", 10))

    def no_trees(*args, **kwargs):
        pytest.fail("spanning trees enumerated before the configuration cap was checked")

    monkeypatch.setattr(trees, "enumerate_spanning_trees", no_trees)
    monkeypatch.setattr(hypertrees, "enumerate_spanning_trees", no_trees)
    code, out, err = run(capsys, "verify", "--graph", path)
    assert code == 2
    assert out == ""
    assert "configuration enumeration: 282105616 objects exceed cap 1000000" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


_real_regions = dividing.regions


def _flip_end_arcs(face, partner, sign):
    # with n >= 2 the chord (0, q) leaves arcs 0 and q - 1 in one region
    # when q > 1, and arcs 1 and 2n - 1 in the root region when q = 1, so
    # flipping arcs 0 and 2n - 1 mixes a region of every diagram
    return _real_regions(face, partner, (-sign[0],) + sign[1:-1] + (-sign[-1],))


MODEL_FAILURE_CASES = [
    (transitions, "classify_components", _raise(transitions.NotBijective("components 1 vs hypertrees 2")), "NotBijective"),
    (transitions, "_hugged_tree", lambda graph, regions, i: (False, None), "NotTreeHuggingReachable"),
    (dividing, "euler_and_hug", lambda regions: (0, True), "EulerNotConstant"),
    (dividing, "glued_loops", lambda chord, glue: 2, "BuiltNotTight"),
    (dividing, "regions", _flip_end_arcs, "MixedRegion"),
    (transitions, "_hugging_partner", lambda corner, tree: (), "NoHugBack"),
    # two roots: the witness leaves a vertex out
    (trees, "components", lambda index, edges: [0, 1], "NotSpanning"),
]


@pytest.mark.parametrize("owner, name, replacement, reason", MODEL_FAILURE_CASES)
def test_model_failures_fail_the_classification_stage(capsys, c4_file, monkeypatch, owner, name, replacement, reason):
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    stage = doc["stages"]["classification"]
    assert stage["ok"] is False
    assert stage["reason"].startswith(reason + ": ")
    assert all(doc["stages"][s]["ok"] for s in ("magic", "hypertrees"))
    assert "classification: FAIL" in err


@pytest.mark.parametrize("owner, name, replacement, reason", MODEL_FAILURE_CASES)
def test_model_failures_fail_classify(capsys, c4_file, monkeypatch, owner, name, replacement, reason):
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run(capsys, "classify", "--graph", c4_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["reason"].startswith(reason + ": ")
    assert "classify: FAIL (" + reason in err


def _assert_correspond_fails(capsys, fig8_file, reason):
    code, out, err = run(capsys, "correspond", "--universe", fig8_file)
    assert code == 1
    assert json.loads(out) == {"ok": False, "reason": "MappingFailure: " + reason}
    assert "correspond: FAIL (MappingFailure" in err


def test_mapping_failure_fails_correspond(capsys, fig8_file, monkeypatch):
    # a missing state leaves a tight configuration without a state
    real_search = fkt._search
    monkeypatch.setattr(fkt, "_search", lambda universe, cap: list(real_search(universe, cap))[1:])
    _assert_correspond_fails(capsys, fig8_file, "states do not biject with tight configurations")


def test_two_states_on_one_configuration_fail_correspond(capsys, fig8_file, monkeypatch):
    # a repeated state code gives an image smaller than the states
    real_search = fkt._search
    monkeypatch.setattr(fkt, "_search", lambda universe, cap: [*real_search(universe, cap)] * 2)
    _assert_correspond_fails(capsys, fig8_file, "states do not biject with tight configurations")


def test_a_crossing_split_fails_correspond(capsys, fig8_file, monkeypatch):
    # pairing rotation darts 0 with 2 and 1 with 3 makes two crossing chords
    def split_pairs(graph, v, parity):
        rot = graph.vertices[v].rotation
        return frozenset((rot[0], rot[2])), frozenset((rot[1], rot[3]))

    monkeypatch.setattr(fkt, "split_pairs", split_pairs)
    code, out, err = run(capsys, "correspond", "--universe", fig8_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["reason"].startswith("MappingFailure: face ")
    assert "makes no chord diagram" in doc["reason"]
    assert "correspond: FAIL (MappingFailure" in err


def test_move_to_an_unlisted_state_fails_clock(capsys, fig8_file, monkeypatch):
    # state 3 moves to state 0; with state 0 dropped, state 3 becomes state 2
    real_search = fkt._search
    monkeypatch.setattr(fkt, "_search", lambda universe, cap: list(real_search(universe, cap))[1:])
    code, out, err = run(capsys, "clock", "--universe", fig8_file)
    assert code == 1
    doc = json.loads(out)
    assert doc == {
        "ok": False,
        "reason": "MoveLeavesStates: state 2: the move at b and m leaves the states",
    }
    assert "clock: FAIL (MoveLeavesStates" in err


def test_magic_reports_an_enumeration_that_misses_its_determinant(capsys, c4_file, monkeypatch):
    real = trees.count_arborescences
    monkeypatch.setattr(trees, "count_arborescences", lambda dual, root: real(dual, root) + 1)
    code, out, err = run(capsys, "magic", "--graph", c4_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["agree"] is False
    assert doc["det"]["violet"] == "3" and doc["enum"]["violet"] == "2"
    assert "all counts agree: FAIL" in err


def _assert_stages_fail(out, err, reasons):
    """A verify report that fails exactly the stages in ``reasons``, each
    with its reason, and passes the others."""
    doc = json.loads(out)
    assert doc["pass"] is False
    for name, stage in doc["stages"].items():
        if name in reasons:
            assert stage == {"ok": False, "reason": reasons[name]}, name
            assert f"{name}: FAIL" in err
        else:
            assert stage.get("ok", True) is True, name


def _drop_a_witness_edge(monkeypatch):
    real = hypertrees._ExchangeGraph.augment

    def drop_an_edge(self, j):
        witness = real(self, j)
        return witness[:-1] if witness else witness

    monkeypatch.setattr(hypertrees._ExchangeGraph, "augment", drop_an_edge)


# VE is the first hypergraph searched, and its first move finds (0, 1);
# the classification stage searches ER first
BAD_WITNESS = "BadWitness: {}: witness for (0, 1) has 2 edges and 2 components on 4 vertices"
BAD_WITNESS_STAGES = {"magic": "VE", "hypertrees": "VE", "classification": "ER"}


@pytest.mark.parametrize("command", ["verify", "hypertrees"])
def test_bad_witness_fails_with_a_reason(capsys, c4_file, monkeypatch, command):
    _drop_a_witness_edge(monkeypatch)
    code, out, err = run(capsys, command, "--graph", c4_file)
    assert code == 1
    if command == "verify":
        _assert_stages_fail(out, err, {name: BAD_WITNESS.format(h) for name, h in BAD_WITNESS_STAGES.items()})
    else:
        assert json.loads(out) == {"ok": False, "reason": BAD_WITNESS.format("VE")}
        assert f"{command}: FAIL (BadWitness: " in err


def test_a_failed_hypertree_search_is_not_repeated(capsys, c4_file, monkeypatch):
    # the hypertrees stage reads the magic stage's failed VE search, not a new one
    _drop_a_witness_edge(monkeypatch)
    searched = Counter()
    real = hypertrees.enumerate_hypertrees

    def spy(hypergraph, cap):
        searched[hypergraph.label] += 1
        return real(hypergraph, cap)

    monkeypatch.setattr(hypertrees, "enumerate_hypertrees", spy)
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 1
    _assert_stages_fail(out, err, {name: BAD_WITNESS.format(h) for name, h in BAD_WITNESS_STAGES.items()})
    assert searched == Counter({"VE": 1, "ER": 1})


def test_hypertree_sets_on_different_hyperedges_fail_verify(capsys, c4_file, monkeypatch):
    mismatch = hypertrees.IndexMismatch("hypertree sets indexed by different hyperedges")
    monkeypatch.setattr(hypertrees, "translate_offset", _raise(mismatch))
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 1
    reason = "IndexMismatch: hypertree sets indexed by different hyperedges"
    _assert_stages_fail(out, err, {"hypertrees": reason})


def test_a_model_failure_in_the_magic_stage_fails_that_stage(capsys, c4_file, monkeypatch):
    # the classification stage compares its components with the magic number
    class Unlisted(limits.ModelFailure):
        """A model bug that no command names."""

    monkeypatch.setattr(trees, "magic_number", _raise(Unlisted("counts disagree")))
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 1
    reason = "Unlisted: counts disagree"
    _assert_stages_fail(out, err, {"magic": reason, "classification": reason})


def test_a_cap_exceeded_in_a_stage_is_still_a_usage_error(capsys, c4_file, monkeypatch):
    refused = limits.CapExceeded("hypertree enumeration: 3 objects exceed cap 2")
    monkeypatch.setattr(trees, "magic_number", _raise(refused))
    assert run(capsys, "verify", "--graph", c4_file) == (2, "", f"error: {refused}\n")


def test_a_new_model_failure_fails_the_classification_stage(capsys, c4_file, monkeypatch):
    class Unlisted(limits.ModelFailure):
        """A model bug that no command names."""

    monkeypatch.setattr(transitions, "classify_components", _raise(Unlisted("two roots")))
    code, out, err = run(capsys, "verify", "--graph", c4_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["stages"]["classification"] == {"ok": False, "reason": "Unlisted: two roots"}
    assert "classification: FAIL" in err


def test_a_new_input_error_is_a_usage_error(capsys, c4_file, monkeypatch):
    class Unlisted(limits.InputError):
        """A refusal that no command names."""

    monkeypatch.setattr(pg, "parse_graph", _raise(Unlisted("graph refused")))
    assert run(capsys, "verify", "--graph", c4_file) == (2, "", "error: graph refused\n")


def test_verify_checks_the_colouring_and_traces_the_corners_once(capsys, c4_file, monkeypatch):
    calls = {"validate": 0, "corners": 0}
    real_validate = pg.validate_bipartite_plane
    real_corners = trinity.Trinity.corners.func

    def validate(graph):
        calls["validate"] += 1
        return real_validate(graph)

    def corners(self):
        calls["corners"] += 1
        return real_corners(self)

    counted = functools.cached_property(corners)
    counted.__set_name__(trinity.Trinity, "corners")
    monkeypatch.setattr(pg, "validate_bipartite_plane", validate)
    monkeypatch.setattr(trinity.Trinity, "corners", counted)
    assert run(capsys, "verify", "--graph", c4_file)[0] == 0
    assert calls == {"validate": 1, "corners": 1}


def test_verify_enumerates_each_tree_family_once(graphs, monkeypatch):
    calls = {"spanning": 0, "arborescence": 0}
    real_spanning = trees.enumerate_spanning_trees
    real_arborescences = trees.enumerate_arborescences

    def spanning(*args, **kwargs):
        calls["spanning"] += 1
        return real_spanning(*args, **kwargs)

    def arborescences(*args, **kwargs):
        calls["arborescence"] += 1
        return real_arborescences(*args, **kwargs)

    monkeypatch.setattr(trees, "enumerate_spanning_trees", spanning)
    monkeypatch.setattr(hypertrees, "enumerate_spanning_trees", spanning)
    monkeypatch.setattr(trees, "enumerate_arborescences", arborescences)
    suite = cli.run_verification(graphs["grid2"])
    assert suite.ok
    assert calls["spanning"] <= 6
    assert calls["arborescence"] <= 3


def test_verify_takes_each_determinant_once(graphs, monkeypatch):
    orders = []
    real = trees.bareiss_determinant

    def counted(rows):
        orders.append(len(rows))
        return real(rows)

    monkeypatch.setattr(trees, "bareiss_determinant", counted)
    suite = cli.run_verification(graphs["grid2"])
    assert suite.ok
    # one per directed dual and one per colour graph, which hosts two hypergraphs
    assert len(orders) == 6


def test_finished_verification_releases_its_trinity(graphs, monkeypatch):
    built = []
    real_build = trinity.build_trinity

    def build(graph, cap):
        t = real_build(graph, cap)
        built.append(weakref.ref(t))
        return t

    monkeypatch.setattr(trinity, "build_trinity", build)
    assert cli.run_verification(graphs["cycle6"]).ok
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
