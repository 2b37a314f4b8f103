"""Command-line orchestration and the built-in graph corpus.

Reports are JSON on stdout (byte-stable for fixed inputs: deterministic
orderings, sorted keys, no timestamps); a human summary goes to stderr.
Exit status: 0 pass, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import fkt, hypertrees, plane_graph, transitions, trinity
from .limits import DEFAULT_CAP, InputError, ModelFailure


class UnknownFamily(InputError):
    """Corpus family tag not recognised."""


class SizeOutOfRange(InputError):
    """Corpus size outside 1..MAX_GEN_SIZE."""


GEN_FAMILIES = ("path", "even_cycle", "theta", "grid", "ladder")
MAX_GEN_SIZE = 64


# -- corpus generators -------------------------------------------------------------


def generate_corpus(family, size):
    """Deterministic corpus instance with a valid embedding and colouring."""
    if family not in GEN_FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; choose from {GEN_FAMILIES}")
    if not 1 <= size <= MAX_GEN_SIZE:
        raise SizeOutOfRange(f"corpus size {size} is out of range 1-{MAX_GEN_SIZE}")
    build = {"path": _path_document, "even_cycle": _cycle_document, "theta": _theta_document}
    if family in build:
        return build[family](size)
    return _grid_document(size, size if family == "grid" else 1)  # a ladder is 1 high


def _colour(i):
    return "violet" if i % 2 == 0 else "emerald"


def _path_document(k):
    vertices = []
    for i in range(k + 1):
        rotation = []
        if i > 0:
            rotation.append(f"p{i - 1}.1")
        if i < k:
            rotation.append(f"p{i}.0")
        vertices.append({"id": f"v{i}", "colour": _colour(i), "rotation": rotation})
    edges = plane_graph.edge_records([f"p{i}" for i in range(k)])
    return {"vertices": vertices, "edges": edges}


def _cycle_document(k):
    m = 2 * k
    vertices = [
        {"id": f"c{i}", "colour": _colour(i), "rotation": [f"e{(i - 1) % m}.1", f"e{i}.0"]}
        for i in range(m)
    ]
    edges = plane_graph.edge_records([f"e{i}" for i in range(m)])
    return {"vertices": vertices, "edges": edges}


def _theta_document(m):
    """Two hubs joined by m once-subdivided strands (even theta graph)."""
    vertices = [
        # strand 0 on top; counterclockwise at the left hub is bottom-to-top
        {"id": "h0", "colour": "violet", "rotation": [f"a{i}.0" for i in reversed(range(m))]},
        {"id": "h1", "colour": "violet", "rotation": [f"b{i}.1" for i in range(m)]},
    ]
    vertices += [
        {"id": f"s{i}", "colour": "emerald", "rotation": [f"a{i}.1", f"b{i}.0"]} for i in range(m)
    ]
    edges = plane_graph.edge_records([e for i in range(m) for e in (f"a{i}", f"b{i}")])
    return {"vertices": vertices, "edges": edges}


def _grid_document(kx, ky):
    def h(x, y):
        return f"h{x}_{y}"

    def v(x, y):
        return f"v{x}_{y}"

    vertices = []
    edges = []  # edge ids, each owning darts id.0 and id.1
    for x in range(kx + 1):
        for y in range(ky + 1):
            rotation = []
            if x < kx:
                edges.append(h(x, y))
                rotation.append(h(x, y) + ".0")  # east
            if y < ky:
                edges.append(v(x, y))
                rotation.append(v(x, y) + ".0")  # north
            if x > 0:
                rotation.append(h(x - 1, y) + ".1")  # west
            if y > 0:
                rotation.append(v(x, y - 1) + ".1")  # south
            vertices.append(
                {"id": f"g{x}_{y}", "colour": _colour(x + y), "rotation": rotation}
            )
    return {"vertices": vertices, "edges": plane_graph.edge_records(edges)}


# -- verification suite ----------------------------------------------------------------


class VerificationSuite:
    __slots__ = ("instance", "stages", "seconds")

    def __init__(self, instance: str, stages: dict, seconds: dict):
        self.instance = instance
        self.stages = stages
        self.seconds = seconds

    @property
    def ok(self):
        # the census reports counts and carries no verdict
        return all(s["ok"] for s in self.stages.values() if "ok" in s)

    def to_json(self):
        # timings are reported on stderr only, keeping this byte-stable
        return {"instance": self.instance, "stages": self.stages, "pass": self.ok}


def run_verification(graph, instance="graph", cap=DEFAULT_CAP):
    """Run the census, magic, hypertree and classification stages.

    The stages share the trinity's memoised duals, hypertree sets and magic
    report. The configuration cap is checked before any stage runs, since
    the classification stage would otherwise refuse the instance only after
    the tree stages had done their work. A model bug found in a stage
    fails that stage with a reason instead of escaping, and the later
    stages still run.
    """
    suite = VerificationSuite(instance, {}, {})

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            suite.stages[name] = fn()
        except ModelFailure as exc:
            suite.stages[name] = {"ok": False, "reason": _reason(exc)}
        suite.seconds[name] = time.perf_counter() - t0

    trin = trinity.build_trinity(graph, cap)
    transitions.configuration_count(trin)

    def magic_stage():
        report = trin.magic_report
        return {**report.to_json(), "ok": report.agree}

    def hypertree_stage():
        sets = {label: trin.hypertree_set(label) for label in hypertrees.HYPERGRAPH_LABELS}
        counts = {label: len(found) for label, found in sets.items()}
        ok = len(set(counts.values())) == 1
        pairs_ok = all([
            hypertrees.translate_offset(sets[a], sets[b]) is not None
            for a, b in (("VE", "RE"), ("ER", "VR"), ("RV", "EV"))
        ])
        return {
            "counts": {k: str(v) for k, v in sorted(counts.items())},
            "planar_dual_translates": pairs_ok,
            "ok": ok and pairs_ok,
        }

    def classify_stage():
        graph_c = transitions.build_configuration_graph(trin)
        transitions.classify_components(graph_c)
        counts_ok = graph_c.component_count() == trin.magic_report.value
        return {
            "total_configurations": str(graph_c.total_configurations),
            "tight_configurations": str(len(graph_c.choices)),
            "components": str(graph_c.component_count()),
            "matches_magic": counts_ok,
            "ok": counts_ok,
        }

    stage("census", trin.census)
    stage("magic", magic_stage)
    stage("hypertrees", hypertree_stage)
    stage("classification", classify_stage)
    return suite


# -- command implementations ---------------------------------------------------------------


def _read_document(path, flag):
    """The JSON document in the file named by ``flag``.

    Raises ``SchemaError`` when the flag is missing, or when the file is
    not UTF-8 JSON that the decoder can nest.
    """
    if not path:
        raise plane_graph.SchemaError(f"this command needs {flag} FILE")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            raise plane_graph.SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _load_graph(args):
    # the trinity checks the colouring when it is built
    return plane_graph.parse_graph(_read_document(args.graph, "--graph"))


def _load_universe(args):
    return fkt.parse_universe(_read_document(args.universe, "--universe"))


def _reason(exc):
    return f"{type(exc).__name__}: {exc}"


def _emit(args, payload, summary_lines, ok=True):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        for line in summary_lines:
            print(line, file=sys.stderr)
    else:
        for line in summary_lines:
            print(line)
    return 0 if ok else 1


def _cmd_census(args):
    trin = trinity.build_trinity(_load_graph(args), args.cap)
    census = trin.census()
    lines = [f"census: |V|={census['V']} |E|={census['E']} |R|={census['R']} n={census['n']}"]
    return _emit(args, census, lines)


def _cmd_magic(args):
    trin = trinity.build_trinity(_load_graph(args), args.cap)
    report = trin.magic_report
    lines = [
        f"magic number: {report.value}",
        f"all counts agree: {'pass' if report.agree else 'FAIL'}",
    ]
    return _emit(args, report.to_json(), lines, report.agree)


def _cmd_hypertrees(args):
    trin = trinity.build_trinity(_load_graph(args), args.cap)
    payload = []
    lines = []
    for label in hypertrees.HYPERGRAPH_LABELS:
        hts = trin.hypertree_set(label)
        # every vector lists its hyperedges in the same, sorted order
        payload.append(
            {
                "hypergraph": label,
                "hyperedges": [e for e, _ in hts[0]],
                "vectors": [[f for _, f in h] for h in hts],
                "count": len(hts),
            }
        )
        lines.append(f"hypertrees {label}: {len(hts)}")
    return _emit(args, payload, lines)


def _cmd_configs(args):
    trin = trinity.build_trinity(_load_graph(args), args.cap)
    graph_c = transitions.build_configuration_graph(trin)
    tight = len(graph_c.choices)
    payload = {
        "total": str(graph_c.total_configurations),
        "tight": str(tight),
        "configurations": list(map(graph_c.vertex_json, range(tight))),
    }
    lines = [f"configurations: {graph_c.total_configurations} total, {tight} tight"]
    return _emit(args, payload, lines)


def _cmd_classify(args):
    trin = trinity.build_trinity(_load_graph(args), args.cap)
    graph_c = transitions.build_configuration_graph(trin)
    transitions.classify_components(graph_c)
    lines = [f"components: {graph_c.component_count()}"]
    return _emit(args, transitions.classification_json(graph_c), lines)


def _cmd_verify(args):
    graph = _load_graph(args)
    suite = run_verification(graph, args.graph, args.cap)
    lines = []
    for name, stage in suite.stages.items():
        verdict = ("pass" if stage["ok"] else "FAIL") if "ok" in stage else "reported"
        lines.append(f"{name}: {verdict}  ({suite.seconds[name]:.3f}s)")
    lines.append(f"verdict: {'pass' if suite.ok else 'FAIL'}")
    return _emit(args, suite.to_json(), lines, suite.ok)


def _cmd_states(args):
    universe = _load_universe(args)
    codes = fkt.enumerate_states(universe, args.cap)
    states = [{"markers": fkt.markers(universe, code)} for code in codes]
    return _emit(args, {"count": str(len(codes)), "states": states}, [f"states: {len(codes)}"])


def _cmd_clock(args):
    universe = _load_universe(args)
    _codes, ends, targets = fkt.clock_graph(universe, args.cap)
    report = fkt.clock_report(ends, targets)
    lines = [
        f"clock graph: {report['states']} states, {report['arcs']} arcs",
        f"structure checks: {'pass' if report['ok'] else 'FAIL'}",
    ]
    return _emit(args, report, lines, report["ok"])


def _cmd_dual(args):
    if args.universe:
        universe = _load_universe(args)
        dual = fkt.universe_dual_graph(universe)
    else:
        dual = plane_graph.planar_dual(plane_graph.ensure_bicoloured(_load_graph(args)))
    payload = plane_graph.to_document(dual)
    lines = [f"dual: {len(dual.vertices)} vertices, {len(dual.edges)} edges"]
    return _emit(args, payload, lines)


def _cmd_correspond(args):
    universe = _load_universe(args)
    report = fkt.states_vs_configurations(universe, args.cap)
    # every failure raises MappingFailure first, so "ok" is always true
    counts = report["states"], report["tight_configurations"], report["magic"]
    lines = ["states: {}, tight configurations: {}, magic: {}".format(*counts)]
    return _emit(args, report, lines)


def _cmd_gen(args):
    doc = generate_corpus(args.family, args.size)
    plane_graph.validate_bipartite_plane(plane_graph.parse_graph(doc))  # the generator's self-check
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.family}_{args.size}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        line = f"wrote {path}"
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
        line = f"generated {args.family} size {args.size}"
    print(line, file=sys.stderr)
    return 0


# -- entry point ------------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="trinities",
        description="Verify the counting identities of a plane bipartite graph's trinity.",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap per stage")
    parser.add_argument("--format", choices=("json", "summary"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs in (
        ("census", _cmd_census, "graph"),
        ("magic", _cmd_magic, "graph"),
        ("hypertrees", _cmd_hypertrees, "graph"),
        ("configs", _cmd_configs, "graph"),
        ("classify", _cmd_classify, "graph"),
        ("verify", _cmd_verify, "graph"),
        ("states", _cmd_states, "universe"),
        ("clock", _cmd_clock, "universe"),
        ("dual", _cmd_dual, "either"),
        ("correspond", _cmd_correspond, "universe"),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if needs in ("graph", "either"):
            p.add_argument("--graph", help="graph JSON file")
        if needs in ("universe", "either"):
            p.add_argument("--universe", help="universe JSON file")
    g = sub.add_parser("gen")
    g.set_defaults(fn=_cmd_gen)
    g.add_argument("--family", required=True, choices=GEN_FAMILIES)
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--out", help="directory for generated documents")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cap < 0:
            parser.error(f"argument --cap: {args.cap} is negative")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelFailure as exc:
        reason = _reason(exc)
        lines = [f"{args.command}: FAIL ({reason})"]
        return _emit(args, {"ok": False, "reason": reason}, lines, ok=False)


if __name__ == "__main__":
    sys.exit(main())
