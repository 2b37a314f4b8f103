"""The trinities benchmark: one workload per fresh process, one JSON result line.

    python3 perfbench/run.py --workload verify-trees --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process. The workload process builds its inputs from ``--seed``
(setup), then drives ``trinities.cli.main`` in-process with the argv a user
would type, checks every report against expected counts, and repeats
passes over the workload's invocations until ``--seconds`` have elapsed.
Human-readable lines come first; the last line of stdout is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 1
# setups repeat for this long (and at least SETUP_REPEATS times) and the
# median is reported: one setup lasts well under a second, and the
# machine's speed can change from one second to the next
SETUP_SECONDS = 2.0
SETUP_REPEATS = 5
# distinct relabellings per run: pass i uses relabelling i % VARIANTS of the seed
VARIANTS = 8
# The end-to-end figures come from the first WINDOW plain passes, so they do
# not depend on how many passes fit in the run: the package's lru_cache keeps
# every trinity alive, and memory and collection costs grow with each pass.
WINDOW = 2 * VARIANTS
# corpus-sweep fills the window (16 x 30 invocations put at least ten beyond p90)
MIN_PLAIN_PASSES = {"corpus-sweep": WINDOW}
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "verify-trees": [("verify", "ladder6"), ("verify", "theta8")],
    "verify-discs": [("verify", "even_cycle7")],
    "universes": [("clock", "medial_ladder7"), ("correspond", "medial_ladder3")],
    "corpus-sweep": [("verify", f"path{k}") for k in range(1, 9)]
    + [("verify", f"even_cycle{k}") for k in range(2, 6)]
    + [("verify", f"theta{m}") for m in range(2, 7)]
    + [("verify", f"ladder{k}") for k in range(1, 5)]
    + [("verify", "grid1"), ("verify", "grid2"), ("verify", "running11")]
    + [(cmd, u) for u in ("curl", "hopf", "figure_eight") for cmd in ("correspond", "clock")],
}


def unit_of(metric):
    """Units follow the metric name: seconds end in _s, ratios in _ratio."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, failed self-check)."""


# -- setup --------------------------------------------------------------------------


def import_package():
    """Import ``trinities`` afresh from this checkout's ``src``."""
    if not (SRC / "trinities" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "trinities" or n.startswith("trinities.")]:
        del sys.modules[name]
    package = importlib.import_module("trinities")
    importlib.import_module("trinities.cli")
    if Path(package.__file__).resolve().parent != SRC / "trinities":
        raise BenchmarkError(f"imported trinities from {package.__file__}, not {SRC}")
    return package


def setup(workload, seed):
    """Import the package, then generate and self-check every input.

    Returns the package and, for each relabelling of the seed, one
    (command, generated input) pair per invocation of the workload.
    """
    package = import_package()
    variants = [
        [
            (command, inputs.generate(inputs.INSTANCES[name], f"{seed}/{variant}", package))
            for command, name in WORKLOADS[workload]
        ]
        for variant in range(VARIANTS)
    ]
    return package, variants


def write_inputs(variants, workdir):
    """Write the inputs; ``passes[v]`` lists (command, argv, expected) per invocation."""
    passes = []
    for variant, pairs in enumerate(variants):
        invocations = []
        for command, generated in pairs:
            instance = generated.instance
            path = workdir / f"{instance.name}-{variant}.json"
            path.write_text(json.dumps(generated.document))
            argv = ["--cap", str(instance.cap)] if instance.cap else []
            argv += [command, f"--{instance.kind}", str(path)]
            invocations.append((command, argv, expected_answers(generated)))
        passes.append(invocations)
    return passes


def expected_answers(generated):
    instance = generated.instance
    answers = {"count": generated.expected, "source": instance.source}
    if instance.kind == "graph":
        total = 1
        for half_length in instance.fingerprint[2]:
            total *= inputs.catalan(half_length)
        answers["total_configurations"] = total
    return answers


# -- checking ------------------------------------------------------------------------


def check_report(command, expected, stdout):
    """Reason the report is wrong, or None when it is right."""
    doc = json.loads(stdout)
    want = str(expected["count"])
    if command == "verify":
        stages = doc["stages"]
        magic = stages["magic"]
        counts = {
            **{f"det.{k}": v for k, v in magic["det"].items()},
            **{f"enum.{k}": v for k, v in magic["enum"].items()},
            **{f"magic.hypertrees.{k}": v for k, v in magic["hypertrees"].items()},
            **{f"hypertrees.{k}": v for k, v in stages["hypertrees"]["counts"].items()},
            "components": stages["classification"]["components"],
        }
        if doc["pass"] is not True:
            return '"pass": false'
        if len(counts) != 19:
            return f"expected 19 counts (3 det, 3 enum, 6 + 6 hypertrees, components), got {len(counts)}"
        total = stages["classification"]["total_configurations"]
        if total != str(expected["total_configurations"]):
            return f"total_configurations {total} != {expected['total_configurations']}"
    elif command == "clock":
        counts = {"states": str(doc["states"])}
    else:
        counts = {k: doc[k] for k in ("states", "tight_configurations", "magic")}
        if doc["bijective"] is not True:
            return '"bijective": false'
    if command != "verify" and doc["ok"] is not True:
        return '"ok": false'
    wrong = {k: v for k, v in counts.items() if v != want}
    if wrong:
        return f"expected {want} ({expected['source']}), got {wrong}"
    return None


def invoke(main, command, argv, expected):
    """Run one cli.main call; returns (seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # any escape from cli.main is a failed invocation
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if code != 0:
        return seconds, f"exit {code}: {err.getvalue().strip()[-300:]}"
    try:
        return seconds, check_report(command, expected, out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        return seconds, f"unreadable report: {type(exc).__name__}: {exc}"


# -- the timed phase --------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.by_command = {}
        self.latencies = []
        self.failures = []
        self.marks = None  # speed-sampler marks at the start and end of the pass


def run_pass(package, invocations, recorder=None, sampler=None):
    """Run one pass; with a sampler, its handler's time is taken out of every figure."""
    result = Pass()
    start = sampler.mark() if sampler else None
    wall0, cpu0 = perf_counter(), process_time()
    for command, argv, expected in invocations:
        if recorder is None:
            mark = sampler.mark() if sampler else None
            seconds, failure = invoke(package.cli.main, command, argv, expected)
            if sampler:
                seconds -= sampler.stolen_since(mark)[0]
        else:
            recorder.current_invocation += 1
            seconds, failure = recorder.call(
                tracer.INVOCATION, invoke, (package.cli.main, command, argv, expected), {}
            )
        result.latencies.append(seconds)
        result.by_command[command] = result.by_command.get(command, 0.0) + seconds
        if failure:
            result.failures.append(f"{command} {' '.join(argv)}: {failure}")
    result.wall = perf_counter() - wall0
    result.cpu = process_time() - cpu0
    if sampler:
        stolen_wall, stolen_cpu = sampler.stolen_since(start)
        result.wall -= stolen_wall
        result.cpu -= stolen_cpu
        result.marks = (start, sampler.mark())
    return result


def timed_phase(package, passes, seconds, workload, traced, sampler=None):
    """Run at least two passes (corpus-sweep: WINDOW plain ones), more while they fit in ``seconds``.

    With tracing, plain and traced passes alternate, so the traced run
    also measures its own overhead; without, plain passes run under the
    speed sampler.
    """
    plain, with_trace = [], []
    tracer_obj = tracer.Tracer(package) if traced else None
    min_plain = MIN_PLAIN_PASSES.get(workload, 1)
    # peak RSS covers a fixed number of passes, however many fit in the run
    rss_passes = max(min_plain, 2)
    peak_rss_mb = None
    start = perf_counter()
    i = 0
    while True:
        # a traced pass reuses the relabelling of the plain pass before it
        invocations = passes[(i // 2 if traced else i) % len(passes)]
        if traced and i % 2 == 1:
            tracer_obj.install()
            try:
                with_trace.append(run_pass(package, invocations, tracer_obj.recorder))
            finally:
                tracer_obj.remove()
        else:
            plain.append(run_pass(package, invocations, sampler=sampler))
            if len(plain) <= rss_passes:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        i += 1
        elapsed = perf_counter() - start
        # stop before a pass that would, at the mean pass time so far, end past the deadline
        if i >= 2 and len(plain) >= min_plain and elapsed + elapsed / i > seconds:
            return plain, with_trace, tracer_obj, peak_rss_mb


# -- metrics --------------------------------------------------------------------------------


def mean(values):
    return sum(values) / len(values)


def end_to_end(plain, setup_s, peak_rss_mb, sampler):
    """Gated figures; times are in seconds at the sampler's nominal speed."""
    window = plain[:WINDOW]
    wall_factor, cpu_factor = sampler.factor(window[0].marks[0], window[-1].marks[1])
    return {
        "wall_s": mean([p.wall for p in window]) * wall_factor,
        "cpu_s": mean([p.cpu for p in window]) * cpu_factor,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def report_lines(workload, plain, traced, cap_lines):
    """Every end-to-end figure the README names, for people; not part of the JSON.

    These are raw seconds, not normalised to the sampler's nominal speed.
    """
    lines = [
        f"passes: {len(plain)} plain, {len(traced)} traced"
        f" (relabellings cycle through {VARIANTS} per seed)"
    ]
    window = plain[:WINDOW]
    lines.append(f"raw wall_s = {mean([p.wall for p in window]):.4f} s, raw cpu_s = {mean([p.cpu for p in window]):.4f} s")
    for command in sorted({c for p in window for c in p.by_command}):
        lines.append(f"{command}_s = {mean([p.by_command[command] for p in window]):.4f} s")
    if workload == "corpus-sweep":
        latencies = [x for p in plain for x in p.latencies]
        p50 = statistics.median(latencies)
        p90 = statistics.quantiles(latencies, n=10)[8]
        lines.append(f"instance_s.p50 = {p50:.5f} s, instance_s.p90 = {p90:.5f} s (n = {len(latencies)})")
    attempted = sum(len(p.latencies) for p in plain + traced)
    failed = sum(len(p.failures) for p in plain + traced)
    lines.append(f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted})")
    lines += cap_lines
    return lines


def per_layer(tracer_obj, traced, plain, package):
    """Per-pass means of the layer figures from the traced passes."""
    rec = tracer_obj.recorder
    stats = rec.by_name()
    n = len(traced)

    def calls(*names):
        return sum(stats.get(x, (0, 0.0))[0] for x in names) / n

    def own(*names):
        return sum(stats.get(x, (0, 0.0))[1] for x in names) / n

    def count(key):
        return rec.counts[key] / n

    def ratio(a, b):
        return a / b if b else 0.0

    gc.collect()
    retained = sum(1 for o in gc.get_objects() if isinstance(o, package.trinity.Trinity))
    load = (
        "plane_graph.parse_graph",
        "plane_graph.validate_bipartite_plane",
        "plane_graph.ensure_bicoloured",
        "fkt.parse_universe",
    )
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for name, (_calls, seconds) in stats.items():
        if name != tracer.INVOCATION:
            layer_self[tracer.layer_of(name)] += seconds / n
    return {
        "plane_graph.load_s": own(*load),
        "plane_graph.load_calls": calls(*load),
        "trinity.build_s": own(
            "trinity.build_trinity", "trinity.Trinity.violet_graph", "trinity.Trinity.emerald_graph"
        ),
        "trinity.directed_dual_s": own("trinity.Trinity.directed_dual"),
        "trinity.directed_dual_calls": calls("trinity.Trinity.directed_dual"),
        "trinity.retained": retained,
        "trees.bareiss_s": own("trees.bareiss_determinant"),
        "trees.bareiss_calls": calls("trees.bareiss_determinant"),
        "trees.spanning_tree_enum_s": own("trees.enumerate_spanning_trees"),
        "trees.spanning_tree_enum_calls": calls("trees.enumerate_spanning_trees"),
        "trees.spanning_trees": count("trees.spanning_trees"),
        "trees.arborescence_enum_s": own("trees.enumerate_arborescences"),
        "trees.arborescences": count("trees.arborescences"),
        "trees.magic_number_calls": calls("trees.magic_number"),
        "hypertrees.enumerate_s": own("hypertrees.enumerate_hypertrees"),
        "hypertrees.enumerate_calls": calls("hypertrees.enumerate_hypertrees"),
        "hypertrees.found": count("hypertrees.found"),
        "hypertrees.yield_ratio": ratio(count("hypertrees.found"), count("trees.spanning_trees")),
        "hypertrees.translate_s": own("hypertrees.translate_offset"),
        "dividing.chord_diagrams_s": own("dividing.enumerate_chord_diagrams"),
        "dividing.chord_diagrams": count("dividing.chord_diagrams"),
        "dividing.is_tight_s": own("dividing.is_tight"),
        "dividing.is_tight_calls": calls("dividing.is_tight"),
        "dividing.tight_ratio": ratio(count("dividing.tight"), calls("dividing.is_tight")),
        "dividing.euler_s": own("dividing.euler_vector"),
        "dividing.euler_calls": calls("dividing.euler_vector"),
        "dividing.tree_hugging_s": own("dividing.is_tree_hugging", "dividing.tree_hugging"),
        "dividing.tree_hugging_calls": calls("dividing.is_tree_hugging"),
        "transitions.config_graph_s": own("transitions.build_configuration_graph"),
        "transitions.configurations": count("transitions.configurations"),
        "transitions.tight": count("transitions.tight"),
        "transitions.graph_edges": count("transitions.graph_edges"),
        "transitions.components": count("transitions.components"),
        "transitions.classify_s": own("transitions.classify_components"),
        "fkt.states_s": own("fkt.enumerate_states"),
        "fkt.states": count("fkt.states"),
        "fkt.transpositions_s": own("fkt.transpositions"),
        "fkt.transpositions_calls": calls("fkt.transpositions"),
        "fkt.clock_s": own("fkt.clock_graph"),
        "fkt.correspond_s": own("fkt.states_vs_configurations"),
        "fkt.universe_dual_s": own("fkt.universe_dual_graph"),
        **{f"cli.stage.{s}_s": rec.stage_seconds[s] / n for s in ("census", "magic", "hypertrees", "classification")},
        "cli.other_s": own(tracer.INVOCATION),
        **{f"{layer}.self_s": seconds for layer, seconds in layer_self.items()},
        "trace.overhead_ratio": mean([p.wall for p in traced]) / mean([p.wall for p in plain]),
    }


# -- entry points ---------------------------------------------------------------------------


def run_workload(args):
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times = []
        with speed.Sampler() as sampler:
            while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
                mark = sampler.mark()
                t0 = perf_counter()
                package, variants = setup(args.workload, args.seed)
                setup_times.append(perf_counter() - t0 - sampler.stolen_since(mark)[0])
            setup_factor = sampler.factor()[0]
        print(f"raw setup_s = {statistics.median(setup_times):.4f} s (median of {len(setup_times)})")
        setup_s = statistics.median(setup_times) * setup_factor
        passes = write_inputs(variants, workdir)
        gc.collect()  # the modules of earlier setups are cyclic garbage
        cap_lines = [
            f"cap used: --cap {inputs.INSTANCES[name].cap} for {command} on {name}"
            for command, name in WORKLOADS[args.workload]
            if inputs.INSTANCES[name].cap
        ]

        sampler = speed.Sampler()
        with contextlib.nullcontext() if args.trace else sampler:
            plain, traced, tracer_obj, peak_rss_mb = timed_phase(
                package, passes, args.seconds, args.workload, bool(args.trace),
                None if args.trace else sampler,
            )
        attempted = sum(len(p.latencies) for p in plain + traced)
        failures = [f for p in plain + traced for f in p.failures]
        for line in report_lines(args.workload, plain, traced, cap_lines):
            print(line)
        for failure in failures[:5]:
            print(f"FAILED {failure}")
        if args.trace:
            metrics = per_layer(tracer_obj, traced, plain, package)
            if tracer_obj.missing:
                print(f"not traced (missing from the package): {', '.join(tracer_obj.missing)}")
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            tracer_obj.recorder.dump(trace_path, [" ".join(a) for _, a, _ in passes[0]])
            print(f"spans: {len(tracer_obj.recorder.name)} written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(plain, setup_s, peak_rss_mb, sampler)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
        print(
            json.dumps(
                {
                    "correct": not failures,
                    "attempted": attempted,
                    "failed": len(failures),
                    "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
                }
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spawn(args, workload):
    """Run one workload in a fresh interpreter with hashing fixed by the seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967296))
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--in-process",
    ]
    child = subprocess.run(argv, env=env, timeout=CHILD_TIMEOUT_S, check=False)
    return child.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.in_process:
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        codes = [spawn(args, w) for w in workloads]
        return max(codes)
    try:
        run_workload(args)
    except (BenchmarkError, inputs.SelfCheckFailed) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
