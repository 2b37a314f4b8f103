"""Self-tests of the benchmark's inputs, checks and recorder.

    python3 perfbench/selftest.py

They import the package from this checkout's ``src``; they are not part of
the package's own test suite.
"""

from __future__ import annotations

import json
import random
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

import run
from run import inputs, speed, tracer

PACKAGE = run.import_package()


def scratch():
    run.WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


# instances cheap enough to verify several times
SMALL = (
    "path3", "even_cycle3", "theta3", "ladder2", "grid1", "running11",
    "curl", "hopf", "figure_eight", "medial_ladder3",
)


def invocation(name, variant_seed, workdir, command=None):
    instance = inputs.INSTANCES[name]
    generated = inputs.generate(instance, variant_seed, PACKAGE)
    path = Path(workdir) / f"{name}-{variant_seed.replace('/', '-')}.json"
    path.write_text(json.dumps(generated.document))
    command = command or ("verify" if instance.kind == "graph" else "clock")
    argv = (["--cap", str(instance.cap)] if instance.cap else []) + [
        command, f"--{instance.kind}", str(path),
    ]
    return command, argv, run.expected_answers(generated)


class RelabellingTest(unittest.TestCase):
    def test_relabelling_leaves_every_expected_count_unchanged(self):
        with scratch() as workdir:
            for name in SMALL:
                for seed in ("1/0", "2/5", "77/3"):
                    command, argv, expected = invocation(name, seed, workdir)
                    _seconds, failure = run.invoke(PACKAGE.cli.main, command, argv, expected)
                    self.assertIsNone(failure, f"{name} seed {seed}")

    def test_relabelling_changes_ids_not_the_embedding(self):
        doc = inputs.grid_doc(2, 1)
        copy, _ = inputs.relabel(doc, random.Random(3))
        self.assertNotEqual(
            sorted(v["id"] for v in doc["vertices"]), sorted(v["id"] for v in copy["vertices"])
        )
        same = PACKAGE.plane_graph.canonical_form(PACKAGE.plane_graph.parse_graph(doc), True)
        other = PACKAGE.plane_graph.canonical_form(PACKAGE.plane_graph.parse_graph(copy), True)
        self.assertEqual(same, other)


class MedialTest(unittest.TestCase):
    BASES = {
        "path2": (inputs.path_doc(2), "p0.0"),
        "path3": (inputs.path_doc(3), "p1.1"),
        "digon": (inputs.cycle_doc(1), "e0.0"),
        "cycle4": (inputs.cycle_doc(2), "e1.0"),
        "theta3": (inputs.theta_doc(3), "a0.0"),
        "doubled_triangle": (inputs.doubled_triangle_doc(), "ab.0"),
        "ladder2": (inputs.grid_doc(2, 1), "h0_0.0"),
        "grid1": (inputs.grid_doc(1, 1), "u1_0.1"),
    }

    def test_state_counts_equal_kirchhoff_counts(self):
        fkt = PACKAGE.fkt
        for name, (base, star_dart) in self.BASES.items():
            medial, star_darts = inputs.medial_universe(base, star_dart)
            faces = inputs.Map(medial).faces()
            medial["stars"] = sorted(
                fid for fid, boundary in faces.items() if set(star_darts) & set(boundary)
            )
            universe = fkt.parse_universe(medial)
            states = fkt.enumerate_states(universe, cap=None)
            self.assertEqual(len(states), inputs.kirchhoff(base), name)

    def test_kirchhoff_matches_closed_forms(self):
        self.assertEqual(inputs.kirchhoff(inputs.grid_doc(7, 1)), 10864)
        self.assertEqual(inputs.kirchhoff(inputs.cycle_doc(4)), 8)
        self.assertEqual(inputs.kirchhoff(inputs.theta_doc(3)), 12)  # C(3,1) * 2^2
        self.assertEqual(inputs.kirchhoff(inputs.path_doc(5)), 1)


class GateTest(unittest.TestCase):
    def test_wrong_expected_value_counts_as_failed(self):
        with scratch() as workdir:
            invocations = [invocation(n, "1/0", workdir) for n in ("even_cycle3", "hopf")]
            good = run.run_pass(PACKAGE, invocations)
            self.assertEqual(good.failures, [])
            command, argv, expected = invocations[0]
            wrong = [(command, argv, {**expected, "count": expected["count"] + 1})] + invocations[1:]
            bad = run.run_pass(PACKAGE, wrong)
        self.assertEqual(len(bad.failures), 1)
        self.assertGreater(len(bad.failures) / len(bad.latencies), 0)

    def test_failed_exit_counts_as_failed(self):
        with scratch() as workdir:
            command, argv, expected = invocation("medial_ladder3", "1/0", workdir)
            argv = argv[2:]  # without the cap the state search is refused
            _seconds, failure = run.invoke(PACKAGE.cli.main, command, argv, expected)
        self.assertIn("exit 2", failure)


class TraceTest(unittest.TestCase):
    def test_self_times_fit_inside_the_invocation(self):
        with scratch() as workdir:
            invocations = [invocation("ladder3", "1/0", workdir)]
            tracing = tracer.Tracer(PACKAGE)
            self.assertEqual(tracing.missing, [])
            tracing.install()
            try:
                result = run.run_pass(PACKAGE, invocations, tracing.recorder)
            finally:
                tracing.remove()
        self.assertEqual(result.failures, [])
        rec = tracing.recorder
        own = rec.self_times()
        roots = [s for s, p in enumerate(rec.parent) if p < 0]
        self.assertEqual(len(roots), 1)
        wall = rec.busy[roots[0]]
        layers = {}
        for sid, index in enumerate(rec.name):
            self.assertGreater(own[sid], -1e-6, rec.names[index])
            if sid != roots[0]:
                layer = tracer.layer_of(rec.names[index])
                layers[layer] = layers.get(layer, 0.0) + own[sid]
        self.assertLessEqual(sum(layers.values()), wall)
        self.assertGreater(layers["trees"], 0)
        self.assertGreater(rec.counts["trees.spanning_trees"], 0)

    def test_wrappers_are_removed(self):
        before = PACKAGE.hypertrees.enumerate_spanning_trees
        tracing = tracer.Tracer(PACKAGE)
        tracing.install()
        self.assertIsNot(PACKAGE.hypertrees.enumerate_spanning_trees, before)
        tracing.remove()
        self.assertIs(PACKAGE.hypertrees.enumerate_spanning_trees, before)


class SpeedTest(unittest.TestCase):
    def test_sampler_time_is_taken_out_of_the_pass(self):
        with scratch() as workdir:
            invocations = [invocation("ladder2", "1/0", workdir)] * 3
            # a short interval makes the handler's share large enough to see
            with speed.Sampler(interval=0.002) as sampler:
                t0 = perf_counter()
                sampled = run.run_pass(PACKAGE, invocations, sampler=sampler)
                outside = perf_counter() - t0
        start, end = sampled.marks
        stolen = sampler.stolen_since(start)[0] - sampler.stolen_since(end)[0]
        self.assertGreater(end[0] - start[0], 5)
        self.assertGreater(stolen, 0.02)
        self.assertAlmostEqual(sampled.wall + stolen, outside, delta=0.01)
        self.assertAlmostEqual(sampled.wall, sum(sampled.latencies), delta=0.01)

    def test_normalised_time_scales_with_the_kernel_time(self):
        sampler = speed.Sampler()
        sampler.wall, sampler.cpu = [speed.NOMINAL_S * 2] * 4, [speed.NOMINAL_S * 4] * 4
        self.assertEqual(sampler.factor(), (0.5, 0.25))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        with scratch() as workdir:
            invocations = [invocation("path2", "1/0", workdir)]
            sampler = speed.Sampler()
            with sampler:
                plain = [run.run_pass(PACKAGE, invocations, sampler=sampler)]
            tracing = tracer.Tracer(PACKAGE)
            tracing.install()
            try:
                traced = [run.run_pass(PACKAGE, invocations, tracing.recorder)]
            finally:
                tracing.remove()
        for section, metrics in (
            ("end_to_end", run.end_to_end(plain, 0.1, 30.0, sampler)),
            ("per_layer", run.per_layer(tracing, traced, plain, PACKAGE)),
        ):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(declared, {k: run.unit_of(k) for k in metrics}, section)


if __name__ == "__main__":
    unittest.main()
