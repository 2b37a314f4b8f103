"""Acceptance suite: every headline identity at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to see them).
All equalities are exact; the only tolerances are the runtime budgets,
which the full suite meets with a wide margin.
"""

import time
from itertools import product

import pytest

import oracles
from trinities import dividing as dv
from trinities import fkt
from trinities import hypertrees as ht
from trinities import transitions as tx
from trinities import trees
from trinities import trinity as tr


def report(number, ok, description):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def universes():
    return {name: fkt.parse_universe(builder()) for name, builder in fkt.BUILTIN_UNIVERSES.items()}


@pytest.fixture(scope="module")
def config_graphs(trinities):
    return {name: tx.build_configuration_graph(t) for name, t in trinities.items()}


def test_criterion_1_component_count_identity(trinities, config_graphs):
    t0 = time.perf_counter()
    ok = True
    for name, t in trinities.items():
        assert t.n <= 12
        components = config_graphs[name].component_count()
        b_er = len(ht.enumerate_hypertrees(ht.trinity_hypergraph(t, "ER")))
        b_vr = len(ht.enumerate_hypertrees(ht.trinity_hypergraph(t, "VR")))
        magic = trees.magic_number(t).value
        ok = ok and components == b_er == b_vr == magic
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 10, f"tight components = hypertree counts = magic ({elapsed:.2f}s)")


def test_criterion_2_six_hypergraph_identity(trinities):
    t0 = time.perf_counter()
    ok = True
    for t in trinities.values():
        magic = trees.magic_number(t)
        values = set(magic.det.values()) | set(magic.enum.values())
        values |= set(magic.hypertrees.values())
        ok = ok and magic.agree and len(values) == 1
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 5, f"three determinants, three enumerations, six hypertree counts agree ({elapsed:.2f}s)")


def test_criterion_3_euler_affine_identity(trinities, config_graphs):
    ok = True
    for name, t in trinities.items():
        expected_sum = len(t.emerald) - len(t.violet)
        for component in config_graphs[name].components:
            for fid, e, f in zip(t.red, component.euler, component.hypertree):
                ok = ok and e == 2 * f - t.n_r[fid] + 1
            ok = ok and sum(component.euler) == expected_sum
    report(3, ok, "Euler vectors are 2f(r) - n_r + 1 and sum to |E| - |V|")


def test_criterion_4_pinned_four_cycle(trinities, config_graphs):
    t = trinities["cycle4"]
    cg = config_graphs["cycle4"]
    hypertree_vectors = {c.hypertree for c in cg.components}
    euler_vectors = {c.euler for c in cg.components}
    ok = (
        trees.magic_number(t).value == 2
        and hypertree_vectors == {(1, 0), (0, 1)}
        and cg.total_configurations == 4
        and len(cg.vertices) == 2
        and cg.component_count() == 2
        and euler_vectors == {(1, -1), (-1, 1)}
    )
    report(4, ok, "four-cycle: magic 2, hypertrees {(1,0),(0,1)}, 2 of 4 tight, Euler (1,-1)/(-1,1)")


def test_criterion_5_pinned_single_edge(trinities, config_graphs):
    t = trinities["path1"]
    cg = config_graphs["path1"]
    magic = trees.magic_number(t)
    counts = set(magic.det.values()) | set(magic.enum.values()) | set(magic.hypertrees.values())
    (component,) = cg.components
    ok = (
        counts == {1}
        and cg.total_configurations == 1
        and len(cg.vertices) == 1
        and cg.component_count() == 1
        and list(component.euler) == [0]
    )
    report(5, ok, "single edge: every count is 1, Euler vector (0)")


def test_criterion_6_running_example(trinities, config_graphs):
    t0 = time.perf_counter()
    t = trinities["running11"]
    cg = config_graphs["running11"]
    magic = trees.magic_number(t)
    tx.classify_components(cg)  # raises NotBijective unless components biject onto ER
    census = t.census()
    ok = (
        magic.value == 11  # golden value frozen from the arc-subset oracle
        and magic.agree
        and cg.component_count() == 11
        and {c.hypertree for c in cg.components} == set(t.hypertree_set("ER"))
        and census["V"] + census["E"] + census["R"] == census["n"] + 2
        and sum(census["n_r"].values()) == census["n"]
    )
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 10, f"eleven-edge example: all identity suites pass at magic 11 ({elapsed:.2f}s)")


def test_criterion_7_state_counts(universes):
    t0 = time.perf_counter()
    ok = True
    for name, expected in (("curl", 1), ("hopf", 2), ("figure_eight", 5)):
        corr = fkt.states_vs_configurations(universes[name])
        ok = ok and corr["states"] == corr["tight_configurations"] == corr["magic"] == str(expected)
        # explicit bijection via splittings: trails pairwise distinct
        states = fkt.enumerate_states(universes[name])
        trails = {oracles.state_trail(universes[name], s)[0] for s in states}
        ok = ok and len(trails) == len(states)
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 5, f"universe states = tight configurations = magic ({elapsed:.2f}s)")


def test_criterion_8_clock_structure(universes):
    t0 = time.perf_counter()
    ok = True
    for u in universes.values():
        r = fkt.clock_graph(u)
        ok = ok and r["acyclic"] and r["weakly_connected"] and r["unique_source"] and r["unique_sink"]
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 5, f"clock graphs acyclic, connected, unique source and sink ({elapsed:.2f}s)")


def test_criterion_9_tree_hugging_reachability(trinities, config_graphs):
    ok = any(max(t.n_r.values()) >= 4 for t in trinities.values())
    for name, t in trinities.items():
        budget = 1 + sum(t.n_r.values())
        for v in config_graphs[name].vertices:
            path = oracles.valence_concentration_path(t, v)
            hugging, _ = dv.is_tree_hugging(t, path[-1])
            ok = ok and hugging and len(path) <= budget
    report(9, ok, "valence concentration reaches tree-hugging from every tight configuration")


def test_criterion_10_bypass_soundness(trinities, config_graphs):
    ok = True
    for name, t in trinities.items():
        for fid in t.red:
            if t.n_r[fid] > 4:
                continue
            for d in dv.enumerate_chord_diagrams(t.n_r[fid]):
                e0 = dv.euler_and_hug(dv.regions(fid, d, t.signs[fid]))[0]
                for d2 in oracles.bypass_moves(d):
                    ok = ok and dv.euler_and_hug(dv.regions(fid, d2, t.signs[fid]))[0] == e0
        cg = config_graphs[name]
        index = {v: i for i, v in enumerate(cg.vertices)}
        for v in cg.vertices:
            for target in oracles.config_bypass_moves(v):
                if target in index:
                    ok = ok and cg.component_of[index[target]] == cg.component_of[index[v]]
    report(10, ok, "bypass moves preserve disc Euler class and stay in their component")


def test_criterion_11_oracle_equivalence(trinities):
    ok = True
    total = 0
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            dual = t.directed_dual(colour)
            for root in dual.vertices:
                det = trees.count_arborescences(dual, root)
                if det > 10**5:
                    continue
                total += det
                ok = ok and det == len(trees.enumerate_arborescences(dual, root))
    report(11, ok and total > 0, "determinant counts equal brute-force enumeration counts")
