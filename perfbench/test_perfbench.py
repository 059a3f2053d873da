"""Tests of the benchmark itself: seeded inputs, the output checks, the
tracing wrappers and the determinism of the work counters.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 20261017
# Requests per workload: enough to reach every input kind that is cheap,
# and for coloring one full round.
SAMPLE = {"doubling": 2, "plane": 2, "cover": 2, "coloring": 14}
COUNTERS = ("lp.calls", "lp.cells", "metric.gauge.calls", "partition.nodes")


def _sample(workload, seed, tmp_path, tracer=None):
    spec = workloads.REGISTRY[workload]
    pool = workloads.make_pool(workload, seed)
    loop = run.Loop()
    for j in range(SAMPLE[workload]):
        if tracer is None:
            loop.run(spec, pool[j], j, tmp_path / "out.json")
        else:
            with tracer:
                loop.run(spec, pool[j], j, tmp_path / "out.json", tracer)
    return pool, loop


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = [r.inputs for r in workloads.make_pool(workload, 3)]
    assert first == [r.inputs for r in workloads.make_pool(workload, 3)]
    assert first != [r.inputs for r in workloads.make_pool(workload, 4)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_passes_every_check(workload, tmp_path):
    pool, loop = _sample(workload, HELD_OUT_SEED, tmp_path)
    assert loop.wrong == [] and loop.unexpected == [] and loop.failed == 0
    assert loop.units > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_exactly(workload, tmp_path):
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        _, loop = _sample(workload, 11, tmp_path, tracer)
        metrics = spans.layer_metrics(tracer.spans, 0.0)
        counts.append({name: metrics[name][0] for name in COUNTERS})
        counts[-1]["digest"] = loop.digest.hexdigest()
    assert counts[0] == counts[1]
    if workload == "coloring":
        assert counts[0]["lp.calls"] == 0 and counts[0]["partition.nodes"] > 0
    else:
        assert counts[0]["lp.calls"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    modules = spans.borsuk_modules()
    originals = {}
    for module_name, func_name, _ in spans.TRACED:
        originals[func_name] = getattr(importlib.import_module(f"borsuk.{module_name}"), func_name)
    bound = {
        (m.__name__, attr): value
        for m in modules
        for attr, value in vars(m).items()
        if any(value is f for f in originals.values())
    }
    # functions imported by name into other modules are wrapped there too
    assert ("borsuk.metric", "contains_point") in bound
    assert ("borsuk.covering", "contains_point") in bound
    assert ("borsuk", "chromatic_number") in bound
    with spans.Tracer():
        for (module_name, attr), original in bound.items():
            wrapped = vars(sys.modules[module_name])[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original
    for (module_name, attr), original in bound.items():
        assert vars(sys.modules[module_name])[attr] is original


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    with tracer, tracer.request(0):
        workloads.metric.set_diameter(
            workloads.borsuk.body_from_vertices([(1, 0), (-1, 0), (0, 1), (0, -1)]),
            workloads.bodies.point_set([(0, 0), (1, 1), (2, 0)]),
        )
    ix = spans.SpanIndex(tracer.spans)
    assert ix.calls("metric.gauge") == 3 and ix.under("metric.gauge", "metric.set_diameter") == 3
    assert ix.self_time("metric.set_diameter") == pytest.approx(
        ix.total("metric.set_diameter") - ix.total("metric.gauge")
    )


def test_mycielski_graphs():
    for k, (n, m) in {4: (11, 20), 5: (23, 71), 6: (47, 236)}.items():
        nodes, edges = workloads.mycielski(k)
        adj = {v: set() for v in range(nodes)}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        assert (nodes, len(edges)) == (n, m)
        assert not any(adj[i] & adj[j] for i, j in edges)  # triangle-free


def test_coloring_check_rejects_wrong_certificates():
    n, edges = workloads.mycielski(4)
    cert = workloads.partition.chromatic_number(workloads.metric.DiameterGraph(n, 1, edges))
    workloads.check_coloring(n, edges, cert, 4)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_coloring(n, edges, cert, 3)  # wrong optimal value
    merged = workloads.partition.partition(n, [tuple(range(n))])
    with pytest.raises(workloads.CheckFailed):
        workloads.check_coloring(n, edges, replace(cert, number=1, partition=merged), 4)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_coloring(n, edges, replace(cert, lower_bound_clique=(0, 1, 2)), 4)


@pytest.mark.parametrize("error, known", [(RecursionError, True), (TypeError, False), (IndexError, False)])
def test_known_defect_is_known_only_with_its_own_error(error, known, tmp_path):
    def execute(req, out_path):
        raise error("boom")

    spec = workloads.Workload(None, execute, None, 1)
    defect = workloads.KnownDefect(workloads.Request({}, ()), RecursionError, workloads.RECURSION_DEFECT)
    problem = run.run_known_defect(spec, defect, tmp_path / "out.json")
    assert (problem is None) == known


def test_coloring_known_defect_fails_the_known_way_or_checks(tmp_path):
    defect = workloads.make_known_defect("coloring", HELD_OUT_SEED)
    assert defect.request.args[0] > 1100
    assert run.run_known_defect(workloads.REGISTRY["coloring"], defect, tmp_path / "out.json") is None
    assert all(workloads.make_known_defect(w, 1) is None for w in ("doubling", "plane", "cover"))


def test_calibrated_loop_scales_times_by_the_probe(tmp_path):
    spec = workloads.Workload(None, lambda req, out_path: None, lambda req, raw, out_path: (1, b""), 1)
    loop = run.Loop(calibrate=True)
    for j in range(3):
        loop.run(spec, workloads.Request({}, ()), j, tmp_path / "out.json")
    assert len(loop.slowdowns) == 3 and all(s > 0 for s in loop.slowdowns)
    assert loop.scaled(loop.times) == [t / s for t, s in zip(loop.times, loop.slowdowns)]


def test_cover_setup_is_the_same_work_for_every_seed():
    for seed in range(5):
        quads = workloads._seeded_quadrilaterals(workloads.random.Random(seed))
        assert len(set(quads)) == workloads.SEEDED_POLYGONS
        for quad in quads:
            K = workloads.bodies.prune_redundant(workloads.bodies.vpolytope(quad))
            assert len(K.vertices) == 4 and (0, 0) in quad
