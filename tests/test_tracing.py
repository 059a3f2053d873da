"""The benchmark's tracer (``perfbench/spans.py``) on library calls: a
span's self time is its duration less the time its child spans cover,
which every ``*.self_s`` figure of the benchmark relies on."""

import sys
from pathlib import Path

import pytest

from borsuk import metric
from borsuk.bodies import point_set
from borsuk.generators import cross_polytope_body

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_self_time_subtracts_child_gauge_spans():
    # the cross-polytope in dimension 4 has no integer normals, so each of
    # the three pairs takes its own gauge LP, traced as a child span
    tracer = spans.Tracer()
    with tracer, tracer.request(0):
        metric.set_diameter(
            cross_polytope_body(4), point_set([(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1)])
        )
    ix = spans.SpanIndex(tracer.spans)
    assert ix.calls("metric.gauge") == 3 and ix.under("metric.gauge", "metric.set_diameter") == 3
    assert ix.self_time("metric.set_diameter") == pytest.approx(
        ix.total("metric.set_diameter") - ix.total("metric.gauge")
    )
