"""Self-tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import qref  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

ONE, I, J, K = np.eye(4)


def test_reference_product_hand_values():
    assert np.array_equal(qref.qmul(I, J), K)
    assert np.array_equal(qref.qmul(J, I), -K)
    assert np.array_equal(qref.qmul(J, K), I)
    assert np.array_equal(qref.qmul(K, I), J)
    for e in (I, J, K):
        assert np.array_equal(qref.qmul(e, e), -ONE)


def test_reference_identity_series_gives_q():
    identity = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]])
    q = np.array([[0.3, -0.2, 0.1, 0.4], [0.0, 0.5, 0.0, 0.0]])
    assert np.array_equal(qref.evaluate(identity, q), q)


def test_reference_left_powers():
    # f(q) = q^2 j: with q = i this is i i j = -j
    f = np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0], J])
    assert np.allclose(qref.evaluate(f, I[None, :]), -J[None, :])


@pytest.mark.parametrize("count, expected", [
    (10, 50.0), (39, 74.0), (40, 75.0), (100, 90.0), (199, 94.0), (200, 95.0),
    (96, 89.0), (1000, 99.0), (1999, 99.0), (2000, 99.5), (9999, 99.5), (10000, 99.9),
])
def test_tail_percentile_rule(count, expected):
    p = stats.tail_percentile(count)
    assert p == expected
    if count >= 20:
        assert stats.tasks_beyond(count, p) >= 10
        higher = [q for q in stats.LADDER if q > p]
        assert all(stats.tasks_beyond(count, q) < 10 for q in higher)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 75.0) == 75
    assert stats.percentile(values, 99.9) == 100


def test_calibration_scale_uses_the_median_of_nearby_probes():
    ref, w = calibrate.REFERENCE_PROBE_S, calibrate.PROBE_WINDOW
    probes = [2 * ref] * (w + 1) + [4 * ref] * w + [100 * ref] * (2 * w + 1)
    # the task after probe 0 sees probes 0..w, all 2 ref
    assert calibrate.scale(probes, 0) == pytest.approx(0.5)
    # the task after probe w sees w + 1 probes of 2 ref and w of 4 ref
    assert calibrate.scale(probes, w) == pytest.approx(0.5)
    assert calibrate.scale(probes, len(probes) - 1) == pytest.approx(0.01)


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_task_count_is_whole_blocks(workload):
    import run

    block = corpus.BLOCK[workload]
    for seconds in (0.001, 1.0, 50.0, 60.0):
        count = run.task_count(workload, seconds)
        assert count >= block and count % block == 0
    assert run.task_count(workload, 60.0) >= run.task_count(workload, 50.0)


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (holding a1 [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert np.allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_per_task():
    spans = {
        "names": np.array(["task", "norms.split_norm", "slices.split", "bloch.attain"]),
        "name": np.array([0, 1, 2, 2, 0, 3]),
        "start": np.array([0.0, 0.0, 1.0, 2.0, 10.0, 10.0]),
        "end": np.array([6.0, 5.0, 2.0, 3.0, 12.0, 11.0]),
        "parent": np.array([-1, 0, 1, 1, -1, 4]),
        "task": np.array([0, 0, 0, 0, 1, 1]),
        "note": np.array([np.nan, np.nan, np.nan, np.nan, np.nan, 1.0]),
    }
    out = tracing.layer_metrics(spans, tasks=2)
    assert out["norms.self_s"] == pytest.approx(1.5)
    assert out["slices.calls"] == pytest.approx(1.0)
    assert out["task.self_s"] == pytest.approx(1.0)
    assert out["bloch.attain.hit_ratio"] == 1.0


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_corpus_is_reproducible(workload):
    def dump(seed):
        records = itertools.islice(corpus.generate(workload, seed), 300)
        return json.dumps(list(records), default=lambda a: a.tolist()).encode()

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_warmup_input_is_no_corpus_input(workload):
    def key(rec):
        return json.dumps(rec, default=lambda a: a.tolist())

    warm = key(corpus.WARMUP[workload])
    for seed in (0, 1, 2):
        assert all(key(rec) != warm for rec in itertools.islice(corpus.generate(workload, seed), 300))


def test_coverage_targets_lie_in_the_pinched_set():
    for rec in [corpus.WARMUP["coverage"], *itertools.islice(corpus.coverage(3), 64)]:
        q, rho = rec["target"], rec["rho"]
        assert np.linalg.norm(q) ** 3 < rho * q[0] ** 2
        assert rho <= 0.25


def test_known_defect_is_only_an_extremum_miss():
    # f(q) = q on the ball of radius 0.9: every norm is 0.9, the minimum is 0
    identity = {"coeffs": [[0.0, 0, 0, 0], [1.0, 0, 0, 0]]}
    exact = [[0.9, 1e-9], [0.45, 1e-9], [0.9, 1e-9], [0.0, 1e-9]]
    assert checks.slice_norms(identity, exact) == []
    missed = checks.slice_norms(identity, [[0.85, 1e-9], [0.45, 1e-9], [0.9, 1e-9], [0.1, 1e-9]])
    known = [p for p in missed if p.startswith(checks.KNOWN_DEFECT)]
    assert len(known) == 2 and "split_norm" in known[0] and "inf_norm_ball" in known[1]
    # the sandwich sqrt2/2 split <= ball <= split is never a known defect
    assert [p for p in missed if p not in known] == [
        "sandwich sqrt2/2 0.85 <= 0.9 <= split fails"]
    too_high = checks.slice_norms(identity, [[1.0, 1e-9], [0.45, 1e-9], [0.9, 1e-9], [0.0, 1e-9]])
    assert too_high and not any(p.startswith(checks.KNOWN_DEFECT) for p in too_high)
    missed = checks.check("coverage", {"coeffs": identity["coeffs"], "target": [0.1, 0, 0, 0],
                                       "radius": 1.0}, None)
    assert missed == ["attain returned None"]
    broken = checks.check("bl-search", {"r": 0.6, "coeffs": identity["coeffs"]}, [0, "{}"])
    assert broken and not broken[0].startswith(checks.KNOWN_DEFECT)


def test_tracer_wraps_every_binding_and_restores():
    pytest.importorskip("quatregular")
    import quatregular
    import quatregular.bloch
    import quatregular.cli
    import quatregular.norms

    original = quatregular.norms.sup_norm_ball
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quatregular.bloch.sup_norm_ball is quatregular.norms.sup_norm_ball
        assert quatregular.sup_norm_ball is quatregular.norms.sup_norm_ball
        assert quatregular.norms.sup_norm_ball is not original
        f = quatregular.Series((0, 1, 0.1))
        value = tracer.run_task(5, quatregular.sup_norm_ball, f, 0.5).value
    finally:
        tracer.uninstall()
    assert quatregular.norms.sup_norm_ball is original
    assert value == original(f, 0.5).value
    spans = tracer.arrays()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[:2] == ["task", "norms.sup_norm_ball"]
    assert "arrays.sphere_constants" in names
    assert set(spans["task"]) == {5}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
