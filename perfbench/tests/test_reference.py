"""Tests of the benchmark's reference code, on inputs small enough to check by hand.

    python3 -m pytest perfbench/tests -q
"""
import math
import time

import numpy as np
import pytest

import checks
import reference
import synth
from tracer import Tracer


# -- label map and accuracy -------------------------------------------------


def test_label_map_one_label_per_task():
    pred = [1, 1, 2, 2, 2, 3]
    gt = [7, 7, 8, 8, 9, 9]
    mapping, matched = reference.best_label_map(pred, gt)
    assert mapping == {1: 7, 2: 8, 3: 9}
    assert matched == 5
    assert reference.label_accuracy(pred, gt) == pytest.approx(5 / 6)


def test_label_map_beats_greedy():
    # counts: (a, x) = 3, (a, y) = 2, (b, x) = 2. Greedy takes (a, x) and scores 3;
    # the best one-to-one map is a -> y, b -> x and scores 4.
    pred = ["a"] * 5 + ["b"] * 2
    gt = ["x", "x", "x", "y", "y", "x", "x"]
    mapping, matched = reference.best_label_map(pred, gt)
    assert mapping == {"a": "y", "b": "x"}
    assert matched == 4


def test_label_map_more_labels_than_tasks_leaves_one_unmapped():
    pred = [1, 1, 2, 3, 3, 3]
    gt = [1, 1, 1, 2, 2, 2]
    mapping, matched = reference.best_label_map(pred, gt)
    assert mapping == {1: 1, 3: 2}
    assert matched == 5


def test_accuracy_ignores_label_names():
    pred = [1, 1, 2, 2, 3, 3, 3]
    gt = [1, 1, 1, 2, 2, 3, 3]
    renamed = [{1: 30, 2: 10, 3: 20}[p] for p in pred]
    assert reference.label_accuracy(pred, gt) == reference.label_accuracy(renamed, gt)


# -- detection delay -------------------------------------------------------------


def test_change_steps_and_delays():
    ts = list(range(1, 11))
    gt = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
    pred = [1, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    assert reference.change_steps(ts, gt) == [4, 8]
    assert reference.change_steps(ts, pred) == [5, 10]
    assert reference.detection_delays([4, 8], [5, 10]) == [1, 2]


def test_change_answered_only_after_the_next_one_is_unanswered():
    assert reference.detection_delays([4, 8], [9]) == [None, 1]
    assert reference.detection_delays([4], []) == [None]
    assert reference.detection_delays([4], [4]) == [0]


# -- synthetic stream --------------------------------------------------------------


def test_change_points_of_segments():
    segments = synth.segments_for(4, 10)
    assert segments == [(1, 10), (2, 10), (3, 10), (4, 10)]
    assert synth.change_points(segments) == [11, 21, 31]


def test_generated_stream_changes_task_exactly_at_change_points():
    segments = synth.segments_for(4, 200)
    cols = synth.generate(3, segments)
    assert list(cols["t"]) == list(range(1, 801))
    ts = [int(t) for t in cols["t"]]
    assert reference.change_steps(ts, list(cols["gt_task"])) == synth.change_points(segments)


def test_generated_stream_pays_only_the_task_leaf():
    segments = synth.segments_for(4, 2000)
    cols = synth.generate(5, segments)
    r, a, gt = cols["r"], cols["a"], cols["gt_task"]
    assert np.all(r[0::2] == 0.0)
    leaf = 2 * a[0::2] + a[1::2]
    paid = r[1::2] == synth.HIGH_REWARD
    assert np.array_equal(paid, leaf == (gt[1::2] - 1) % 4)
    assert np.all(r[1::2][~paid] == synth.FAIL_REWARD)
    # The agent follows its task's path most of the time, so segments differ.
    for task in range(1, 5):
        share = paid[gt[1::2] == task].mean()
        assert abs(share - synth.FOLLOW ** 2) < 0.05


def test_generated_stream_is_a_function_of_the_seed():
    segments = synth.segments_for(2, 100)
    one, again, other = (synth.generate(s, segments) for s in (1, 1, 2))
    assert all(np.array_equal(one[k], again[k]) for k in one)
    assert not np.array_equal(one["phi"], other["phi"])


def test_csv_round_trip_is_exact(tmp_path):
    segments = synth.segments_for(2, 50)
    cols = synth.generate(7, segments)
    path = tmp_path / "s.csv"
    synth.write_csv(path, cols, chunk=30)
    assert path.read_text().splitlines()[0] == "t,gt_task,r,a," + ",".join(
        f"phi_{i}" for i in range(1, synth.LATENT_DIM + 1))
    rows = synth.read_csv_rows(path, 41, 60)
    for key in ("t", "gt_task", "r", "a", "phi"):
        assert np.array_equal(rows[key], cols[key][40:60])
    with pytest.raises(ValueError):
        synth.read_csv_rows(path, 90, 120)


# -- sliced distance and KS p-value -------------------------------------------------


def test_sliced_distance_one_direction():
    a = [[0.0], [1.0]]
    b = [[3.0], [1.0]]
    # sorted projections 0, 1 against 1, 3: differences 1 and 2
    assert reference.sliced_distance(a, b, [[1.0]]) == pytest.approx(math.sqrt(5))


def test_sliced_distance_averages_directions():
    a = [[0.0, 0.0], [1.0, 1.0]]
    b = [[0.0, 1.0], [1.0, 2.0]]
    # along x the sets agree; along y they differ by 1 at both ranks
    assert reference.sliced_distance(a, b, [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(
        math.sqrt(2) / 2)
    assert reference.sliced_distance(a, a, [[0.6, 0.8]]) == 0.0


def test_unit_directions_are_unit_and_seeded():
    d = reference.unit_directions(10, 128, seed=4)
    assert d.shape == (128, 10)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    assert np.array_equal(d, reference.unit_directions(10, 128, seed=4))


def test_ks_new_sample_above_reference():
    stat, p = reference.ks_one_sided_pvalue([1, 2, 3], [4, 5, 6], beta=1.0)
    assert stat == 1.0
    assert p == pytest.approx(math.exp(-2 * 1.0 * 1.5))  # n_e = 3 * 3 / 6


def test_ks_new_sample_below_reference_scores_zero():
    assert reference.ks_one_sided_pvalue([4, 5, 6], [1, 2, 3], beta=1.0) == (0.0, 1.0)


def test_ks_partial_shift_and_beta():
    stat, p = reference.ks_one_sided_pvalue([1, 2, 3], [2, 3, 4], beta=1.0)
    assert stat == pytest.approx(1 / 3)
    assert p == pytest.approx(math.exp(-2 * (1 / 9) * 1.5))
    # scaled by 2 the reference is 2, 4, 6 and sits above the new sample
    assert reference.ks_one_sided_pvalue([1, 2, 3], [2, 3, 4], beta=2.0)[0] == 0.0


def test_ks_ties_count_on_both_sides():
    assert reference.ks_one_sided_pvalue([1, 1], [1, 1], beta=1.0) == (0.0, 1.0)
    stat, p = reference.ks_one_sided_pvalue([1, 2], [2, 3], beta=1.0)
    assert stat == 0.5
    assert p == pytest.approx(math.exp(-0.5))  # n_e = 1


# -- null-path bookkeeping -------------------------------------------------------------


def test_tests_per_run_desk_windows():
    # window full at 60 * 13 = 780, history of 24 distances full at 2160
    assert reference.tests_per_run(8000, 60, 12) == 98
    assert reference.tests_per_run(2160, 60, 12) == 1
    assert reference.tests_per_run(2159, 60, 12) == 0


def test_binomial_upper():
    assert reference.binomial_upper(10, 0.0, 0.001) == 0
    assert reference.binomial_upper(10, 1.0, 0.001) == 10
    # P(X > 5) = 0.377 and P(X > 4) = 0.623 for Binomial(10, 1/2)
    assert reference.binomial_upper(10, 0.5, 0.5) == 5


def _stationary_round(events_per_run, rate=None):
    runs = [{"events": e, "matched": 5, "live": 5, "first_test": 2160} for e in events_per_run]
    k = sum(1 for e in events_per_run if e)
    return {"summary": {"runs": runs, "n_runs": len(runs), "alpha": 0.001,
                        "tests_per_run": 98,
                        "rate": k / len(runs) if rate is None else rate}}


def test_stationary_counts_failed_runs():
    quiet = _stationary_round([0, 0, 0, 0])
    errors, failed, quality = checks.stationary({"rounds": [quiet, quiet]})
    assert (errors, failed) == ([], 0)
    assert quality == {"label_accuracy": 1.0, "detection_delay_steps": 2160}
    # A round whose outputs differ from the last round's fails, with all its runs.
    errors, failed, _ = checks.stationary({"rounds": [_stationary_round([1, 0, 0, 0]), quiet]})
    assert len(errors) == 1 and failed == 4
    # A wrong rate fails the last round and every round that repeats it.
    wrong = _stationary_round([0, 0, 0, 0], rate=0.5)
    errors, failed, _ = checks.stationary({"rounds": [wrong, wrong]})
    assert len(errors) == 1 and failed == 8
    # Too many false triggers: the runs fail, the outputs are still correct.
    noisy = _stationary_round([1, 1, 1, 1])
    errors, failed, _ = checks.stationary({"rounds": [noisy, noisy, noisy]})
    assert (errors, failed) == ([], 12)


def test_datapoint_layout():
    rows = {"r": np.array([1.0]), "a": np.array([1.0]), "phi": np.array([[0.5, -0.5, 0.0, 2.0]])}
    assert checks.datapoints(rows).tolist() == [[2.0, 1.0, 0.5, -0.5, 0.0, 2.0]]


# -- tracer ---------------------------------------------------------------------------


class _Layers:
    @staticmethod
    def inner():
        time.sleep(0.002)

    @staticmethod
    def outer():
        _Layers.inner()
        _Layers.inner()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.patch(_Layers, "inner", "inner")
    tracer.patch(_Layers, "outer", "outer")
    tracer.patch(_Layers, "gone", "gone")
    try:
        _Layers.outer()
    finally:
        tracer.unpatch()
    assert tracer.absent == ["_Layers.gone"]
    assert tracer.calls("inner") == tracer.calls("inner", "outer") == 2
    assert tracer.calls("outer", "") == 1
    inner_incl = tracer.stats[("inner", "outer")][1]
    outer_incl, outer_self = tracer.stats[("outer", "")][1:]
    assert inner_incl >= 0.004
    assert outer_self == pytest.approx(outer_incl - inner_incl)
    assert not hasattr(_Layers.inner, "__wrapped__")
