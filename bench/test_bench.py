"""Tests of the benchmark itself: deterministic inputs, checkers that catch
corrupted results, the span recorder, and BENCHMARK.json.

    python3 -m pytest bench/test_bench.py -q

Sizes are cut down so the whole file runs in seconds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

run._import_package()

import zetasieve  # noqa: E402  (imported from this checkout by the line above)
from zetasieve import rootfind  # noqa: E402

SMALL_BANDS = ((17, 18), (3_000, 3_010), (8_000, 8_010))  # n = 17 shows defect (c)


def _first(workload, count):
    return list(itertools.islice(workload.ops(), count))


def _run_all(workload, ops):
    loop = run.Loop(workload)
    loop.replay(ops)
    return loop.outputs


# --------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, tmp: workloads.EvalLargeN(seed),
        lambda seed, tmp: workloads.ConvergeTables(seed, tmp / "t.csv"),
        lambda seed, tmp: workloads.ZerosStrip(seed),
    ],
    ids=["eval-large-n", "converge-tables", "zeros-strip"],
)
def test_inputs_are_a_function_of_the_seed(make, tmp_path):
    first = _first(make(7, tmp_path), 80)
    assert first == _first(make(7, tmp_path), 80)
    assert first != _first(make(8, tmp_path), 80)


def test_eval_ops_cycle_bands_and_pair_up():
    ops = _first(workloads.EvalLargeN(3), 63)
    wl = workloads.EvalLargeN(3)
    assert [op.n for op in ops[:6]] == list(wl.truncations) * 2
    assert sum(op.pole for op in ops) == 3  # one per band in the first 63
    for i, op in enumerate(ops):
        lo, hi = workloads.EVAL_BANDS[i % 3]
        assert lo <= op.n < hi
        if op.form == "bernoulli" and not op.pole:
            assert abs(op.z) * np.log(op.n) < 0.9 * checks.TWO_PI + 1e-12
        if op.form in ("alt", "alt-coth"):
            assert op.z.real > 0.0


class _Counter:
    """A stand-in workload: op i returns i, except where told otherwise."""

    calibration = ("python",)

    def __init__(self, changes=()):
        self.changes = set(changes)
        self.calls = 0

    def ops(self):
        return (workloads.ZerosOp(i, "direct", 6, 0.0, False) for i in itertools.count())

    def run(self, op):
        self.calls += 1
        if self.calls > run.MIN_OPS and op.index in self.changes:
            return -1
        return op.index


@pytest.mark.parametrize("seconds", [0.0, 0.05])
def test_timed_loop_checks_the_same_distinct_ops_however_long_it_runs(seconds):
    loop = run.Loop(_Counter(changes={3}))
    loop.for_seconds(seconds)
    assert [op.index for op in loop.ops] == list(range(run.MIN_OPS))
    assert loop.outputs == list(range(run.MIN_OPS))
    assert len(loop.latencies) >= run.MIN_OPS
    repeated = len(loop.latencies) > run.MIN_OPS + 3
    assert loop.repeat_differs == ({3} if repeated else set())


def test_strata_take_every_midpoint_once_per_block():
    for seed in range(5):
        draws = list(itertools.islice(workloads._strata(random.Random(seed), 20), 40))
        for block in (draws[:20], draws[20:]):
            assert sorted(block) == [(k + 0.5) / 20 for k in range(20)]
        counts = np.bincount((np.array(draws[:10]) * 5).astype(int), minlength=5)
        assert counts.min() >= 1 and counts.max() <= 3


def test_spread_draws_cover_the_range_evenly_from_any_start():
    for seed in range(5):
        draws = list(itertools.islice(workloads._spread(random.Random(seed), 0, 10), 20))
        counts = np.bincount(np.array(draws, dtype=int), minlength=10)
        assert counts.min() >= 1 and counts.max() <= 3


# --------------------------------------------------------------------------
# independent reference quantities


def test_admissible_bases_match_the_package():
    for n in (2, 3, 17, 64, 1000, 4097):
        assert tuple(checks.admissible_bases(n)) == zetasieve.admissible_up_to(n).members


def test_branch_constants_match_the_definition():
    ns = np.arange(2, 400)
    printed, exact = checks.branch_constants(ns)
    for n, p, e in zip(ns, printed, exact):
        members = zetasieve.admissible_up_to(int(n)).members
        s = sum(1 if r % 2 else -1 for r in members)
        assert p == (1.0 if len(members) % 2 == 0 else 0.5)
        assert e == 1.0 - s / 2.0


# --------------------------------------------------------------------------
# eval-large-n checker


@pytest.fixture(scope="module")
def eval_run():
    wl = workloads.EvalLargeN(5, bands=SMALL_BANDS)
    wl.setup()
    ops = _first(wl, 63)
    return wl, ops, _run_all(wl, ops)


def _pick(ops, **want):
    for i, op in enumerate(ops):
        if all(getattr(op, k) == v for k, v in want.items()):
            return i
    raise LookupError(want)


def test_eval_checker_passes_real_results_but_for_the_known_defect(eval_run):
    wl, ops, outputs = eval_run
    failures = wl.check(ops, outputs)
    assert any(ops[i].n == 17 for i in failures), "n = 17 shows defect (c)"
    for index, reasons in failures.items():
        assert reasons == ["alt-coth-branch-constant"]
        assert ops[index].form == "alt-coth"


@pytest.mark.parametrize(
    "form, mirror, reason",
    [
        ("coth", False, "coth-vs-direct"),
        ("direct", True, "conjugate-symmetry"),
        ("bernoulli", False, "bernoulli-vs-direct"),
    ],
)
def test_eval_checker_flags_a_flipped_sign(eval_run, form, mirror, reason):
    wl, ops, outputs = eval_run
    i = _pick(ops, form=form, mirror=mirror, pole=False, n=ops[1].n)
    corrupted = list(outputs)
    corrupted[i] = replace(outputs[i], value=-outputs[i].value)
    assert reason in wl.check(ops, corrupted).get(ops[i].index, [])


def test_eval_checker_flags_a_swapped_conjugate(eval_run):
    wl, ops, outputs = eval_run
    i = _pick(ops, form="alt", mirror=True, n=ops[1].n)
    corrupted = list(outputs)
    corrupted[i] = replace(outputs[i], value=outputs[i].value.conjugate())
    assert "conjugate-symmetry" in wl.check(ops, corrupted)[ops[i].index]


def test_eval_checker_flags_a_pole_that_was_not_gated(eval_run):
    wl, ops, outputs = eval_run
    i = next(i for i, op in enumerate(ops) if op.pole)
    assert isinstance(outputs[i], zetasieve.PoleProximityError)
    corrupted = list(outputs)
    corrupted[i] = outputs[i - 1]
    assert wl.check(ops, corrupted)[ops[i].index] == ["pole-not-raised"]


def test_eval_checker_completes_a_group_cut_short(eval_run):
    wl, ops, outputs = eval_run
    # Stop after the first op of the first group: its partners are computed
    # in the check, and nothing fails.
    assert wl.check(ops[1:2], outputs[1:2]) == {}


# --------------------------------------------------------------------------
# converge-tables checker


@pytest.fixture(scope="module")
def converge_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("converge") / "table.csv"
    wl = workloads.ConvergeTables(2, out, n_max=(2_000, 3_000), bernoulli_n_max=(500, 800))
    wl.setup()
    ops = _first(wl, 10)
    return wl, ops, _run_all(wl, ops)


def test_converge_checker_passes_real_results_but_for_the_known_defect(converge_run):
    wl, ops, outputs = converge_run
    for index, reasons in wl.check(ops, outputs).items():
        assert reasons == ["alt-coth-branch-constant"]
        assert ops[index].rep == "alt-coth"


def _edit_row(output, row, edit):
    code, text = output
    lines = text.splitlines()
    lines[row + 1] = edit(lines[row + 1])
    return code, "\n".join(lines) + "\n"


@pytest.mark.parametrize("rep", ["direct", "bernoulli"])
def test_converge_checker_flags_a_flipped_sign(converge_run, rep):
    wl, ops, outputs = converge_run
    i = _pick(ops, rep=rep)

    def flip(line):
        n, re, im, *rest = line.split(",")
        return ",".join([n, repr(-float(re)), im, *rest])

    corrupted = list(outputs)
    corrupted[i] = _edit_row(outputs[i], ops[i].sample_row, flip)
    assert "sample-row" in wl.check(ops, corrupted)[ops[i].index]


def test_converge_checker_flags_a_dropped_row(converge_run):
    wl, ops, outputs = converge_run
    code, text = outputs[0]
    lines = text.splitlines()
    corrupted = list(outputs)
    corrupted[0] = code, "\n".join(lines[:5] + lines[6:])
    assert wl.check(ops, corrupted)[ops[0].index] == ["rows"]


def test_converge_checker_flags_a_shrunken_tail_bound(converge_run):
    wl, ops, outputs = converge_run
    i = _pick(ops, rep="direct")

    def shrink(line):
        *head, tail = line.split(",")
        return ",".join([*head, repr(float(tail) / 2)])

    corrupted = list(outputs)
    corrupted[i] = _edit_row(outputs[i], 3, shrink)
    assert "tail-bound-value" in wl.check(ops, corrupted)[ops[i].index]


def test_converge_checker_explains_rounding_beyond_the_tail_bound(tmp_path):
    # At n ~ 4.5e5 and Re z ~ 2 the running coth sum rounds further than the
    # truncation bound; the evaluator at the same n is within it.
    wl = workloads.ConvergeTables(10, tmp_path / "t.csv")
    wl.setup()
    op = workloads.ConvergeOp(0, "coth", complex(1.969490700330061, -0.4054340457291481), 452_076, 904, 0)
    assert wl.check([op], _run_all(wl, [op])) == {0: ["cumulative-rounding-beyond-tail"]}


def test_converge_checker_flags_a_failed_exit(converge_run):
    wl, ops, outputs = converge_run
    assert wl.check(ops[:1], [2]) == {ops[0].index: ["exit-2"]}


# --------------------------------------------------------------------------
# zeros-strip checker


@pytest.fixture(scope="module")
def zeros_run():
    wl = workloads.ZerosStrip(4, n_range=(6, 6))
    wl.setup()
    ops = _first(wl, 4)
    return wl, ops, _run_all(wl, ops)


def test_zeros_checker_passes_real_results(zeros_run):
    wl, ops, outputs = zeros_run
    assert all(outputs) and wl.check(ops, outputs) == {}


def test_zeros_checker_flags_a_dropped_root(zeros_run):
    wl, ops, outputs = zeros_run
    i = next(i for i, op in enumerate(ops) if op.rerun)
    corrupted = list(outputs)
    corrupted[i] = outputs[i][:-1]
    assert wl.check(ops, corrupted)[ops[i].index] == ["threads-2-differs"]


def test_zeros_checker_flags_a_flipped_sign(zeros_run):
    wl, ops, outputs = zeros_run
    i = next(i for i, op in enumerate(ops) if not op.rerun)
    corrupted = list(outputs)
    root = outputs[i][0]
    corrupted[i] = [replace(root, location=-root.location)] + outputs[i][1:]
    assert "residual" in wl.check(ops, corrupted)[ops[i].index]


def test_zeros_checker_flags_a_swapped_conjugate_link(zeros_run):
    wl, ops, outputs = zeros_run
    corrupted = list(outputs)
    corrupted[0] = [replace(outputs[0][0], conjugate_of=1)] + outputs[0][1:]
    assert "conjugate-link" in wl.check(ops[:1], corrupted[:1])[ops[0].index]


# --------------------------------------------------------------------------
# span recorder


def test_self_time_subtracts_the_union_of_children():
    N, S, E, P, O, X, T = range(7)
    spans = [
        ["op", 0.0, 10.0, -1, 0, None, None],
        ["a", 1.0, 4.0, 0, 0, None, None],
        ["b", 3.0, 5.0, 0, 0, None, None],  # overlaps a: union is 1..5
        ["c", 3.5, 4.5, 2, 0, None, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 3.0, 1.0, 1.0])


def test_tracer_sees_calls_inside_the_package_and_restores_originals():
    originals = {
        (m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in tracing.TRACED
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        target = rootfind.make_target(zetasieve.RepresentationKind.DIRECT, 6)
        rootfind.find_zeros(target, rootfind.SearchRegion(-1, 1, -3, 3, 8, 8))
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn
    names = [span[0] for span in tracer.spans]
    assert names.count("newton_refine") == 64
    assert "winding_count" in names and "admissible_up_to" in names
    assert all(span[4] == 0 for span in tracer.spans)


def test_layer_metrics_cover_every_listed_metric():
    extra = {"admissible_hits": 0, "admissible_misses": 0, "overhead_ratio": 1.0}
    metrics = tracing.layer_metrics([], 1, extra)
    assert set(metrics) == {name for name, *_ in tracing.LAYER_METRICS}


# --------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
