"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import random
import types
from fractions import Fraction

import pytest

import calibrate
import layers
import program
import run
import stats
import suite
from gamegen import random_game
from spans import Span, Tracer, covered, layer_totals, self_times
from workloads import WORKLOADS, GateContext, Solve


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert stats.beyond(n, pct) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_nearest_rank():
    xs = list(range(1, 101))  # 1..100
    random.Random(0).shuffle(xs)
    assert stats.nearest_rank(xs, 50) == 50
    assert stats.nearest_rank(xs, 90) == 90
    assert stats.nearest_rank(xs, 99.9) == 100
    assert stats.nearest_rank([7.0], 95) == 7.0
    assert stats.beyond(100, 90) == 10


def test_each_workload_has_a_tail_above_the_median():
    # the tail is taken over a pass's games, so a pass must hold at least 40
    tails = {name: stats.tail_percentile(len(w.fixtures) + w.pool * len(w.classes))
             for name, w in WORKLOADS.items()}
    assert tails == {"limit-anchored": 90.0, "certify": 75.0}


def test_typical_times_are_each_games_median():
    samples = [("a", 0.3), ("b", 2.0), ("a", 0.1), ("b", 1.5), ("a", 0.2), ("a", 9.0)]
    assert stats.typical_times(samples) == {"a": 0.25, "b": 1.75}


@pytest.mark.parametrize("seconds, passes", [(0.1, 1), (1.4, 1), (1.6, 2), (2.4, 2), (2.6, 3)])
def test_loop_stops_at_the_pass_end_nearest_to_seconds(monkeypatch, seconds, passes):
    monkeypatch.setattr(run, "solve_once", lambda mods, solve: (None, 0.5))
    set_ups, probes = [], iter(range(1, 100))
    records, factors, elapsed = run.closed_loop(
        {}, ["x", "y"], seconds, lambda: set_ups.append(1), lambda: next(probes))
    assert len(records) == 2 * passes and elapsed == passes
    assert [p for *_, p in records] == [i // 2 for i in range(2 * passes)]
    # a probe before each 0.5 s solve; a pass's factor is the median of its probes
    assert factors == [1.5, 3.5, 5.5][:passes]
    assert len(set_ups) == int(elapsed // run.SETUP_EVERY_S)


def test_timing_metrics():
    samples = [("a", 0.1), ("a", 0.3), ("a", 0.2), ("b", 1.0), ("b", 3.0)]
    assert run.timing_metrics(samples, [5.0, 1.0, 2.0], 50.0) == {
        "solve_s.p50": 1.1, "solve_s.tail": 0.2, "solves_per_s": 2 / 2.2, "setup_s": 2.0}


def test_speed_factor_is_near_one_and_positive():
    # a factor, not a time: wildly off means REFERENCE_S no longer fits the probe
    assert 0.2 < calibrate.speed_factor() < 5


# -- self-time arithmetic -----------------------------------------------------

def _spans(*rows):
    return [Span(i, parent, 0, name, start, end) for i, (parent, name, start, end) in enumerate(rows)]


def test_self_time_subtracts_children():
    spans = _spans(
        (None, "cli", 0, 100),
        (0, "solver", 10, 40),
        (1, "matrixgame.simplex", 20, 30),
        (0, "gamefile.parse", 50, 60),
    )
    own = self_times(spans)
    assert own == {0: 100 - 30 - 10, 1: 30 - 10, 2: 10, 3: 10}
    assert sum(own.values()) == 100  # self times add up to the root's duration


def test_self_time_counts_overlapping_children_once_and_clips():
    assert covered([(0, 10), (5, 15), (20, 25)]) == 20
    spans = _spans(
        (None, "cli", 0, 100),
        (0, "a", 10, 60),
        (0, "b", 40, 80),  # overlaps a: union 10..80
        (0, "c", 90, 130),  # outlives its parent: clipped to 90..100
    )
    assert self_times(spans)[0] == 100 - 70 - 10


def test_layer_totals_group_by_name():
    spans = _spans(
        (None, "cli", 0, 100),
        (0, "matrixgame.simplex", 0, 20),
        (0, "matrixgame.simplex", 30, 60),
    )
    assert layer_totals(spans) == {"cli": (1, 50), "matrixgame.simplex": (2, 50)}


def test_tracer_nests_spans_and_restores_patches():
    def inner(x):
        return x + 1

    module = types.SimpleNamespace(inner=inner)

    def outer(x):
        return module.inner(x) * 2

    tracer = Tracer()
    tracer.patch(module, "inner", "inner", on_call=lambda t, a, k: t.count("inner.args", a[0]))
    assert module.inner is not inner
    tracer.solve = 7
    assert tracer.span("outer", outer, 3) == 8
    tracer.uninstall()
    assert module.inner is inner
    root, child = tracer.spans
    assert (root.name, root.parent, child.name, child.parent) == ("outer", None, "inner", 0)
    assert root.solve == child.solve == 7
    assert root.start <= child.start <= child.end <= root.end
    assert tracer.counters == {"inner.args": 3}


# -- correctness gate ---------------------------------------------------------

@pytest.fixture(scope="module")
def mods():
    return program.import_program()


def _fixture_solve(name, argv):
    return Solve(tuple(argv), name, (2, 2, 2), False)


def test_limit_gate_rejects_a_wrong_enclosure(mods):
    workload = WORKLOADS["limit-anchored"]
    argv = ["value", "big_match", "--precision", "8", "--json"]
    outcome = program.call_cli(mods["cli"], argv)
    solve = _fixture_solve("big_match", argv)
    ctx = GateContext()
    assert workload.check(solve, outcome.code, outcome.stdout, ctx) is None
    payload = json.loads(outcome.stdout)
    wrong = dict(payload, value=str(Fraction(payload["value"]) + Fraction(1, 64)))
    assert "misses the reference" in workload.gate(solve, wrong, ctx)
    wide = dict(payload, radius=str(Fraction(1, 2**7)))
    assert "radius" in workload.gate(solve, wide, ctx)
    unknown = _fixture_solve("not-a-pool-game", ["value", "x"])
    assert "no reference" in workload.gate(unknown, payload, ctx)
    for code in (1, 2, 3, 4, None):
        assert workload.check(solve, code, outcome.stdout, ctx) is not None
    assert "malformed" in workload.check(solve, 0, "{}", ctx)
    assert "malformed" in workload.check(solve, 0, "not json", ctx)


def test_limit_reference_covers_the_pool(tmp_path):
    workload = WORKLOADS["limit-anchored"]
    recorded = json.loads(workload.reference_path.read_text())["games"]
    pool = [workload.pool_solve(cls, i, tmp_path)
            for cls in workload.classes for i in range(workload.pool)]
    assert all(recorded[s.key]["sha256"] == s.sha256 for s in pool)
    assert all(name in recorded for name in workload.fixtures)


def _build(workload, seed, directory, mods):
    directory.mkdir()
    return workload.build(seed, directory, mods)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_pass_is_every_game_once_in_a_seeded_order(name, mods, tmp_path):
    workload = WORKLOADS[name]
    solves, again, other = (_build(workload, seed, tmp_path / d, mods)
                            for seed, d in ((5, "a"), (5, "b"), (6, "c")))
    assert [s.argv[2:] for s in solves] == [s.argv[2:] for s in again]
    assert [s.key for s in solves] == [s.key for s in again]
    assert [s.key for s in solves] != [s.key for s in other]
    # the seed orders the pass and changes no game or flag
    assert {s.key: (s.sha256, s.argv[2:]) for s in solves} == {
        s.key: (s.sha256, s.argv[2:]) for s in other}
    assert len(solves) == len(workload.fixtures) + workload.pool * len(workload.classes)
    assert len({s.key for s in solves}) == len(solves)


def test_fixtures_carry_their_absorbing_flag(mods):
    workload = WORKLOADS["limit-anchored"]
    flags = {name: workload.fixture_solve(name, mods).absorbing
             for name in workload.fixtures}
    assert flags == {"two_state_2x2": False, "mdp_two_state": False,
                     "big_match": True, "absorbing_mix": True}


def test_certify_gate_rejects_a_failed_outcome():
    workload = WORKLOADS["certify"]
    solve = _fixture_solve("single_mp", ["check", "single_mp"])
    ok = {"passed": True, "outcomes": [{"name": "a", "passed": True, "detail": ""}]}
    bad = {"passed": False, "outcomes": [{"name": "a", "passed": False, "detail": "x"}]}
    ctx = GateContext()
    assert workload.gate(solve, ok, ctx) is None
    assert workload.gate(solve, bad, ctx) is not None
    assert workload.gate(solve, {"passed": True, "outcomes": []}, ctx) is not None


# -- generator and comparison -------------------------------------------------

def test_generator_is_seeded_and_valid(mods):
    a = random_game(random.Random("s"), 2, 2, 3, True, "g").to_text()
    b = random_game(random.Random("s"), 2, 2, 3, True, "g").to_text()
    assert a == b
    game = mods["gamefile"].parse_game(io.StringIO(a)).game
    assert mods["absorbing"].is_absorbing(game)


def test_per_layer_metric_names_match_the_benchmark_file():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_verdict():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [x * 0.8 for x in base]
    slower = [x * 1.3 for x in base]
    same = [x * 1.02 for x in base]
    noisy = [0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 1.0]
    pair = lambda a, b: list(zip(a, b))
    assert stats.verdict(base, faster, "lower", 0.1, pair(base, faster)) == "better"
    assert stats.verdict(base, slower, "lower", 0.1, pair(base, slower)) == "worse"
    assert stats.verdict(base, same, "lower", 0.1, pair(base, same)) == "within-bound"
    assert stats.verdict(base, noisy, "lower", 0.1, pair(base, noisy)) == "unresolved"
    assert stats.verdict(base, slower, "higher", 0.1, pair(base, slower)) == "better"


def _result_set(directory, failed_at=None):
    directory.mkdir()
    for w in suite.SPEC["workloads"]:
        for seed in (1, 2, 3):
            failed = int((w["name"], seed) == failed_at)
            metrics = {m["name"]: {"value": 1.0 + 0.001 * seed, "unit": m["unit"]}
                       for m in suite.SPEC["end_to_end"]}
            result = {"correct": not failed, "attempted": 100, "failed": failed,
                      "metrics": metrics}
            (directory / f"{w['name']}-s{seed}-t0.result.json").write_text(json.dumps(result))
    return str(directory)


def test_compare_marks_failed_solves_worse(tmp_path, capsys):
    base = _result_set(tmp_path / "base")
    same = _result_set(tmp_path / "same")
    broken = _result_set(tmp_path / "broken", failed_at=("certify", 2))
    assert suite.main(["compare", base, same]) == 0
    capsys.readouterr()
    assert suite.main(["compare", base, broken]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("certify")]
    assert len(lines) == len(suite.SPEC["end_to_end"])
    assert all("worse (1 of 300 solves failed)" in ln for ln in lines)
