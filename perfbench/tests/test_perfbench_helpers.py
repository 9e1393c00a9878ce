"""Tests of the benchmark's own helpers: spans, medians, checks, digests."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import harness, spans, workloads as wl  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 4] > c [2, 3];  a > b [5, 7];  d [11, 12] is a root
    names = ["a", "b", "c", "b", "d"]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 7.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    stats = spans.layer_stats(names, starts, ends, parents)
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert stats["b"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert stats["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert stats["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_recursive_span_counts_inclusive_time_once():
    # r [0, 8] > x [1, 7] > r [2, 5] > r [3, 4];  r [9, 10] after the first tree
    names = ["r", "x", "r", "r", "r"]
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [8.0, 7.0, 5.0, 4.0, 10.0]
    parents = [-1, 0, 1, 2, -1]
    stats = spans.layer_stats(names, starts, ends, parents)
    assert stats["r"]["calls"] == 4
    assert stats["r"]["s"] == 9.0
    assert stats["r"]["self_s"] == pytest.approx(2.0 + 2.0 + 1.0 + 1.0)
    assert stats["x"]["self_s"] == 3.0


def test_tracer_records_nesting_and_operation_ids():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.op = 7
    assert outer(1) == 3
    assert tracer.span_names() == ["outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0]
    assert list(tracer.ops) == [7, 7, 7]
    stats = spans.layer_stats(tracer.span_names(), tracer.starts, tracer.ends,
                              tracer.parents)
    assert stats["inner"]["calls"] == 2
    assert 0.0 <= stats["outer"]["self_s"] <= stats["outer"]["s"]


def test_install_patches_every_binding_and_reports_missing_spans():
    harness.import_cli()
    from groupvar import core, harmonic

    original = core.noether_boundary_sum
    tracer = spans.Tracer()
    table = (("core.noether_boundary_sum", "core", "noether_boundary_sum"),
             ("core.no_such_function", "core", "no_such_function"),
             ("sampling.generate", "sampling", "no_such_prefix_*"))
    restore, missing = spans.install(tracer, table)
    try:
        assert harmonic.noether_boundary_sum is core.noether_boundary_sum
        assert core.noether_boundary_sum is not original
        assert missing == ["core.no_such_function", "sampling.generate"]
    finally:
        spans.uninstall(restore)
    assert core.noether_boundary_sum is original
    assert harmonic.noether_boundary_sum is original


def test_every_default_span_target_exists():
    harness.import_cli()
    restore, missing = spans.install(spans.Tracer())
    spans.uninstall(restore)
    assert missing == []


def test_median_and_sample_count():
    assert harness.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert harness.median_with_count([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        harness.median_with_count([])


def test_speed_factor_is_one_at_reference_speed():
    ref = harness.REF_PROBE_S
    assert harness.speed_factor(ref, ref) == 1.0
    assert harness.speed_factor(ref, 2 * ref) == 1.5


def _verify_op(tmp_path, suite, control, exit_code, passed):
    op = wl.Operation(0, 1, 3, suite=suite, break_symmetry=control)
    (tmp_path / f"verify_{suite}.txt").write_text(f"suite={suite}\npassed={passed}\n")
    outcome = wl.check_operation(op, tmp_path, [exit_code])
    return bool(outcome.failures), bool(outcome.wrong)


def test_failure_counting_with_expected_exit_one_control(tmp_path):
    # (failed, wrong): the control must exit 1 with passed=False
    assert _verify_op(tmp_path, "noether", True, 1, False) == (False, False)
    assert _verify_op(tmp_path, "noether", True, 0, True) == (True, False)
    assert _verify_op(tmp_path, "noether", True, 1, True) == (True, True)
    assert _verify_op(tmp_path, "split", False, 0, True) == (False, False)
    assert _verify_op(tmp_path, "split", False, 1, False) == (True, False)
    assert _verify_op(tmp_path, "split", False, 0, False) == (True, True)
    assert _verify_op(tmp_path, "split", False, -1, None) == (True, True)

    solve = wl.Operation(0, 1, 3, width=2, scale=3.0)
    (tmp_path / "solve").mkdir()
    (tmp_path / "solve" / "solve_report.txt").write_text("converged=False\n")
    outcome = wl.check_operation(solve, tmp_path, [1, 2, 2])
    assert outcome.failures and not outcome.wrong

    ok, failed, wrong = wl.Outcome(), wl.Outcome(), wl.Outcome()
    failed.fail("solve: exit 1")
    wrong.fail("exit 0 contradicts passed=False", wrong=True)
    assert harness.count_failures([ok, failed, ok]) == (3, 1, True)
    assert harness.count_failures([ok, failed, wrong]) == (3, 2, False)


def test_certify_rounds_hold_every_suite_and_one_control_per_group_size():
    ops = wl.operations("certify", 5, 30.0)
    rounds = Counter((op.n, op.suite, op.break_symmetry) for op in ops)
    expected = {(n, suite, False) for n in (3, 5) for suite in wl.SUITES}
    expected |= {(3, "noether", True), (5, "noether", True)}
    assert set(rounds) == expected
    assert rounds[(3, "split", False)] == 3 and rounds[(5, "split", False)] == 2
    assert [op.index for op in ops] == list(range(len(ops)))
    assert sum(op.expected_exit for op in ops) == 5
    assert ops == wl.operations("certify", 5, 30.0)
    assert ops != wl.operations("certify", 6, 30.0)
    assert len(wl.operations("certify", 5, 1.0)) == 9


def test_rough_seeds_come_equally_from_every_cost_band():
    records = json.loads(wl.POOL_FILE.read_text())["seeds"]
    ranked = [r["seed"] for r in sorted(records, key=lambda r: (r["seconds"], r["seed"]))]
    size = len(ranked) // wl.ROUGH_BANDS
    ops = wl.operations("solve-rough", 3, 30.0)
    bands = Counter(ranked.index(op.seed) // size for op in ops)
    assert len(bands) == wl.ROUGH_BANDS
    assert len(set(bands.values())) == 1
    assert len({op.seed for op in ops}) == len(ops)
    assert ops == wl.operations("solve-rough", 3, 30.0)
    assert ops != wl.operations("solve-rough", 4, 30.0)


def test_solve_operation_checks_and_digests_are_stable(tmp_path):
    cli = harness.import_cli()
    op = wl.Operation(0, 11, 3, width=2, scale=0.1)
    digests = []
    for name in ("first", "second"):
        _, exits, _ = harness.run_operation(cli, op, tmp_path / name)
        assert wl.check_operation(op, tmp_path / name, exits) == wl.Outcome()
        digests.append(wl.digests(tmp_path / name))
    assert digests[0] == digests[1]
    assert "solve/solve_report.txt" in digests[0]
    assert harness.combined_digest(digests[0]) == harness.combined_digest(
        dict(reversed(list(digests[1].items()))))

    field = tmp_path / "second" / "reconstruct" / "unreduced_field.txt"
    lines = field.read_text().splitlines()
    words = lines[-1].split()
    words[3] = repr(float(words[3]) + 1e-9)
    field.write_text("\n".join(lines[:-1] + [" ".join(words)]) + "\n")
    assert wl.digests(tmp_path / "second") != digests[0]
    outcome = wl.check_operation(op, tmp_path / "second", [0, 0, 0])
    assert any("reconstructed field" in r for r in outcome.wrong)
