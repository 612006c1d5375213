#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_perfbench.py            # arithmetic + CLI parity
    python3 perfbench/test_perfbench.py Arithmetic  # arithmetic only

The parity tests build avd_perfbench and avd_cli into $CARGO_TARGET_DIR
(default .bench_build) and check, for every workload, that the benchmark's
copy of the CLI's executor set-up writes the same campaign journal as
`avd_cli campaign` (or `avd_cli fleet` for quorum-fleet) with the same
system, seed and budget.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import metrics  # noqa: E402
import run  # noqa: E402


def campaign(index, rep=0, **fields):
    record = {"type": "campaign", "index": index, "rep": rep, "traced": 0,
              "seed": 100 + index,
              "timed": 1, "budget": 10, "executed": 10, "failed": 0,
              "timed_out": 0, "reassigned": 0, "respawns": 0,
              "worker_crashes": 0, "aborted": 0, "bad_impacts": 0,
              "journal": "aa"}
    record.update(fields)
    return record


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 99.9), 100)
        self.assertEqual(metrics.percentile([7], 50), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # 19 samples: even the median leaves only 9 above it.
        self.assertEqual(metrics.tail(list(range(19))), (0.0, 0.0))
        # 20 samples: the median (rank 10) leaves exactly 10.
        self.assertEqual(metrics.tail(list(range(1, 21))), (50.0, 10))
        # 100 samples: p90 (rank 90) leaves 10; p95 would leave 5.
        self.assertEqual(metrics.tail(list(range(1, 101))), (90.0, 90))
        # 1000 samples: p99 leaves 10; p99.9 leaves 1.
        self.assertEqual(metrics.tail(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(metrics.tail(list(range(1, 10001))),
                         (99.9, 9990))

    def test_clean_campaign_has_no_failures(self):
        self.assertEqual(metrics.campaign_failures(campaign(0), True), 0)

    def test_failed_timed_out_reassigned_and_bad_impacts_count(self):
        record = campaign(0, failed=1, timed_out=2, reassigned=3,
                          bad_impacts=1)
        self.assertEqual(metrics.campaign_failures(record, True), 7)

    def test_missing_scenarios_count(self):
        record = campaign(0, executed=6)
        self.assertEqual(metrics.campaign_failures(record, True), 4)

    def test_whole_campaign_fails_on_lost_determinism_or_workers(self):
        self.assertEqual(metrics.campaign_failures(campaign(0), False), 10)
        for field in ("aborted", "worker_crashes", "respawns"):
            record = campaign(0, **{field: 1})
            self.assertEqual(metrics.campaign_failures(record, True), 10)

    def test_failures_are_capped_at_the_budget(self):
        record = campaign(0, failed=8, timed_out=8)
        self.assertEqual(metrics.campaign_failures(record, True), 10)

    def test_self_time_is_span_minus_children(self):
        spans = [
            {"id": 0, "parent": -1, "start": 0, "end": 100},
            {"id": 1, "parent": 0, "start": 10, "end": 30},
            {"id": 2, "parent": 0, "start": 50, "end": 60},
            # A grandchild is covered by its parent, not by span 0 again.
            {"id": 3, "parent": 1, "start": 12, "end": 20},
        ]
        self_time = metrics.self_times(spans)
        self.assertEqual(self_time[0], 70)
        self.assertEqual(self_time[1], 12)
        self.assertEqual(self_time[2], 10)
        self.assertEqual(self_time[3], 8)

    def test_parallel_children_overlap_once_and_are_clipped(self):
        spans = [
            {"id": 0, "parent": -1, "start": 0, "end": 100},
            {"id": 1, "parent": 0, "start": 10, "end": 40},
            {"id": 2, "parent": 0, "start": 20, "end": 50},
            {"id": 3, "parent": 0, "start": 90, "end": 120},
        ]
        self.assertEqual(metrics.self_times(spans)[0], 100 - 40 - 10)

    def test_trace_overhead_share(self):
        self.assertAlmostEqual(metrics.overhead_share(9.0, 10.0), 0.1)
        self.assertAlmostEqual(metrics.overhead_share(10.5, 10.0), -0.05)
        with self.assertRaises(ValueError):
            metrics.overhead_share(1.0, 0.0)


class Checks(unittest.TestCase):
    def records(self, *campaigns):
        return list(campaigns) + [
            {"type": "unit", "campaigns": 2, "classes_union": 3},
            {"type": "done"}]

    def test_clean_runs_read_zero(self):
        attempted, failed, problems = run.check(self.records(
            campaign(0), campaign(1, journal="bb"), campaign(0, rep=1)))
        self.assertEqual((attempted, failed, problems), (30, 0, []))

    def test_a_journal_that_differs_between_runs_fails_its_campaign(self):
        attempted, failed, problems = run.check(self.records(
            campaign(0), campaign(0, rep=1, journal="ab"), campaign(1)))
        self.assertEqual((attempted, failed), (30, 20))
        self.assertTrue(problems)

    def test_class_counts_must_repeat(self):
        records = self.records(campaign(0)) + [
            {"type": "unit", "campaigns": 2, "classes_union": 4}]
        self.assertTrue(run.check(records)[2])

    def test_pooled_rate(self):
        rate = run.pooled_rate([campaign(0, wall_s=2.0),
                                campaign(1, wall_s=3.0, executed=15)])
        self.assertEqual(rate, 5.0)


class CliParity(unittest.TestCase):
    """The benchmark's first campaign of every workload writes the journal
    and manifest that avd_cli writes for the same system, seed and
    budget."""

    @classmethod
    def setUpClass(cls):
        cls.bench = run.build("avd_perfbench")
        cls.cli = run.build("avd_cli")

    def check_workload(self, workload, seed):
        os.makedirs(run.build_dir(), exist_ok=True)
        scratch = tempfile.mkdtemp(dir=run.build_dir(), prefix="parity-")
        try:
            bench_dir = os.path.join(scratch, "bench")
            cli_dir = os.path.join(scratch, "cli")
            out = subprocess.run(
                [self.bench, "campaign", "--workload", workload,
                 "--seed", str(seed), "--dir", bench_dir],
                check=True, capture_output=True, text=True).stdout
            info = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(info["executed"], info["tests"])
            common = ["--system", info["system"], "--seed", str(info["seed"]),
                      "--tests", str(info["tests"]), "--out", cli_dir]
            if info["fleet"]:
                command = [self.cli, "fleet", *common,
                           "--spawn", str(info["spawn"]),
                           "--batch", str(info["batch"])]
            else:
                command = [self.cli, "campaign", *common, "--workers", "1"]
            subprocess.run(command, check=True, capture_output=True)
            for name in ("journal.jsonl", "manifest.json"):
                self.assertTrue(
                    filecmp.cmp(os.path.join(bench_dir, name),
                                os.path.join(cli_dir, name), shallow=False),
                    f"{workload}: {name} differs from avd_cli's")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def test_pbft_mac(self):
        self.check_workload("pbft-mac", run.DEFAULT_SEED)

    def test_pbft_churn(self):
        self.check_workload("pbft-churn", run.DEFAULT_SEED)

    def test_quorum_fleet(self):
        self.check_workload("quorum-fleet", run.DEFAULT_SEED)

    def test_pbft_flood(self):
        self.check_workload("pbft-flood", run.DEFAULT_SEED)

    def test_second_seed(self):
        self.check_workload("pbft-churn", 2)


if __name__ == "__main__":
    unittest.main()
