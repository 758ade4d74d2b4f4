#!/usr/bin/env python3
"""Exact-count guards: what must repeat between two same-seed runs.

Timings drift with the host; these counts must not.  Each case runs the
benchmark through run.py with a fixed op count per client (--ops), reads
the "# guard" lines of its log and compares them:

  * heavy-tree (1 client): every guard repeats exactly -- virtual time,
    object primitives, rebalance counters and the ObjectCloud::DebugDump()
    digest after the measured phase;
  * ingest (4 clients, 4 middlewares): virtual time and primitives repeat
    exactly; backend records, fsyncs, appended bytes and the rebalance
    counters within 0.1% -- gossip rounds run on four threads, so the
    digits of gossip-merged timestamps, and rarely a write, depend on the
    interleaving;
  * hot-read (4 clients sharing a middleware): primitives repeat exactly,
    virtual time within 0.1%;
  * the traced run performs maintenance through the sub-calls that
    H2Cloud::RunMaintenanceStep documents; it must leave the same
    DebugDump() as the untraced run, and its allocation count (one
    client, replaced operator new) must repeat exactly.

Run from the repository root:  python3 perfbench/guard_test.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def run(workload, ops, trace=0):
    """Runs one fixed-size benchmark and returns its guard values."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "10", "--trace",
           str(trace), "--ops", str(ops)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    guards = {}
    for line in out.stdout.splitlines():
        if line.startswith("# guard "):
            fields = line.split()[2:]
            guards.update(zip(fields[0::2], fields[1::2]))
    last = out.stdout.strip().splitlines()[-1]
    if '"correct": true' not in last or '"failed": 0' not in last:
        raise AssertionError(f"{workload}: incorrect run: {last}")
    return guards


class GuardTest(unittest.TestCase):
    def test_heavy_tree_repeats_exactly(self):
        first, second = run("heavy-tree", 600), run("heavy-tree", 600)
        self.assertEqual(first, second)

    def test_ingest_repeats(self):
        first, second = run("ingest", 300), run("ingest", 300)
        for key in ("ops", "virtual_ns", "primitives"):
            self.assertEqual(first[key], second[key], key)
        for key in ("backend.appended_bytes", "backend.records",
                    "backend.fsyncs", "rebalance.keys_moved",
                    "rebalance.objects_copied", "rebalance.objects_dropped"):
            a, b = int(first[key]), int(second[key])
            self.assertLessEqual(abs(a - b), a * 1e-3, key)

    def test_hot_read_repeats(self):
        first, second = run("hot-read", 600), run("hot-read", 600)
        self.assertEqual(first["ops"], second["ops"])
        self.assertEqual(first["primitives"], second["primitives"])
        a, b = int(first["virtual_ns"]), int(second["virtual_ns"])
        self.assertLessEqual(abs(a - b), a * 1e-3)

    def test_traced_maintenance_leaves_same_state(self):
        untraced = run("heavy-tree", 600)
        traced = run("heavy-tree", 600, trace=1)
        self.assertEqual(untraced["dump_fnv1a"], traced["dump_fnv1a"])
        self.assertEqual(untraced["virtual_ns"], traced["virtual_ns"])
        again = run("heavy-tree", 600, trace=1)
        self.assertGreater(int(traced["allocs"]), 0)
        self.assertEqual(traced["allocs"], again["allocs"])
        self.assertEqual(traced["alloc_bytes"], again["alloc_bytes"])


if __name__ == "__main__":
    unittest.main()
