"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py
(The name keeps pytest from collecting it into the repository's own suite.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SmallMaps(unittest.TestCase):
    """In-process maps reps on a few inputs."""

    def setUp(self):
        self.saved = workloads.MAPS_N, workloads.MAPS_PER_SIZE
        workloads.MAPS_N, workloads.MAPS_PER_SIZE = range(20, 24), 1

    def tearDown(self):
        workloads.MAPS_N, workloads.MAPS_PER_SIZE = self.saved

    def test_same_seed_same_inputs(self):
        self.assertEqual(workloads.maps_inputs(7), workloads.maps_inputs(7))
        self.assertNotEqual(workloads.maps_inputs(7), workloads.maps_inputs(8))
        self.assertEqual(workloads.maps_prepare(7), workloads.maps_prepare(7))

    def test_seed_code_passes(self):
        rep = worker.run_rep("maps", 3)
        self.assertEqual((rep["failed"], rep["errors"]), (0, []))
        self.assertEqual(rep["attempted"], 24 * len(workloads.MAPS_N))

    def test_wrong_map_injected_by_rebinding_raises_error_rate(self):
        from coxcat import typemaps

        def wrong_rho_inverse(p, check=True):
            return p

        undo = tracer.rebind({typemaps.rho_inverse: wrong_rho_inverse})
        try:
            self.assertIs(typemaps.rho_inverse, wrong_rho_inverse)
            rep = worker.run_rep("maps", 3)
        finally:
            tracer.rebind(undo)
        self.assertIsNot(typemaps.rho_inverse, wrong_rho_inverse)
        self.assertGreater(rep["failed"] / rep["attempted"], 0)
        # at least the two ops of every rho round trip fail
        self.assertGreaterEqual(rep["failed"], 2 * len(workloads.MAPS_N))

    def test_tracer_sees_from_imports_and_deferred_imports(self):
        from coxcat import SetPartition, encode, interpret, models, typemaps

        original = models.is_member
        marked = models.MarkedPair.make(SetPartition.from_blocks([[1, 3], [2], [4]]), [[1, 3]])
        t = tracer.Tracer(layers.GROUPS)
        t.install()
        try:
            self.assertIsNot(typemaps.is_member, original)
            self.assertIs(typemaps.is_member, models.is_member)
            encode.psi_b(interpret.phi_nc_b_inverse(marked))  # psi_b imports phi_nc_b in its body
        finally:
            t.uninstall()
        self.assertIs(typemaps.is_member, original)
        self.assertEqual(t.counter("name:interpret.phi_nc_b")["calls"], 1)
        self.assertGreater(t.counter("group:core.membership")["calls"], 0)


class Oracles(unittest.TestCase):
    def test_random_noncrossing_partitions_are_noncrossing(self):
        import random

        from coxcat import SetPartition, is_member

        rng = random.Random(5)
        for n in (1, 2, 8, 30):
            for _ in range(20):
                blocks = oracles.random_nc(rng, n)
                self.assertTrue(is_member(SetPartition.from_blocks(blocks, n), "nc_a"))

    def test_closed_forms(self):
        # type-B Bell numbers, central binomials, type-D Catalan numbers, Catalan numbers
        self.assertEqual([oracles.family_count("pi_b", n) for n in range(1, 8)], [2, 6, 24, 116, 648, 4088, 28640])
        self.assertEqual([oracles.family_count("nc_b", n) for n in range(1, 6)], [2, 6, 20, 70, 252])
        self.assertEqual([oracles.family_count("nn_d", n) for n in range(2, 7)], [4, 14, 50, 182, 672])
        self.assertEqual(oracles.family_count("nn_a", 11), 58786)


class Processes(unittest.TestCase):
    def test_self_times_sum_to_traced_wall_within_overhead(self):
        # verify: tracing more than doubles its wall time, far above host noise
        spans = os.path.join(run.OUT, "selftest-spans.tsv.gz")
        os.makedirs(run.OUT, exist_ok=True)
        plain = run.run_worker("verify", 2)
        traced = run.run_worker("verify", 2, spans)
        self.assertNotIn("crashed", plain)
        self.assertNotIn("crashed", traced)
        overhead = traced["wall_s"] - plain["wall_s"]
        gap = traced["wall_s"] - traced["self_sum_s"]
        self.assertGreater(overhead, 0)
        self.assertTrue(0 <= gap <= overhead, (gap, overhead))
        self.assertEqual(traced["failed"], 0)

    def test_refuses_without_the_program(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
                                "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                               timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [name for name, _ in run.END_TO_END])
        self.assertEqual(spec["per_layer"], layers.per_layer_entries())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
