"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    python3 bench/selftest.py

Checks that the span recorders catch calls made through every namespace
that binds a traced function, that two traced runs on one seed give
identical counts, that the workloads load the layers they claim to, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import spans

T = run.import_package()
SEED = 7
COUNT_SUFFIXES = (".calls", ".elements", "_per_query", ".candidates", "max_transform_bits",
                  ".count")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


class RebindingTest(unittest.TestCase):
    def trace(self, call):
        tracer = spans.Tracer(T)
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        return {k: v["calls"] for k, v in tracer.aggregate()["spans"].items()}

    def test_calls_through_importing_modules_are_seen(self):
        calls = self.trace(lambda: T.torus.component_group(T.torus.norm_torus_spec(6)))
        self.assertGreater(calls.get("lattice.snf", 0), 1)
        self.assertGreater(calls.get("lattice.unimodular_inverse", 0), 0)  # bound in torus
        self.assertGreater(calls.get("galois.close_group", 0), 0)

        family = T.torsor.NormTorsorFamily.from_json_dict(
            {"p": 7, "precision": 4, "e": 3, "n_vars": 1, "f": [{"c": 1, "exp": [1]},
                                                                 {"c": 2, "exp": [0]}]})
        calls = self.trace(lambda: T.torsor.verify_factorization(family, 20, 1))
        self.assertGreater(calls.get("padic.norm_class", 0), 0)  # bound in torsor
        self.assertGreater(calls.get("padic.eth_power_class", 0), calls["padic.norm_class"])

        module = T.galois.GaloisLatticeModule(2, (T.lattice.IntegerMatrix.from_rows(
            [[0, 1], [1, 0]]),))
        calls = self.trace(lambda: T.galois.invariants(module))
        self.assertEqual(calls.get("lattice.kernel_basis"), 1)  # bound in galois

    def test_uninstall_restores_originals(self):
        before = {name: getattr(getattr(T, mod), attr)
                  for name, (mod, attr) in spans.TRACED.items()}
        inits = {name: cls.__init__ for name, cls in before.items() if isinstance(cls, type)}
        tracer = spans.Tracer(T)
        tracer.install()
        tracer.uninstall()
        for name, (mod, attr) in spans.TRACED.items():
            self.assertIs(getattr(getattr(T, mod), attr), before[name])
        for name, init in inits.items():
            self.assertIs(before[name].__init__, init)
        self.assertIs(T.galois.kernel_basis, T.lattice.kernel_basis)
        self.assertIs(T.torsor.norm_class, T.padic.norm_class)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: (traced_run(w), traced_run(w)) for w in run.workloads.BUILDERS}

    def test_counts_repeat_exactly(self):
        for workload, (first, second) in self.runs.items():
            for name, value in first.items():
                if name.endswith(COUNT_SUFFIXES):
                    self.assertEqual(value, second[name], f"{workload} {name}")

    def test_workloads_are_separated(self):
        m = {w: first for w, (first, _) in self.runs.items()}
        self.assertEqual(m["lattice_tower"]["padic.calls"], 0)
        self.assertEqual(m["lattice_tower"]["torsor.calls"], 0)
        self.assertGreater(m["lattice_tower"]["lattice.snf.calls"], 0)
        for w in ("norm_classes", "torsor_sampling"):
            self.assertEqual(m[w]["lattice.snf.calls"], 0, w)
        for w, metrics in m.items():
            if w == "cli_mix":
                self.assertGreater(metrics["cli.main.calls"], 0)
            else:
                self.assertEqual(metrics["cli.main.calls"], 0, w)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli_mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare,
                timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
