"""Self-test of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench/tests -v     (from the repository root)

Builds perfbench/ on first use like run.py does. Every case runs the real
workloads with a small --n override, so the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
TINY = ["--n", "256", "--seconds", "0.5"]


def run(*args, env=None, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    return r


def result(r):
    assert r.returncode == 0, r.stderr
    return r.stdout, json.loads(r.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_run(self, workload, trace):
        out, res = result(run("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY))
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertRegex(out, rf"(?m)^{m['name']}\s+\S+ {m['unit']}")
        self.assertIn("ops=", out)
        return {k: v["value"] for k, v in res["metrics"].items()}

    def test_every_workload_prints_every_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e = self.check_run(w["name"], 0)
                self.assertTrue(all(v > 0 for v in e2e.values()), e2e)
                layer = self.check_run(w["name"], 1)
                dc_work = [v for k, v in layer.items() if k.startswith("dc.busy.")]
                mrrr_work = [v for k, v in layer.items() if k.startswith("mrrr.busy.")]
                if w["name"].startswith("mrrr"):
                    # dc and blas do no work on the MRRR workload.
                    self.assertEqual(layer["blas.gemm_gflop"], 0)
                    self.assertFalse(any(dc_work))
                    self.assertTrue(any(mrrr_work))
                else:
                    self.assertFalse(any(mrrr_work))
                    self.assertGreater(sum(dc_work), 50.0)

    def test_perturbed_eigenvalue_counts_as_failed(self):
        _, res = result(run("--workload", "dc_gemm", "--seed", "3", "--perturb", *TINY))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_self_comparison_reports_no_change(self):
        sides = []
        for _ in range(2):
            files = []
            for _ in range(3):
                r = run("--workload", "mrrr_bisect", "--seed", "3", *TINY)
                f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
                f.write(result(r)[0])
                f.close()
                files.append(f.name)
            sides.append(files)
        try:
            c = subprocess.run([sys.executable, "perfbench/compare.py", "--workload", "mrrr_bisect",
                                "--base", *sides[0], "--new", *sides[1]], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True)
            self.assertEqual(c.returncode, 0, c.stdout)
            self.assertIn("no change", c.stdout)
        finally:
            for f in sides[0] + sides[1]:
                os.unlink(f)

    def test_program_changing_knob_is_refused(self):
        r = run("--workload", "dc_gemm", *TINY, env=dict(os.environ, DNC_SCHED="central"))
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run("--workload", "dc_gemm", *TINY, cwd=d)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")

    def test_layer_map_matches_benchmark(self):
        names = [w["name"] for w in BENCH["workloads"]]
        e2e = [m["name"] for m in BENCH["end_to_end"]]
        self.assertEqual(list(LAYERS["workloads"]), names)
        self.assertEqual(list(LAYERS["end_to_end"]), e2e)
        self.assertEqual(list(LAYERS["per_layer"]), [m["name"] for m in BENCH["per_layer"]])
        for name, m in LAYERS["per_layer"].items():
            self.assertTrue(set(m["steady_on"]) <= set(names), name)
            for mv in m["moves"]:
                self.assertIn(mv["workload"], names, name)
                self.assertIn(mv["metric"], e2e, name)


if __name__ == "__main__":
    unittest.main()
