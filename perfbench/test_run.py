"""Tests of perfbench/run.py's result comparison.

    python3 -m unittest perfbench/test_run.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def result(cpus, rev, wall):
    return {
        "meta": {"cpus": cpus, "cpu_model": "x", "rustc": "rustc 1", "profile": "release",
                 "git_rev": rev, "source_digest": rev},
        "workload": "meso-noise", "seed": 0, "trace": 0,
        "report": ["record_digest 0123"],
        "result": {"correct": True, "attempted": 8, "failed": 0,
                   "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
    }


class CompareTest(unittest.TestCase):
    def compare(self, base, new):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("base.json", base), ("new.json", new)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            return subprocess.run([sys.executable, RUN, "--compare", *paths],
                                  capture_output=True, text=True)

    def test_same_host_different_revisions_compare(self):
        out = self.compare(result(2, "aaaa", 6.0), result(2, "bbbb", 5.4))
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("-10.00%", out.stdout)

    def test_different_hosts_are_refused(self):
        out = self.compare(result(1, "aaaa", 6.0), result(2, "aaaa", 6.0))
        self.assertEqual(out.returncode, 2)
        self.assertIn("cpus", out.stderr)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
