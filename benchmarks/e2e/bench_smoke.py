"""Smoke run of the end-to-end benchmark, collected by ``pytest benchmarks/e2e``.

Every workload on its two- or three-cell slice, one untraced and one
traced round each (well under a minute): digests, the service's
zero-re-execution check and the Chrome trace's validity must all hold.
"""

import json
import subprocess
import sys

import run


def bench_e2e_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == set(run.WORKLOADS)
    for workload in document["workloads"].values():
        assert workload["correct"]
        assert workload["metrics"]["core.sim_s"]["median"] > 0
