"""The benchmark's traced run (``perfbench/layers.py``) wraps program
functions by the names their callers look up.  This check runs it in a
fresh interpreter, so a renamed or inlined layer fails here instead of
reading as an empty layer in a benchmark report."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from gdcscan.cli import main
from gdcscan.io import write_packed
from gdcscan.simbench import draw_genotypes

ROOT = pathlib.Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path.insert(0, {bench!r})
from layers import instrument
from spans import Tracer
import gdcscan.cli as cli

tracer = Tracer()
instrument(tracer)
assert cli.main({argv!r}) == 0
print(json.dumps(sorted({{span[0] for span in tracer.spans}})))
"""


def test_traced_scan_records_the_layers_and_keeps_the_bytes(tmp_path):
    """A packed covariate scan with missing calls, traced through
    ``layers.instrument``, writes the untraced run's bytes and records
    spans for the block engine, the formatter, the bounds and the sweep."""
    rng = np.random.default_rng(11)
    n, n_snps = 200, 60
    g = draw_genotypes(rng, n, 0.3, n_snps)
    g[rng.random(g.shape) < rng.uniform(0.0, 0.1, size=(n_snps, 1))] = -1
    samples = [f"s{j}" for j in range(n)]
    geno = str(tmp_path / "panel.geno")
    write_packed(geno, g, [(f"rs{i}", "1", 100 * i) for i in range(n_snps)], samples)
    age = rng.normal(50.0, 10.0, n)
    sex = rng.integers(0, 2, n)
    y = rng.standard_normal(n) + 0.02 * age + 0.3 * sex + 0.8 * (g[3] == 2)
    pheno = tmp_path / "pheno.tsv"
    pheno.write_text("sample_id\ty\tage\tsex\n" + "".join(
        f"{s}\t{y[j]:.17g}\t{age[j]:.17g}\t{sex[j]}\n" for j, s in enumerate(samples)))
    argv = ["scan", "--geno", geno, "--pheno", str(pheno), "--pheno-col", "y",
            "--covar", "age,sex", "--out"]
    plain, traced = tmp_path / "plain.tsv", tmp_path / "traced.tsv"
    assert main(argv + [str(plain)]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = TRACED_RUN.format(bench=str(ROOT / "perfbench"), argv=argv + [str(traced)])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = set(json.loads(done.stdout))
    assert traced.read_bytes() == plain.read_bytes()
    assert {"scan.process_block", "scan.record_row", "nulldist.pvalue_bounds_batch",
            "kernels.hardcall_stats"} <= spans
