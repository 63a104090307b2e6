"""Workload definitions and the seeded, cached input generator.

Every input the program sees is a file written here from ``(panel, seed)``.
The packed writer and reader below are the benchmark's own, so a fault in
the program's codec cannot hide in the inputs or in the checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

WORK_DIR = ".perfbench_work"
INPUT_CACHE_KEEP = 6

# 2-bit codes of the packed format: 00 hom-first, 01 missing, 10 het,
# 11 hom-second; four samples per byte, little-endian within the byte.
_CODE_OF_CALL = {0: 0b00, -1: 0b01, 1: 0b10, 2: 0b11}
_CALL_OF_CODE = np.array([0, -1, 1, 2], dtype=np.int8)

PANELS = {
    "null": {
        "n": 2000,
        "snps": 20000,
        "maf": [0.02, 0.5],
        "covariates": [],
        "missing_snp_share": 0.0,
    },
    "locus": {
        "n": 2000,
        "snps": 8000,
        "maf": [0.1, 0.5],
        "ld_block_snps": 100,
        "effect_block_share": 0.5,
        "effect_share": [0.003, 0.02],
        "covariates": ["age", "sex"],
        "missing_snp_share": 0.02,
    },
}

SIMULATION = {
    "n": 300,
    "maf": [0.1, 0.25, 0.4],
    "b": [0.0, 2.0, 3.0, 4.0],
    "alpha": 0.05,
    "replications": 5000,
}

WORKLOADS = {
    # Timed on one thread: a two-thread scan waits for the slower vCPU, and
    # on a shared 2-vCPU host that alone moved its throughput by 40%
    # between runs. The scan's worker pool runs once per invocation, after
    # timing, for the digest check.
    "null_packed": {"panel": "null", "threads": 1, "digest_threads": 2},
    "locus_cov": {"panel": "locus", "threads": 1},
    "simulate_null": {"simulate": SIMULATION},
}


def encode_packed(calls: np.ndarray) -> bytes:
    """Pack (snps, n) int8 calls into the SNP-major 2-bit payload."""
    snps, n = calls.shape
    codes = np.zeros((snps, -(-n // 4) * 4), dtype=np.uint8)
    for call, code in _CODE_OF_CALL.items():
        codes[:, :n][calls == call] = code
    quads = codes.reshape(snps, -1, 4)
    packed = quads[:, :, 0] | quads[:, :, 1] << 2 | quads[:, :, 2] << 4 | quads[:, :, 3] << 6
    return packed.astype(np.uint8).tobytes()


def read_packed_rows(path: str, n: int, rows) -> np.ndarray:
    """Decode the given SNP rows of a packed file into int8 calls."""
    width = -(-n // 4)
    out = np.empty((len(rows), n), dtype=np.int8)
    with open(path, "rb") as fh:
        for k, row in enumerate(rows):
            fh.seek(3 + row * width)
            raw = np.frombuffer(fh.read(width), dtype=np.uint8)
            codes = (raw[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 0b11
            out[k] = _CALL_OF_CODE[codes.ravel()[:n]]
    return out


def _hwe_calls(rng: np.random.Generator, maf: np.ndarray, n: int) -> np.ndarray:
    maf = np.asarray(maf, dtype=np.float64)[:, None]
    p0 = (1.0 - maf) ** 2
    p1 = 2.0 * maf * (1.0 - maf)
    u = rng.random((maf.shape[0], n))
    return ((u > p0).astype(np.int8) + (u > p0 + p1).astype(np.int8)).astype(np.int8)


def generate_null(rng: np.random.Generator, spec: dict):
    """HWE calls over a uniform MAF spread and a pure-noise phenotype."""
    maf = rng.uniform(*spec["maf"], size=spec["snps"])
    calls = _hwe_calls(rng, maf, spec["n"])
    return calls, {"y": rng.standard_normal(spec["n"])}


def generate_locus(rng: np.random.Generator, spec: dict):
    """LD blocks of noisy founder copies; half the blocks move the
    phenotype, two covariates shift it, and a few SNPs miss calls."""
    n, size = spec["n"], spec["ld_block_snps"]
    n_blocks = spec["snps"] // size
    founders = _hwe_calls(rng, rng.uniform(*spec["maf"], size=n_blocks), n)
    calls = np.repeat(founders, size, axis=0)
    redraw = rng.random(calls.shape) < rng.uniform(0.05, 0.4, size=(calls.shape[0], 1))
    fresh = _hwe_calls(rng, rng.uniform(*spec["maf"], size=calls.shape[0]), n)
    calls[redraw] = fresh[redraw]

    # Each effect block's founder explains 0.3-2% of the phenotype
    # variance, which at n = 2000 puts its copies at p of about 5e-2 to
    # 1e-9: inside the exact-evaluation window, below the default screen.
    # The number of effect blocks and their sizes are fixed, only their
    # placement is drawn, so the share of SNPs needing exact p-values (the
    # workload's cost) barely moves with the seed.
    causal = np.sort(rng.permutation(n_blocks)[: round(n_blocks * spec["effect_block_share"])])
    shares = rng.permutation(np.linspace(*spec["effect_share"], causal.size))
    z = founders[causal].astype(np.float64)
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
    genetic = np.sqrt(shares) @ z
    age = rng.normal(50.0, 10.0, size=n)
    sex = (rng.random(n) < 0.5).astype(np.float64)
    noise = rng.standard_normal(n) * np.sqrt(1.0 - shares.sum())
    y = 0.02 * age + 0.3 * sex + genetic + noise

    missing = rng.permutation(calls.shape[0])[: round(calls.shape[0] * spec["missing_snp_share"])]
    for j in missing:
        calls[j, rng.random(n) < rng.uniform(0.01, 0.05)] = -1
    return calls, {"y": y, "age": age, "sex": sex}


GENERATORS = {"null": generate_null, "locus": generate_locus}


def write_panel(directory: str, calls: np.ndarray, columns: dict) -> None:
    os.makedirs(directory)
    geno = os.path.join(directory, "panel.geno")
    with open(geno, "wb") as fh:
        fh.write(b"\x6c\x1b\x01" + encode_packed(calls))
    with open(geno + ".variants.tsv", "w") as fh:
        for j in range(calls.shape[0]):
            fh.write(f"rs{j + 1}\t1\t{1000 * (j + 1)}\n")
    sample_ids = [f"s{i + 1}" for i in range(calls.shape[1])]
    with open(geno + ".samples.txt", "w") as fh:
        fh.write("".join(f"{s}\n" for s in sample_ids))
    names = list(columns)
    with open(os.path.join(directory, "pheno.tsv"), "w") as fh:
        fh.write("\t".join(["sample_id"] + names) + "\n")
        for i, sid in enumerate(sample_ids):
            fh.write("\t".join([sid] + [repr(float(columns[c][i])) for c in names]) + "\n")


def panel_inputs(panel: str, seed: int, root: str = WORK_DIR) -> str:
    """Directory holding the panel's files for ``seed``; generated on first
    use and cached under ``root`` by ``(panel, seed)``, regenerated when
    the panel's spec or this generator changes."""
    cache = os.path.join(root, "inputs")
    directory = os.path.join(cache, f"{panel}-seed{seed}")
    done = os.path.join(directory, "done")
    key = {"panel": panel, "seed": seed, "spec": PANELS[panel], "generator": _generator_digest()}
    if not os.path.exists(done) or _load(done) != key:
        shutil.rmtree(directory, ignore_errors=True)
        rng = np.random.default_rng([seed, sorted(PANELS).index(panel)])
        calls, columns = GENERATORS[panel](rng, PANELS[panel])
        write_panel(directory, calls, columns)
        with open(done, "w") as fh:
            json.dump(key, fh)
    _prune(cache, keep=directory)
    return directory


def _generator_digest() -> str:
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _prune(cache: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(cache, d) for d in os.listdir(cache)),
        key=os.path.getmtime, reverse=True,
    )
    for old in entries[INPUT_CACHE_KEEP:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def scan_argv(workload: str, directory: str, out: str, threads: int) -> list:
    panel = PANELS[WORKLOADS[workload]["panel"]]
    argv = [
        "scan", "--geno", os.path.join(directory, "panel.geno"),
        "--pheno", os.path.join(directory, "pheno.tsv"), "--pheno-col", "y",
        "--out", out, "--threads", str(threads),
    ]
    if panel["covariates"]:
        argv += ["--covar", ",".join(panel["covariates"])]
    return argv


def simulate_argv(seed: int, out: str) -> list:
    sim = SIMULATION
    return [
        "simulate", "--mode", "null", "--n", str(sim["n"]),
        "--maf", ",".join(map(str, sim["maf"])), "--b", ",".join(map(str, sim["b"])),
        "--alpha", str(sim["alpha"]), "--replications", str(sim["replications"]),
        "--seed", str(seed), "--out", out,
    ]


def tests_per_run(workload: str) -> int:
    """Association tests in one run: one per SNP, or one per
    (replication, method) pair in the simulation."""
    spec = WORKLOADS[workload]
    if "simulate" in spec:
        sim = spec["simulate"]
        methods = len(sim["b"]) + 2  # additive_F and anova_F competitors
        return sim["replications"] * len(sim["maf"]) * methods
    return PANELS[spec["panel"]]["snps"]
