"""Stable reports and output tables have the same bytes on every machine.

The search screens candidates with a float32 GEMM whose rounding depends
on the BLAS kernel, and then rescores the survivors exactly. So no report
byte may depend on the kernel OpenBLAS picks for the CPU, on its thread
count or on Python's hash seed. The tables plant clusters of near-tied
neighbors, whose float32 order is rounding noise, across several search
chunks.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_table
from embcat.analysis import CHUNK_ROWS
from embcat.embio import Format, write_embeddings

# together these cover every value of each variable
CONFIGS = [
    {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
    {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "1"},
    {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "1"},
    {"OPENBLAS_CORETYPE": "SkylakeX", "OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "0"},
]
DIM = 48
N_QUERIES = 40
CLUSTER = 30  # near-tied neighbors of each query, of which k are kept
K = 10

# one float32 GEMM of the search's shape: (queries, dim) @ (dim, chunk)
GEMM = f"""
import hashlib, numpy as np
rng = np.random.default_rng(0)
q = rng.standard_normal(({N_QUERIES}, {DIM})).astype(np.float32)
rows = rng.standard_normal(({DIM}, 4096)).astype(np.float32)
print(hashlib.sha256((q @ rows).tobytes()).hexdigest())
"""


def _child(args, config, cwd):
    env = {**os.environ, **config}
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _write_inputs(path):
    """Tables A, B and C of more than CHUNK_ROWS rows each, D, whose
    vocabulary is a strict subset of A's, and a corpus whose most frequent
    types are the queries."""
    rng = np.random.default_rng(2024)
    n = CHUNK_ROWS + 1500
    queries = [f"q{i:02d}" for i in range(N_QUERIES)]
    cluster = [f"c{i:02d}_{j:02d}" for i in range(N_QUERIES) for j in range(CLUSTER)]
    words = queries + cluster
    words += [f"r{i:05d}" for i in range(n - len(words))]
    for name, spread in (("A", 0.0), ("B", 0.02), ("C", 0.0)):
        vectors = rng.standard_normal((n, DIM))
        # cluster rows are q + r with r orthogonal to q: in A and C each
        # has the same cosine to q up to float32 storage, so which k of
        # them are nearest is decided in the last bits; in B the cosines
        # fall apart by `spread`
        for i in range(N_QUERIES):
            q = vectors[i] / np.linalg.norm(vectors[i])
            for j in range(CLUSTER):
                r = rng.standard_normal(DIM)
                r -= (r @ q) * q
                r *= (0.5 + spread * j) / np.linalg.norm(r)
                vectors[N_QUERIES + i * CLUSTER + j] = q + r
        # the cluster rows of a query sit in different search chunks
        order = np.concatenate([np.arange(N_QUERIES), N_QUERIES + rng.permutation(n - N_QUERIES)])
        table = make_table(name, [words[o] for o in order], vectors[order])
        write_embeddings(table, path / f"{name}.bin", Format.WORD2VEC_BINARY)
        if name == "C":
            # C's rows without every third non-query row, a third of each
            # cluster among them: masked to D's words, A's search has to
            # decide among the remaining near-tied rows
            keep = [r for r in range(n) if r < N_QUERIES or r % 3]
            subset = make_table("D", [table.words[r] for r in keep], table.vectors[keep])
            write_embeddings(subset, path / "D.bin", Format.WORD2VEC_BINARY)
    lines = [f"{q} O" for q in queries for _ in range(3)]
    lines += [f"{w} O" for w in words[len(queries) : len(queries) + 500]]
    (path / "train.conll").write_text("\n".join(lines) + "\n")
    (path / "dev.conll").write_text("\n".join(lines[::2]) + "\n")


def test_stable_outputs_are_the_same_bytes_on_every_blas_kernel(tmp_path):
    patterns = set()
    for config in CONFIGS:
        probe = subprocess.run(
            [sys.executable, "-c", GEMM], env={**os.environ, **config},
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            pytest.skip(f"a float32 GEMM fails under {config}: {probe.stderr.strip()}")
        patterns.add(probe.stdout)
    if len(patterns) < 2:
        pytest.skip(
            "one float32 GEMM gives the same bits under every OPENBLAS_CORETYPE: "
            "numpy's OpenBLAS picks no kernel per CPU here, so the kernel is not varied"
        )
    _write_inputs(tmp_path)
    common = ["--train", "train.conll", "--dev", "dev.conll", "--stable"]
    commands = {
        "pair-report": ["pair-report", "--emb-a", "A.bin", "--emb-b", "B.bin",
                        "--k", str(K), "--top-n", str(N_QUERIES), *common],
        "recommend": ["recommend", "--emb", "A.bin", "--emb", "B.bin", "--emb", "C.bin",
                      "--k", str(K), "--top-n", str(N_QUERIES), *common],
        "similarity": ["similarity", "--emb-a", "A.bin", "--emb-b", "D.bin", "--data", "train.conll",
                       "--k", str(K), "--top-n", str(N_QUERIES), "--shared-vocab-only", "--stable"],
        "combine": ["combine", "--emb", "A.bin", "--emb", "B.bin", "--data", "train=train.conll",
                    "--policy", "random-second", "--out", "AB.glove", "--stable"],
    }
    runs = []
    for config in CONFIGS:
        run = {}
        for name, argv in commands.items():
            run[name] = _child(["-m", "embcat.cli", *argv], config, tmp_path)
        for out in ("AB.glove", "AB.glove.manifest.json"):
            run[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
        runs.append(run)
    differ = sorted({name for run in runs[1:] for name in run if run[name] != runs[0][name]})
    assert differ == []
