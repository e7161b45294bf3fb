"""The three workloads: the embcat CLI commands each one runs, on inputs
generated for a seed, and the checks each command's output must pass.

Commands use paths relative to the workload directory and pass --stable
and an explicit --threads, because stable reports embed input paths and
the thread count; their bytes then depend on the seed alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

BACKFILL = (-0.25, 0.25)  # embcat's default keyed-backfill range


@dataclass
class Command:
    label: str
    argv: list[str]  # embcat arguments, without the program name
    inputs: list[str]  # files the command reads, relative to the workload dir
    outputs: list[str]  # files the command writes
    rows: int  # embedding rows parsed plus rows written
    check: Callable[[dict, Path], list[str]]  # (report, workload dir) -> problems


def attested_pct(counts, table: gen.Table) -> float:
    """The generator's own coverage count, in embcat's exact,lowercase
    lookup chain and its formula."""
    hit = sum(1 for t in counts if t in table.index or t.lower() in table.index)
    return 100.0 * hit / len(counts)


def _expect(problems: list[str], what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pair-report: text parsing plus four single-threaded k-NN searches


def pair_report(seed: int, wdir: Path) -> list[Command]:
    w = gen.World(seed, n_vocab=80000)
    a = w.table(wdir / "a.txt", "glove", 60000, 100, noise=0.05)
    b = w.table(wdir / "b.bin", "w2v", 60000, 100, noise=0.15)
    train = w.corpus(wdir / "train.conll", 100000)
    dev = w.corpus(wdir / "dev.conll", 20000)
    # --raw counts cased types, so capitalized corpus types reach the
    # lookup chain and only its lowercase step finds them
    argv = ["pair-report", "--emb-a", "a=a.txt", "--emb-b", "b=b.bin",
            "--train", "train.conll", "--dev", "dev.conll",
            "--raw", "--stable", "--threads", "1"]
    want_train = attested_pct(train.counts(lowercase=False), b)
    want_dev = attested_pct(dev.counts(lowercase=False), b)

    def check(report: dict, _wdir: Path) -> list[str]:
        problems: list[str] = []
        _expect(problems, "attested_train", report["attested_train"], want_train)
        _expect(problems, "attested_dev", report["attested_dev"], want_dev)
        _expect(problems, "pair", (report["embedding_a"], report["embedding_b"]), ("a", "b"))
        for key in ("overlap_train", "overlap_dev"):
            if not 0.0 < report[key] < 100.0:
                problems.append(f"{key} {report[key]} outside (0, 100)")
        return problems

    return [Command("pair-report", argv, ["a.txt", "b.bin", "train.conll", "dev.conll"], [],
                    a.file_rows + b.file_rows, check)]


# ---------------------------------------------------------------------------
# recommend-4: binary tables only, 6 pairs of threaded k-NN searches


def recommend_4(seed: int, wdir: Path) -> list[Command]:
    w = gen.World(seed, n_vocab=90000)
    tables = {
        "A": w.table(wdir / "A.bin", "w2v", 70000, 100, noise=0.05),
        "B": w.table(wdir / "B.bin", "w2v", 40000, 50, noise=0.6),
        "C": w.table(wdir / "C.bin", "w2v", 24000, 300, noise=0.2),
    }
    # the known-answer pair: D is A permuted and scaled by 2
    tables["D"] = w.copy_table(wdir / "D.bin", tables["A"], 2.0)
    train = w.corpus(wdir / "train.conll", 100000)
    dev = w.corpus(wdir / "dev.conll", 20000)
    argv = ["recommend"]
    for name in tables:
        argv += ["--emb", f"{name}={name}.bin"]
    argv += ["--train", "train.conll", "--dev", "dev.conll", "--stable", "--threads", "2"]
    train_counts = train.counts(lowercase=True)
    dev_counts = dev.counts(lowercase=True)
    cov = {n: attested_pct(train_counts, t) for n, t in tables.items()}
    cov_dev = {n: attested_pct(dev_counts, t) for n, t in tables.items()}

    def check(report: dict, _wdir: Path) -> list[str]:
        problems: list[str] = []
        pairs = report["pairs"]
        _expect(problems, "pair count", len(pairs), 6)
        for p in pairs:
            a, b = p["embedding_a"], p["embedding_b"]
            _expect(problems, f"{a}/{b} attested_a", p["attested_a"], cov[a])
            _expect(problems, f"{a}/{b} attested_b", p["attested_b"], cov[b])
            _expect(problems, f"{a}/{b} attested_dev_a", p["attested_dev_a"], cov_dev[a])
            _expect(problems, f"{a}/{b} attested_dev_b", p["attested_dev_b"], cov_dev[b])
            if {a, b} == {"A", "D"}:
                _expect(problems, "known-answer overlap A/D", p["overlap"], 100.0)
            elif not 0.0 < p["overlap"] < 100.0:
                problems.append(f"{a}/{b} overlap {p['overlap']} outside (0, 100)")
        return problems

    inputs = [f"{n}.bin" for n in tables] + ["train.conll", "dev.conll"]
    rows = sum(t.file_rows for t in tables.values())
    return [Command("recommend", argv, inputs, [], rows, check)]


# ---------------------------------------------------------------------------
# export-4: combine for all four policies, writing text tables


POLICIES = ("concat", "random-second", "complement-second", "matched-second")
POLICY_KINDS = {
    "concat": "Concat",
    "random-second": "RandomSecond",
    "complement-second": "ComplementSecond",
    "matched-second": "MatchedSecond",
}


def export_4(seed: int, wdir: Path) -> list[Command]:
    w = gen.World(seed, n_vocab=50000)
    first = w.table(wdir / "F.txt", "glove-header", 14000, 50, noise=0.1)
    second = w.table(wdir / "S.bin", "w2v", 24000, 50, noise=0.3)
    # ~9.3k vocabulary types: more than combine's 8192-row fill span, so
    # --threads 2 fills in parallel
    train = w.corpus(wdir / "train.conll", 34000)
    dev = w.corpus(wdir / "dev.conll", 8500)
    counts = train.counts(lowercase=True) + dev.counts(lowercase=True)
    vocab = ["<PAD>", "<UNK>"] + sorted(counts, key=lambda t: (-counts[t], t))
    commands = []
    for policy in POLICIES:
        out = f"out-{policy}.txt"
        argv = ["combine", "--emb", "F=F.txt", "--emb", "S=S.bin",
                "--data", "train=train.conll", "--data", "dev=dev.conll",
                "--out", out, "--policy", policy, "--add-special-tokens",
                "--seed", "1234", "--stable", "--threads", "2"]
        commands.append(Command(
            policy, argv, ["F.txt", "S.bin", "train.conll", "dev.conll"],
            [out, out + ".manifest.json"], first.file_rows + second.file_rows + len(vocab),
            _combine_check(policy, out, vocab, first, second),
        ))
    return commands


def _combine_check(policy, out, vocab, first: gen.Table, second: gen.Table):
    kind = POLICY_KINDS[policy]

    def check(report: dict, wdir: Path) -> list[str]:
        problems: list[str] = []
        dim = first.dim + second.dim
        _expect(problems, "report vocab", report["vocab"], len(vocab))
        _expect(problems, "report dim", report["dim"], dim)
        _expect(problems, "report policy", report["policy"], kind)
        out_sha = sha256(wdir / out)
        _expect(problems, "report output_sha256", report["output_sha256"], out_sha)
        side = json.loads((wdir / (out + ".manifest.json")).read_text(encoding="utf-8"))
        _expect(problems, "sidecar output_sha256", side["output_sha256"], out_sha)
        _expect(problems, "sidecar policy", side["policy"]["kind"], kind)
        _expect(problems, "sidecar sources",
                [(s["name"], s["vocab"], s["dim"]) for s in side["sources"]],
                [("F", len(first.tokens), first.dim), ("S", len(second.tokens), second.dim)])
        _expect(problems, "sidecar special_tokens", side["special_tokens"], True)
        if problems:
            return problems
        tokens, values = _read_text_table(wdir / out, dim)
        _expect(problems, "output vocabulary order", tokens, vocab)
        if problems:
            return problems
        if np.any(values[0]):
            problems.append("<PAD> row is not all zeros")
        for src, off, pretrained in (
            (first, 0, lambda t: t in first.index),
            (second, first.dim, _second_pretrained(policy, first, second)),
        ):
            block = values[1:, off:off + src.dim]
            keep = np.array([pretrained(t) for t in vocab[1:]])
            rows = [src.index[t] for t, k in zip(vocab[1:], keep) if k]
            if not np.array_equal(block[keep], src.vectors[rows]):
                problems.append(f"{out}: pretrained slices of {src.path} differ from the source")
            rand = block[~keep]
            if rand.size and not (rand.min() >= BACKFILL[0] and rand.max() < BACKFILL[1]):
                problems.append(f"{out}: backfilled slices outside {BACKFILL}")
            known = np.array([t in src.index for t in vocab[1:]]) & ~keep
            if known.any():
                replaced = block[known]
                orig = src.vectors[[src.index[t] for t, k in zip(vocab[1:], known) if k]]
                if (replaced == orig).all(axis=1).any():
                    problems.append(f"{out}: a replaced slice of {src.path} kept its vector")
        return problems

    return check


def _second_pretrained(policy, first: gen.Table, second: gen.Table):
    """Which vocabulary types keep the second table's own vector."""
    if policy == "concat":
        return lambda t: t in second.index
    if policy == "random-second":
        return lambda t: False
    if policy == "complement-second":
        return lambda t: t in second.index and t not in first.index
    return lambda t: t in second.index and t in first.index


def _read_text_table(path, dim: int) -> tuple[list[str], np.ndarray]:
    tokens = []
    fields = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            token, rest = line.rstrip("\n").split(" ", 1)
            tokens.append(token)
            fields.append(rest)
    values = np.array(" ".join(fields).split(" "), dtype=np.float32)
    return tokens, values.reshape(len(tokens), dim)


WORKLOADS = {
    "pair-report": pair_report,
    "recommend-4": recommend_4,
    "export-4": export_4,
}
