"""Seeded synthetic inputs shaped like the paper's tables and corpora.

numpy only, and independent of embcat's writers, so set-up time does not
move with the program under test. Everything returned about the inputs
(token sets, vectors, corpus counts) is the generator's own ground truth,
which the benchmark checks the program's reports and tables against.

Structure planted on purpose:
  - one latent space shared by all tables, each seen through its own
    orthonormal projection and noise level, so pair overlaps spread out;
  - every table holds the frequent head of the vocabulary, as real tables do;
  - tables hold lowercase tokens only, while the corpora capitalize
    sentence-initial words and always capitalize a set of "proper nouns",
    whose only match is then the lowercased form;
  - duplicate tokens later in a table file (keep-first drops them) and
    groups of tokens sharing one vector (exact ties in k-NN);
  - -DOCSTART- lines in the corpora, and corpus types no table has.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LATENT_DIM = 48
N_CLUSTERS = 1500
HEAD = 3000  # vocabulary ranks every table holds
CORPUS_RANKS = 40000  # ranks the corpora draw from
N_OOV = 600  # corpus-only types, in no table
POS_TAGS = ("NN", "NNP", "VB", "DT", "JJ", "IN", "CD", ".")
CHUNK_TAGS = ("B-NP", "I-NP", "B-VP", "O")
NER_TAGS = ("O", "O", "O", "O", "B-PER", "I-PER", "B-LOC", "B-ORG")


@dataclass
class Table:
    """Ground truth for one generated table file."""

    path: str
    tokens: list[str]  # after keep-first deduplication, file order
    vectors: np.ndarray  # float32, as the file encodes them
    file_rows: int  # records in the file, duplicates included
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class Corpus:
    """Ground truth for one generated CoNLL file."""

    tokens: list[str]  # running tokens, -DOCSTART- lines excluded

    def counts(self, lowercase: bool) -> Counter:
        if lowercase:
            return Counter(t.lower() for t in self.tokens)
        return Counter(self.tokens)


class World:
    """The shared vocabulary and latent space all of one seed's inputs
    are drawn from."""

    def __init__(self, seed: int, n_vocab: int):
        self.rng = np.random.default_rng(seed)
        self.words = _vocabulary(self.rng, n_vocab)
        centers = self.rng.standard_normal((N_CLUSTERS, LATENT_DIM)).astype(np.float32)
        cluster = self.rng.integers(0, N_CLUSTERS, n_vocab)
        noise = self.rng.standard_normal((n_vocab, LATENT_DIM)).astype(np.float32)
        self.latent = centers[cluster] + 0.6 * noise
        oov = [f"{x:,}" for x in self.rng.integers(1000, 10**7, N_OOV)]
        self.oov = list(dict.fromkeys(oov))
        ranks = np.arange(CORPUS_RANKS, dtype=np.float64)
        zipf = 1.0 / (ranks + 2.7) ** 1.1
        self.zipf = zipf / zipf.sum()
        proper = self.rng.random(CORPUS_RANKS) < 0.12
        proper[:50] = False
        self.proper = proper

    def rows(self, n_rows: int) -> np.ndarray:
        """Vocabulary ranks for a table of n_rows: the whole head, then a
        sample of the rest that favours frequent ranks; frequency order
        with local shuffling, as distributed tables are."""
        n_vocab = len(self.words)
        if not HEAD <= n_rows <= n_vocab:
            raise ValueError(f"table rows {n_rows} outside [{HEAD}, {n_vocab}]")
        rest = np.arange(HEAD, n_vocab)
        keys = -0.7 * np.log(rest + 1.0) + self.rng.gumbel(size=len(rest))
        pick = rest[np.argpartition(-keys, n_rows - HEAD - 1)[: n_rows - HEAD]]
        ranks = np.concatenate([np.arange(HEAD), np.sort(pick)])
        jitter = ranks + self.rng.normal(0, 0.02 * n_rows, n_rows)
        return ranks[np.argsort(jitter, kind="stable")]

    def vectors(self, ranks: np.ndarray, dim: int, noise: float) -> np.ndarray:
        # orthonormal rows: every table sees the latent geometry undistorted,
        # so its noise level alone sets how far its neighbourhoods drift
        q, _ = np.linalg.qr(self.rng.standard_normal((dim, LATENT_DIM)))
        vec = self.latent[ranks] @ q.T.astype(np.float32)
        vec += noise * self.rng.standard_normal(vec.shape).astype(np.float32)
        return vec

    def plant_ties(self, vec: np.ndarray, ranks: np.ndarray, n_groups: int = 40):
        """Give pairs of tail rows one shared vector next to a head row, so
        both are near neighbours of a frequent query and tie exactly."""
        head_rows = np.nonzero(ranks < 200)[0]
        tail_rows = np.nonzero(ranks >= HEAD)[0]
        anchors = self.rng.choice(head_rows, n_groups, replace=False)
        pairs = self.rng.choice(tail_rows, (n_groups, 2), replace=False)
        for a, (r1, r2) in zip(anchors, pairs):
            shared = vec[a] + 0.05 * self.rng.standard_normal(vec.shape[1]).astype(np.float32)
            vec[r1] = shared
            vec[r2] = shared

    def table(self, path, fmt: str, n_rows: int, dim: int, noise: float, n_dups=200) -> Table:
        """Write one table file of n_rows distinct tokens plus n_dups
        duplicates, and return its ground truth."""
        ranks = self.rows(n_rows)
        vec = self.vectors(ranks, dim, noise)
        self.plant_ties(vec, ranks)
        # text values must lie in (-1, 1) for the fixed-width encoding
        scale = 0.3 / float(vec.std())
        if fmt == "w2v":
            truth = vec.astype(np.float32)
        else:
            truth, encoded = _fixed_width(vec * scale)
        tokens = [self.words[r] for r in ranks]
        # duplicates: a fresh vector under an earlier row's token, placed
        # somewhere after that row, so keep-first has to drop it
        n = len(ranks)
        src = self.rng.choice(n, n_dups, replace=False)
        at = src + 1 + (self.rng.random(n_dups) * (n - src)).astype(np.int64)
        order = np.argsort(np.concatenate([np.arange(n) + 0.5, at.astype(np.float64)]),
                           kind="stable")
        dup_vec = self.vectors(ranks[src], dim, noise)
        if fmt == "w2v":
            dup_truth = dup_vec.astype(np.float32)
        else:
            dup_truth, dup_encoded = _fixed_width(dup_vec * scale)
        all_tokens = [t.encode() for t in tokens] + [tokens[s].encode() for s in src]
        with open(path, "wb") as f:
            if fmt == "w2v":
                payload = np.concatenate([truth, dup_truth]).astype("<f4")
                f.write(f"{n + n_dups} {dim}\n".encode())
                f.write(b"".join(
                    all_tokens[i] + b" " + payload[i].tobytes() + b"\n" for i in order
                ))
            else:
                if fmt == "glove-header":
                    f.write(f"{n + n_dups} {dim}\n".encode())
                body = np.concatenate([encoded, dup_encoded])
                f.write(b"".join(all_tokens[i] + body[i].tobytes() for i in order))
        return Table(str(path), tokens, truth, n + n_dups)

    def copy_table(self, path, base: Table, scale: float) -> Table:
        """A w2v table with base's rows permuted and every value multiplied
        by a power of two: cosines are unchanged bit for bit, so its
        overlap with base must be exactly 100.0."""
        if np.log2(scale) % 1:
            raise ValueError("scale must be a power of two")
        perm = self.rng.permutation(len(base.tokens))
        with open(path, "wb") as f:
            f.write(f"{len(perm)} {base.dim}\n".encode())
            payload = (base.vectors * np.float32(scale)).astype("<f4")
            f.write(b"".join(
                base.tokens[i].encode() + b" " + payload[i].tobytes() + b"\n" for i in perm
            ))
        tokens = [base.tokens[i] for i in perm]
        return Table(str(path), tokens, payload[perm], len(perm))

    def corpus(self, path, n_tokens: int) -> Corpus:
        """A four-column CoNLL file of about n_tokens Zipf-distributed
        tokens, with -DOCSTART- every 30 sentences."""
        rng = self.rng
        ranks = rng.choice(CORPUS_RANKS, n_tokens, p=self.zipf)
        lengths = rng.integers(4, 30, n_tokens // 4 + 2)
        starts = np.concatenate([[0], np.cumsum(lengths)])
        sentence_start = np.zeros(n_tokens, dtype=bool)
        sentence_start[starts[starts < n_tokens]] = True
        oov = rng.random(n_tokens) < 0.03
        oov_pick = rng.integers(0, len(self.oov), n_tokens)
        pos = rng.integers(0, len(POS_TAGS), n_tokens)
        chunk = rng.integers(0, len(CHUNK_TAGS), n_tokens)
        ner = rng.integers(0, len(NER_TAGS), n_tokens)
        words, proper, oov_words = self.words, self.proper.tolist(), self.oov
        tokens = []
        lines = []
        n_sent = 0
        for i, (r, start, is_oov, o, p, c, e) in enumerate(zip(
            ranks.tolist(), sentence_start.tolist(), oov.tolist(), oov_pick.tolist(),
            pos.tolist(), chunk.tolist(), ner.tolist(),
        )):
            if start and i:
                lines.append("")
                n_sent += 1
                if n_sent % 30 == 0:
                    lines.append("-DOCSTART- -X- -X- O")
                    lines.append("")
            if is_oov:
                tok = oov_words[o]
            else:
                tok = words[r]
                if proper[r] or start:
                    tok = tok.capitalize()
            tokens.append(tok)
            lines.append(f"{tok} {POS_TAGS[p]} {CHUNK_TAGS[c]} {NER_TAGS[e]}")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("-DOCSTART- -X- -X- O\n\n")
            f.write("\n".join(lines))
            f.write("\n")
        return Corpus(tokens)


def _vocabulary(rng, n: int) -> list[str]:
    """n distinct lowercase word-like tokens, a few with an apostrophe."""
    letters = np.frombuffer(string.ascii_lowercase.encode(), dtype=np.uint8)
    words: dict[str, None] = {}
    while len(words) < n:
        m = 2 * (n - len(words)) + 64
        lengths = np.minimum(2 + rng.poisson(5, m), 16)
        chars = letters[rng.integers(0, 26, (m, 16))]
        apostrophe = rng.random(m) < 0.01
        for row, length, apo in zip(chars, lengths, apostrophe):
            w = row[:length].tobytes().decode()
            if apo:
                w = w[:-1] + "'" + w[-1]
            words[w] = None
            if len(words) == n:
                break
    return list(words)


def _glyph_table() -> np.ndarray:
    """Seven characters per code: q < 100000 -> "0.ddddd", 100000 + q ->
    "-0.dddd" (q < 10000)."""
    q = np.arange(100000)
    g = np.empty((200000, 7), dtype=np.uint8)
    g[:100000, 0], g[:100000, 1] = ord("0"), ord(".")
    for j in range(5):
        g[:100000, 2 + j] = ord("0") + q // 10 ** (4 - j) % 10
    g[100000:, 0], g[100000:, 1], g[100000:, 2] = ord("-"), ord("0"), ord(".")
    for j in range(4):
        g[100000:, 3 + j] = ord("0") + q // 10 ** (3 - j) % 10
    return g


_GLYPHS = _glyph_table()


def _fixed_width(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text-encode values in (-1, 1) as seven characters each: "0.ddddd"
    when positive, "-0.dddd" when negative. Returns the float32 values the
    text denotes and, per row, " v1 v2 ... vd\\n" as a uint8 array."""
    v = np.clip(vec.astype(np.float64), -0.9999, 0.99999)
    neg = v < 0
    q = np.where(neg, np.maximum(np.rint(-v * 1e4), 1), np.rint(v * 1e5)).astype(np.int64)
    truth = np.where(neg, -(q / 1e4), q / 1e5).astype(np.float32)
    n, dim = v.shape
    chars = np.empty((n, dim, 8), dtype=np.uint8)
    chars[..., 0] = ord(" ")
    chars[..., 1:] = _GLYPHS[q + 100000 * neg]
    out = np.empty((n, dim * 8 + 1), dtype=np.uint8)
    out[:, :-1] = chars.reshape(n, dim * 8)
    out[:, -1] = ord("\n")
    return truth, out
