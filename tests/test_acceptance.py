"""Acceptance suite: one test per criterion, strictest-first tolerances.

Every randomized sweep runs from the fixed master seed below so results
are reproducible run to run; pass/fail is the pytest -v line per test.
The large-data reproduction test (criterion 7) needs public embedding and
corpus files; it skips, naming what is missing, when they have not been
fetched (scripts/fetch_reproduction_data.py documents the sources).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ablated_reference, make_table, oracle_vector, tables_equal
from embcat.analysis import embedding_similarity, knn, pair_report
from embcat.cli import main
from embcat.combine import CombinePolicy, ModelVocab, combine, recommend
from embcat.corpus import read_conll, vocab_counts
from embcat.embio import (
    EmbeddingTable,
    Format,
    RandomBackfill,
    read_embeddings,
    write_embeddings,
)
from embcat.manifest import file_sha256
from embcat.tagschemes import bio_to_iobes, entity_prf, extract_entities, iob1_to_bio
from scoring_fixture import CASES, TOTAL_GOLD, TOTAL_PRED, TOTAL_TP

MASTER_SEED = 20240817

DATA_DIR = Path(os.environ.get("EMBCAT_DATA", Path(__file__).resolve().parent.parent / "data"))

REPRODUCTION_FILES = {
    "glove_6b": DATA_DIR / "glove.6B.100d.txt",
    "glove_840b": DATA_DIR / "glove.840B.300d.txt",
    "google_news": DATA_DIR / "GoogleNews-vectors-negative300.bin",
    "senna": DATA_DIR / "senna.txt",
    "conll_train": DATA_DIR / "conll2003" / "train.txt",
    "conll_dev": DATA_DIR / "conll2003" / "valid.txt",
}


def _random_table(rng, n, dim, name="t"):
    words = tuple(f"w{i:05d}" for i in range(n))
    return EmbeddingTable(name, words, rng.standard_normal((n, dim)).astype(np.float32))


def _oracle_knn(table, query, k):
    """Independent oracle: compute every similarity, fully sort."""
    qi = table.index[query]
    q = table.vectors[qi].astype(np.float64)
    qn = np.linalg.norm(q)
    scored = []
    for i, w in enumerate(table.words):
        if i == qi:
            continue
        v = table.vectors[i].astype(np.float64)
        vn = np.linalg.norm(v)
        s = float("-inf") if qn == 0.0 or vn == 0.0 else float(np.dot(q, v) / (qn * vn))
        scored.append((w, s))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


def test_criterion_1_knn_matches_exhaustive_sort_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED)
    n_tables = 210
    for i in range(n_tables):
        # mostly small, some at the vocabulary bound
        n = int(rng.integers(11, 120)) if i % 10 else int(rng.integers(300, 501))
        dim = int(rng.integers(2, 17))
        table = _random_table(rng, n, dim)
        query = table.words[int(rng.integers(n))]
        for k in (1, 5, 10):
            got = knn(table, query, k).neighbors
            want = _oracle_knn(table, query, k)
            assert [w for w, _ in got] == [w for w, _ in want], (i, n, dim, k)
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-10
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_self_similarity_is_100():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(50):
        n = int(rng.integers(12, 80))
        table = _random_table(rng, n, int(rng.integers(2, 17)))
        n_q = int(rng.integers(1, min(20, n)))
        queries = [table.words[i] for i in rng.choice(n, size=n_q, replace=False)]
        rep = embedding_similarity(table, table, queries, 10)
        assert rep.mean_jaccard_pct == 100.0
        assert all(v == 1.0 for v in rep.per_query.values())


def test_criterion_3_scale_invariance():
    rng = np.random.default_rng(MASTER_SEED + 2)
    for _ in range(12):
        n = int(rng.integers(15, 60))
        dim = int(rng.integers(2, 17))
        a = _random_table(rng, n, dim, "A")
        b = _random_table(rng, n, dim, "B")
        queries = [a.words[i] for i in rng.choice(n, size=8, replace=False)]
        base_sets = {q: knn(a, q, 10) for q in queries}
        base_rep = embedding_similarity(a, b, queries, 10)
        for c in (0.01, 3.0, 1000.0):
            scaled = EmbeddingTable("A", a.words, a.vectors * np.float32(c))
            for q in queries:
                ns = knn(scaled, q, 10)
                assert ns.tokens == base_sets[q].tokens, (c, q)
                np.testing.assert_allclose(
                    [s for _, s in ns.neighbors],
                    [s for _, s in base_sets[q].neighbors],
                    rtol=1e-5,
                )
            rep = embedding_similarity(scaled, b, queries, 10)
            assert rep.per_query == base_rep.per_query, c
            assert rep.mean_jaccard_pct == base_rep.mean_jaccard_pct


def test_criterion_4_format_round_trips():
    rng = np.random.default_rng(MASTER_SEED + 3)
    pools = [
        "abcdefghijklmnop",
        "äöüßéèñç",
        "абвгдежз",
        "日本語中文한국",
        "🙂🚀💡",
    ]
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case in range(30):
            n = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 12))
            words = set()
            while len(words) < n:
                pool = pools[int(rng.integers(len(pools)))]
                length = int(rng.integers(1, 8))
                words.add("".join(pool[int(rng.integers(len(pool)))] for _ in range(length)))
            vecs = rng.standard_normal((n, dim)).astype(np.float32)
            # salt in extreme magnitudes to stress the text representation
            vecs[0, 0] = np.float32(1e-45)
            if n > 1:
                vecs[1, 0] = np.float32(-3.4e38)
            table = EmbeddingTable("t", tuple(sorted(words)), vecs)
            for fmt in Format:
                path = tmp / f"{case}.{fmt.name}"
                write_embeddings(table, path, fmt)
                assert tables_equal(table, read_embeddings(path, fmt)), (case, fmt)

        # binary records parse with and without the trailing newline
        recs = [("a", [1.5, -2.5]), ("b", [3.25, 4.75])]
        for tail in (b"\n", b""):
            body = b"".join(
                w.encode() + b" " + np.asarray(v, "<f4").tobytes() + tail for w, v in recs
            )
            path = tmp / f"tail{len(tail)}.bin"
            path.write_bytes(b"2 2\n" + body)
            t = read_embeddings(path, Format.WORD2VEC_BINARY)
            assert t.words == ("a", "b")
            assert np.array_equal(t.vectors, [[1.5, -2.5], [3.25, 4.75]])


def test_criterion_5_scoring_fixture_and_scheme_round_trip():
    # hand-counted fixture: aggregate tp/fp/fn must match exactly
    assert len(CASES) >= 30
    report = entity_prf([c[0] for c in CASES], [c[1] for c in CASES])
    assert (report.n_correct, report.n_gold, report.n_pred) == (
        TOTAL_TP,
        TOTAL_GOLD,
        TOTAL_PRED,
    )
    assert report.precision == TOTAL_TP / TOTAL_PRED
    assert report.recall == TOTAL_TP / TOTAL_GOLD

    # scheme definitions on the classic cases
    assert iob1_to_bio(["I-PER", "I-PER", "O", "I-LOC"]) == ["B-PER", "I-PER", "O", "B-LOC"]
    assert iob1_to_bio(["I-ORG", "B-ORG"]) == ["B-ORG", "B-ORG"]
    assert bio_to_iobes(["B-PER", "I-PER"]) == ["B-PER", "E-PER"]
    assert bio_to_iobes(["B-LOC"]) == ["S-LOC"]

    # randomized entity layouts: BIO -> IOBES preserves the extracted spans
    rng = np.random.default_rng(MASTER_SEED + 4)
    etypes = ["PER", "LOC", "ORG", "MISC"]
    for _ in range(300):
        n = int(rng.integers(1, 25))
        labels = ["O"] * n
        expected = set()
        pos = 0
        while pos < n:
            if rng.random() < 0.5:
                width = int(rng.integers(1, min(5, n - pos + 1)))
                et = etypes[int(rng.integers(4))]
                labels[pos] = f"B-{et}"
                for j in range(pos + 1, pos + width):
                    labels[j] = f"I-{et}"
                expected.add((et, pos, pos + width))
                pos += width
            else:
                pos += 1
        iobes = bio_to_iobes(labels, mode="strict")
        assert len(iobes) == len(labels)
        for mode in ("lenient", "strict"):
            got = {(e.etype, e.start, e.end) for e in extract_entities(iobes, mode=mode)}
            assert got == expected
        got_bio = {(e.etype, e.start, e.end) for e in extract_entities(labels)}
        assert got_bio == expected


def test_criterion_6_ablation_properties_and_thread_determinism():
    rng = np.random.default_rng(MASTER_SEED + 5)
    backfill = RandomBackfill(MASTER_SEED)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        dim = int(rng.integers(1, 10))
        second = _random_table(rng, n, dim, "second")
        overlap_size = int(rng.integers(1, n + 1))
        first_vocab = set(
            second.words[i] for i in rng.choice(n, size=overlap_size, replace=False)
        )
        first_vocab |= {f"x{i}" for i in range(int(rng.integers(0, 4)))}
        first = make_table("first", sorted(first_vocab), np.zeros((len(first_vocab), 2)))
        vocab = ModelVocab(second.words, {w: 1 for w in second.words})
        comp, match, rand = (
            combine([first, second], vocab, CombinePolicy(kind), backfill).vectors[:, 2:]
            for kind in ("ComplementSecond", "MatchedSecond", "RandomSecond")
        )
        # size preservation: one slice of the second table's width per token
        for t in (comp, match, rand):
            assert t.shape == second.vectors.shape
        # partition: kept-pretrained sets are disjoint and cover the vocab
        kept_comp, kept_match = set(), set()
        for i, w in enumerate(second.words):
            pre = second.vectors[i]
            rnd = oracle_vector(backfill, "second", w, dim)
            assert np.array_equal(rand[i], rnd)
            if np.array_equal(comp[i], pre):
                kept_comp.add(w)
            else:
                assert np.array_equal(comp[i], rnd)
            if np.array_equal(match[i], pre):
                kept_match.add(w)
            else:
                assert np.array_equal(match[i], rnd)
        assert kept_comp & kept_match == set()
        assert kept_comp | kept_match == set(second.words)
        assert kept_match == set(second.words) & first_vocab

    # projection property over randomized combines
    for _ in range(15):
        a = _random_table(rng, int(rng.integers(5, 20)), int(rng.integers(1, 6)), "A")
        b = _random_table(rng, int(rng.integers(5, 20)), int(rng.integers(1, 6)), "B")
        types = tuple(f"w{i:05d}" for i in range(int(rng.integers(3, 25))))
        vocab = ModelVocab(types, {t: 1 for t in types})
        kind = ["Concat", "RandomSecond", "ComplementSecond", "MatchedSecond"][
            int(rng.integers(4))
        ]
        policy = CombinePolicy.parse(kind)
        out = combine([a, b], vocab, policy, backfill)
        assert out.dim == a.dim + b.dim
        src_b = b if kind == "Concat" else ablated_reference(b, set(a.words), kind, backfill)
        for typ in types:
            row = out.row(typ)
            fa = row[: a.dim]
            fb = row[a.dim :]
            ok_a = (typ in a and np.array_equal(fa, a.row(typ))) or np.array_equal(
                fa, oracle_vector(backfill, "A", typ, a.dim)
            )
            ok_b = (typ in src_b and np.array_equal(fb, src_b.row(typ))) or np.array_equal(
                fb, oracle_vector(backfill, "B", typ, b.dim)
            )
            assert ok_a and ok_b


# ---------------------------------------------------------------------------
# criterion 7: overlap/coverage reproduction on public data (skips if absent)

_missing = sorted(str(p) for p in REPRODUCTION_FILES.values() if not p.exists())


@pytest.mark.skipif(
    bool(_missing),
    reason=(
        "reproduction data not fetched; run scripts/fetch_reproduction_data.py "
        f"(missing: {', '.join(_missing)})"
    ),
)
def test_criterion_7_reproduces_published_overlap_and_coverage():
    t0 = time.monotonic()
    glove6b = read_embeddings(REPRODUCTION_FILES["glove_6b"], name="glove-6b-100d")
    senna = read_embeddings(REPRODUCTION_FILES["senna"], name="senna")
    glove840b = read_embeddings(REPRODUCTION_FILES["glove_840b"], name="glove-840b-300d")
    gnews = read_embeddings(REPRODUCTION_FILES["google_news"], name="google-news")
    train = vocab_counts(
        read_conll(REPRODUCTION_FILES["conll_train"], split="train"), "lowercase"
    )
    dev = vocab_counts(read_conll(REPRODUCTION_FILES["conll_dev"], split="dev"), "lowercase")

    tol = 2.0
    expected = {
        "senna": (18.9, 20.8, 74.3, 80.3),
        "glove-840b-300d": (41.7, 40.6, 83.2, 88.5),
    }
    for table, names in ((senna, "senna"), (glove840b, "glove-840b-300d")):
        row = pair_report([glove6b, table], train, dev, k=10, n=200)
        want = expected[names]
        got = (row.overlap_train, row.overlap_dev, row.attested_train, row.attested_dev)
        for g, w in zip(got, want):
            assert abs(g - w) <= tol, f"{names}: got {got}, want {want} within {tol}"

    gn_row = pair_report([glove6b, gnews], train, dev, k=10, n=200)
    assert abs(gn_row.attested_train - 55.9) <= tol, gn_row
    assert abs(gn_row.attested_dev - 65.1) <= tol, gn_row

    verdicts = recommend([glove6b, senna, gnews], train, dev)
    by_pair = {frozenset((v.embedding_a, v.embedding_b)): v for v in verdicts}
    assert by_pair[frozenset(("glove-6b-100d", "senna"))].recommended is True
    assert by_pair[frozenset(("glove-6b-100d", "google-news"))].recommended is False

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"reproduction took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 8: training results are out of scope; in their place, export all
# four combination variants for token- and text-classification vocabularies
# through the CLI and verify each against its sidecar manifest


def test_criterion_8_manifest_verified_variant_exports(tmp_path):
    conll = tmp_path / "mini.conll"
    conll.write_text(
        "EU NNP B-ORG\nrejects VBZ O\nGerman JJ B-MISC\n\n"
        "Peter NNP B-PER\nBlackburn NNP I-PER\n\nBRUSSELS NNP B-LOC\n"
    )
    sst = tmp_path / "mini.sst2"
    sst.write_text("1 a ringing celebration\n0 lifeless retread\n1 the best film\n")
    emb1 = tmp_path / "one.glove"
    emb1.write_text("eu 1 0 0\ngerman 0 1 0\npeter 0 0 1\nthe 1 1 0\nfilm 1 0 1\n")
    emb2 = tmp_path / "two.glove"
    emb2.write_text("eu 5 5\nbrussels 6 6\nfilm 7 7\nbest 8 8\n")

    corpora = {
        "conll": ["--data", f"train={conll}", "--data-kind", "conll"],
        "sst2": ["--data", f"train={sst}", "--data-kind", "text", "--delimiter", " "],
    }
    policies = ["concat", "random-second", "complement-second", "matched-second"]
    seed = str(MASTER_SEED)
    for corpus, data_args in corpora.items():
        for policy in policies:
            out = tmp_path / f"{corpus}.{policy}.glove"
            code = main(
                [
                    "combine",
                    "--emb", str(emb1), "--emb", str(emb2),
                    *data_args,
                    "--out", str(out),
                    "--policy", policy,
                    "--seed", seed,
                    "--stable",
                ]
            )
            assert code == 0, (corpus, policy)
            sidecar_path = Path(str(out) + ".manifest.json")
            assert sidecar_path.exists()
            sidecar = json.loads(sidecar_path.read_text())
            # the manifest must verify against the bytes on disk
            assert sidecar["output_sha256"] == file_sha256(out)
            assert sidecar["policy"]["kind"] == CombinePolicy.parse(policy).kind
            assert [s["name"] for s in sidecar["sources"]] == ["one", "two"]
            assert sidecar["sources"][0]["sha256"] == file_sha256(emb1)
            assert sidecar["seed"] == MASTER_SEED
            table = read_embeddings(out)
            assert table.dim == 5 == sidecar["dim"]
            assert len(table) == sidecar["vocab"]

    # structural spot checks on the conll exports (vocab is lowercased by
    # the default normalization chain)
    bf = RandomBackfill(MASTER_SEED)
    concat = read_embeddings(tmp_path / "conll.concat.glove")
    rand = read_embeddings(tmp_path / "conll.random-second.glove")
    comp = read_embeddings(tmp_path / "conll.complement-second.glove")
    match = read_embeddings(tmp_path / "conll.matched-second.glove")
    assert np.array_equal(concat.row("eu")[3:], [5, 5])
    assert np.array_equal(rand.row("eu")[3:], oracle_vector(bf, "two", "eu", 2))
    # complement: eu is in table one's vocabulary, so its two-slice randomizes
    assert np.array_equal(comp.row("eu")[3:], oracle_vector(bf, "two", "eu", 2))
    # matched keeps it
    assert np.array_equal(match.row("eu")[3:], [5, 5])
    # brussels is NOT in table one: complement keeps, matched randomizes
    assert np.array_equal(comp.row("brussels")[3:], [6, 6])
    assert np.array_equal(match.row("brussels")[3:], oracle_vector(bf, "two", "brussels", 2))
