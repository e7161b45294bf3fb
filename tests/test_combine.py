import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ablated_reference,
    embedding_similarity,
    make_table,
    oracle_vector,
    random_table,
    tables_equal,
)
from embcat import analysis, embio
from embcat.analysis import coverage, pair_report
from embcat.combine import (
    COMBINE_KINDS,
    PAD_TOKEN,
    UNK_TOKEN,
    CombinePolicy,
    ModelVocab,
    PairVerdict,
    combine,
    model_vocab,
    recommend,
    with_special_tokens,
    zero_token_row,
)
from embcat.corpus import (
    VocabCounts,
    conll_tokens,
    text_tokens,
    top_n_types,
    vocab_counts,
)
from embcat.embio import (
    EmbeddingTable,
    Format,
    RandomBackfill,
    random_vectors,
    read_embeddings,
    write_embeddings,
)
from embcat.errors import DataError

BF = RandomBackfill(20240817)


def counts(tokens, normalization="exact"):
    return vocab_counts(tokens, normalization)


# ---------------------------------------------------------------------------
# policy


def test_policy_validation():
    assert CombinePolicy().kind == "Concat"
    assert CombinePolicy("RandomSecond").applies_to == 1
    assert CombinePolicy("MatchedSecond", 2).applies_to == 2
    with pytest.raises(ValueError):
        CombinePolicy("Concat", 1)
    with pytest.raises(ValueError):
        CombinePolicy("RandomSecond", 0)
    with pytest.raises(ValueError):
        CombinePolicy("Shuffle")


def test_policy_parse():
    assert CombinePolicy.parse("concat").kind == "Concat"
    assert CombinePolicy.parse("random-second").kind == "RandomSecond"
    assert CombinePolicy.parse("complement_second").kind == "ComplementSecond"
    assert CombinePolicy.parse("MatchedSecond").kind == "MatchedSecond"
    with pytest.raises(ValueError):
        CombinePolicy.parse("mystery")


# ---------------------------------------------------------------------------
# model vocab


def test_model_vocab_examples():
    assert model_vocab([counts(["a", "b", "a"])]).types == ("a", "b")
    assert model_vocab([counts(["a", "b", "a"])], min_count=2).types == ("a",)
    with pytest.raises(DataError, match="no datasets selected"):
        model_vocab([])


def test_model_vocab_mixed_dataset_kinds(tmp_path):
    conll = tmp_path / "train.conll"
    conll.write_text("film O\nthe O\n")
    text = tmp_path / "dev.tsv"
    text.write_text("1\tthe end\n")
    v = model_vocab([vocab_counts(conll_tokens(conll)),
                     vocab_counts(text_tokens(text))])
    assert v.types == ("the", "end", "film")  # highest count first


def test_model_vocab_normalization():
    v = model_vocab([counts(["The", "the"], normalization="lowercase")])
    assert v.types == ("the",)
    # one vocabulary is counted in one space
    mixed = [counts(["a"]), counts(["a"], "lowercase")]
    with pytest.raises(ValueError, match="mixed normalizations"):
        model_vocab(mixed)


def test_model_vocab_ordering():
    v = model_vocab([counts(["b", "a", "b", "c", "a"])])
    assert v.types == ("a", "b", "c")  # counts 2,2,1; tie a<b


token_lists = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=3), min_size=1, max_size=20
)


@settings(max_examples=60)
@given(tokens=token_lists, cut=st.integers(0, 20))
def test_model_vocab_set_union_oracle(tokens, cut):
    # the same vocabulary from one corpus or from the two halves of it
    v = model_vocab([counts(tokens[:cut]), counts(tokens[cut:])] if 0 < cut < len(tokens)
                    else [counts(tokens)])
    assert set(v.types) == set(tokens)
    total = Counter(tokens)
    assert v.types == tuple(sorted(total, key=lambda t: (-total[t], t)))


def test_model_vocab_validation():
    with pytest.raises(ValueError):
        ModelVocab(())
    with pytest.raises(ValueError):
        ModelVocab(("a", "a"))


def test_model_vocab_checks_min_count_before_reading_a_corpus():
    def unread():
        raise AssertionError("a corpus was counted")
        yield

    with pytest.raises(ValueError, match="min_count must be >= 1, got 0"):
        model_vocab(unread(), min_count=0)


# ---------------------------------------------------------------------------
# ablation of the second table, on combine output


def second_table():
    return make_table("second", ["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])


def ablated_slices(first_words, kind, second=None, bf=BF):
    """The second table's slices of a two-table combine over its own
    vocabulary, behind a first table over first_words."""
    second = second_table() if second is None else second
    first = make_table("first", first_words, np.zeros((len(first_words), 1)))
    out = combine([first, second], mv(*second.words), CombinePolicy(kind), bf)
    # size preservation: every token of the second table, at its width
    assert out.words == second.words and out.dim == 1 + second.dim
    return out.vectors[:, 1:]


def test_transform_matched_full_overlap_is_identity():
    got = ablated_slices(["a", "b", "c", "extra"], "MatchedSecond")
    assert np.array_equal(got, second_table().vectors)


def test_transform_complement_full_overlap_all_random():
    got = ablated_slices(["a", "b", "c"], "ComplementSecond")
    for i, w in enumerate(second_table().words):
        assert np.array_equal(got[i], oracle_vector(BF, "second", w, 2))


def test_transform_random_second():
    got = ablated_slices(["b"], "RandomSecond")
    for i, w in enumerate(second_table().words):
        assert np.array_equal(got[i], oracle_vector(BF, "second", w, 2))


def test_transform_partition():
    t = second_table()
    comp = ablated_slices(["b"], "ComplementSecond")
    match = ablated_slices(["b"], "MatchedSecond")
    kept_comp = {w for i, w in enumerate(t.words) if np.array_equal(comp[i], t.vectors[i])}
    kept_match = {w for i, w in enumerate(t.words) if np.array_equal(match[i], t.vectors[i])}
    assert kept_comp == {"a", "c"}
    assert kept_match == {"b"}
    assert kept_comp | kept_match == set(t.words)
    assert not kept_comp & kept_match


@settings(max_examples=40, deadline=None)
@given(
    overlap=st.sets(st.sampled_from(["w0", "w1", "w2", "w3", "w4"]), min_size=1),
    seed=st.integers(0, 2**32),
)
def test_transform_partition_property(overlap, seed):
    rng = np.random.default_rng(seed)
    words = ["w0", "w1", "w2", "w3", "w4"]
    t = make_table("s", words, rng.standard_normal((5, 3)).astype(np.float32))
    bf = RandomBackfill(seed)
    comp = ablated_slices(sorted(overlap), "ComplementSecond", t, bf)
    match = ablated_slices(sorted(overlap), "MatchedSecond", t, bf)
    for i, w in enumerate(words):
        pre = t.vectors[i]
        rnd = oracle_vector(bf, "s", w, 3)
        if w in overlap:
            assert np.array_equal(comp[i], rnd)
            assert np.array_equal(match[i], pre)
        else:
            assert np.array_equal(comp[i], pre)
            assert np.array_equal(match[i], rnd)


def test_ablation_keys_replaced_rows_by_resolved_token():
    # the type "The" resolves to the second table's row "the" by its
    # lowercase step; the ablation asks whether that row's token is in the
    # first vocabulary ({"The"}: it is not) and keys its draw by "the"
    first = make_table("first", ["The"], [[1.0]])
    second = make_table("second", ["the"], [[2.0, 3.0]])
    vocab = mv("The", "the")
    rnd = oracle_vector(BF, "second", "the", 2)
    comp = combine([first, second], vocab, CombinePolicy("ComplementSecond"), BF)
    assert np.array_equal(comp.vectors[:, 1:], [[2.0, 3.0], [2.0, 3.0]])
    for kind in ("MatchedSecond", "RandomSecond"):
        out = combine([first, second], vocab, CombinePolicy(kind), BF)
        assert np.array_equal(out.vectors[:, 1:], [rnd, rnd])


def _reference_combine(tables, types, policy, fold_case):
    """Rows of a combine built the long way: rewrite the ablated table
    whole, then look every type up in every table."""
    if policy.kind != "Concat":
        idx = policy.applies_to
        first_vocab = set().union(*(t.words for t in tables[:idx]))
        tables = list(tables)
        tables[idx] = ablated_reference(tables[idx], first_vocab, policy.kind, BF)
    rows = []
    for typ in types:
        parts = []
        for t in tables:
            i = t.index.get(typ)
            if i is None and fold_case:
                i = t.index.get(typ.lower())
            parts.append(t.vectors[i] if i is not None else oracle_vector(BF, t.name, typ, t.dim))
        rows.append(np.concatenate(parts))
    return np.array(rows)


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_combine_ablations_match_whole_table_rewrite(seed):
    # cased types resolving to lowercase rows, and a third table so the
    # first vocabulary is a union; the seed draws the vectors and the
    # order of the vocabulary's types
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(12)]
    tables = [
        make_table("A", words[:8] + ["The", "Dog"], rng.standard_normal((10, 3))),
        make_table("B", words[4:] + ["the", "dog", "Cat"], rng.standard_normal((11, 2))),
        make_table("C", words[::2] + ["the", "cat"], rng.standard_normal((8, 4))),
    ]
    types = ("The", "the", "Dog", "dog", "Cat", "CAT", "cat", "zz", *words)
    types = tuple(types[i] for i in rng.permutation(len(types)))
    vocab = mv(*types)
    for kind in COMBINE_KINDS:
        for idx in (None,) if kind == "Concat" else (1, 2):
            policy = CombinePolicy(kind, idx)
            for fold_case in (True, False):
                out = combine(tables, vocab, policy, BF, fold_case)
                want = _reference_combine(tables, types, policy, fold_case)
                assert out.words == types
                assert np.array_equal(out.vectors, want), (policy, fold_case)


def test_combine_draws_across_key_blocks(monkeypatch):
    # three keys per draw block: the second table's draws span several
    # blocks and end in a partial one, the first table attests every type
    # and draws nothing, and the third table is one column wide
    monkeypatch.setattr(embio, "_DRAW_KEYS", 3)
    rng = np.random.default_rng(5)
    types = tuple(f"w{i:02d}" for i in range(11))
    tables = [
        make_table("A", types, rng.standard_normal((11, 2))),
        make_table("B", types[::3], rng.standard_normal((4, 3))),
        make_table("C", types[1::2], rng.standard_normal((5, 1))),
    ]
    vocab = mv(*types)
    for kind in COMBINE_KINDS:
        policy = CombinePolicy(kind, None if kind == "Concat" else 1)
        out = combine(tables, vocab, policy, BF)
        assert np.array_equal(out.vectors, _reference_combine(tables, types, policy, True)), kind
    with pytest.raises(ValueError):
        random_vectors(BF, "A", ["w00"], 0)


# ---------------------------------------------------------------------------
# combine


def two_tables():
    first = make_table("first", ["a", "b"], [[1, 0, 0], [0, 1, 0]])
    second = make_table("second", ["b", "c"], [[5, 6], [7, 8]])
    return first, second


def mv(*types):
    return ModelVocab(types)


def test_combine_dims_and_rows():
    first, second = two_tables()
    out = combine([first, second], mv("a", "b", "c"), CombinePolicy(), BF)
    assert out.dim == 5
    assert out.words == ("a", "b", "c")
    assert out.name == "first+second"
    # b attested in both: exact concatenation
    assert np.array_equal(out.row("b"), [0, 1, 0, 5, 6])
    # a only in first: second slice is that table's keyed backfill
    assert np.array_equal(out.row("a")[:3], [1, 0, 0])
    assert np.array_equal(out.row("a")[3:], oracle_vector(BF, "second", "a", 2))
    # c only in second
    assert np.array_equal(out.row("c")[:3], oracle_vector(BF, "first", "c", 3))
    assert np.array_equal(out.row("c")[3:], [7, 8])


def test_combine_single_table_reproduces_rows():
    first, _ = two_tables()
    out = combine([first], mv("b", "a"), CombinePolicy(), BF)
    assert np.array_equal(out.row("a"), first.row("a"))
    assert np.array_equal(out.row("b"), first.row("b"))


def test_combine_lookup_policy_applies():
    t = make_table("low", ["the"], [[3.0]])
    out = combine([t], mv("The"), CombinePolicy(), BF)
    assert out.row("The")[0] == 3.0
    out_exact = combine([t], mv("The"), CombinePolicy(), BF, fold_case=False)
    assert np.array_equal(out_exact.row("The"), oracle_vector(BF, "low", "The", 1))


def test_combine_name_collision():
    t1 = make_table("same", ["a"], [[1.0]])
    t2 = make_table("same", ["b"], [[1.0]])
    with pytest.raises(DataError, match="collision"):
        combine([t1, t2], mv("a"), CombinePolicy(), BF)


def test_combine_policy_table_count():
    # a generator is checked once it ends, with the messages a list gets
    first, second = two_tables()
    for stream in (list, lambda ts: (t for t in ts)):
        with pytest.raises(DataError, match="^RandomSecond needs at least two source tables$"):
            combine(stream([first]), mv("a"), CombinePolicy("RandomSecond"), BF)
        with pytest.raises(DataError, match="^applies_to=2 out of range for 2 tables$"):
            combine(stream([first, second]), mv("a"), CombinePolicy("RandomSecond", 2), BF)
        with pytest.raises(DataError, match="^need at least one source table$"):
            combine(stream([]), mv("a"), CombinePolicy(), BF)
        with pytest.raises(DataError, match=r"collision in \['first', 'second', 'first'\]"):
            combine(stream([first, second, first]), mv("a"), CombinePolicy(), BF)


def test_combine_second_policy_end_to_end():
    first, second = two_tables()
    vocab = mv("a", "b", "c")
    out = combine([first, second], vocab, CombinePolicy("ComplementSecond"), BF)
    # b is in first's vocab: second's contribution is its keyed random vector
    assert np.array_equal(out.row("b")[3:], oracle_vector(BF, "second", "b", 2))
    # c is not in first's vocab: pretrained row kept
    assert np.array_equal(out.row("c")[3:], [7, 8])
    out = combine([first, second], vocab, CombinePolicy("MatchedSecond"), BF)
    assert np.array_equal(out.row("b")[3:], [5, 6])
    assert np.array_equal(out.row("c")[3:], oracle_vector(BF, "second", "c", 2))


def _is_lookup_or_backfill(row_slice, table, typ):
    """The projection property: a slice is the table's own row or its keyed
    backfill vector, never a mixture."""
    if typ in table and np.array_equal(row_slice, table.row(typ)):
        return True
    return np.array_equal(row_slice, oracle_vector(BF, table.name, typ, table.dim))


def test_combine_projection_property():
    rng = np.random.default_rng(123)
    a = random_table(rng, name="A", n=12, dim=3)
    b = random_table(rng, name="B", n=8, dim=4)
    vocab = mv(*(f"w{i:04d}" for i in range(14)))
    for kind in ("Concat", "RandomSecond", "ComplementSecond", "MatchedSecond"):
        policy = CombinePolicy.parse(kind)
        out = combine([a, b], vocab, policy, BF)
        src_b = b if kind == "Concat" else ablated_reference(b, set(a.words), kind, BF)
        for typ in vocab.types:
            row = out.row(typ)
            assert _is_lookup_or_backfill(row[:3], a, typ)
            assert _is_lookup_or_backfill(row[3:], src_b, typ)


# ---------------------------------------------------------------------------
# special tokens


def test_with_special_tokens():
    v = with_special_tokens(mv("a", "b"))
    assert v.types == (PAD_TOKEN, UNK_TOKEN, "a", "b")
    with pytest.raises(DataError, match="'<PAD>'"):
        with_special_tokens(v)
    with pytest.raises(DataError, match="'<UNK>'"):
        with_special_tokens(mv("a", UNK_TOKEN))


def test_zero_token_row():
    t = make_table("t", ["a", "b"], [[1, 1], [2, 2]])
    z = zero_token_row(t, "a")
    assert np.array_equal(z.row("a"), [0, 0])
    assert np.array_equal(z.row("b"), [2, 2])
    with pytest.raises(DataError):
        zero_token_row(t, "zz")


def test_package_tables_are_adopted_not_rechecked(tmp_path, monkeypatch):
    # the readers, combine and zero_token_row check their data where it
    # enters; none of them runs the public constructor's checks again
    rng = np.random.default_rng(13)
    a = make_table("a", ["the", "The", "cat", "dog"], rng.standard_normal((4, 3)))
    b = make_table("b", ["the", "mat", "owl"], rng.standard_normal((3, 2)))
    for fmt in Format:
        write_embeddings(a, tmp_path / f"a.{fmt.value}", fmt)
    write_embeddings(b, tmp_path / "b.bin", Format.WORD2VEC_BINARY)
    vocab = with_special_tokens(mv("the", "The", "dog", "mat", "sat"))

    def refuse(self):
        raise AssertionError("the public constructor's checks ran")

    monkeypatch.setattr(EmbeddingTable, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        make_table("t", ["x"], [[1.0]])
    built = [read_embeddings(tmp_path / f"a.{fmt.value}", fmt, name="a") for fmt in Format]
    read_b = read_embeddings(tmp_path / "b.bin", name="b")
    for kind in COMBINE_KINDS:
        out = combine([built[0], read_b], vocab, CombinePolicy.parse(kind), BF)
        built += [out, zero_token_row(out, PAD_TOKEN)]
    monkeypatch.undo()
    assert all(tables_equal(t, a) for t in built[:3])
    # each adopted table is what the public constructor makes of its parts
    for t in [*built, read_b]:
        assert type(t.words) is tuple and not t.vectors.flags.writeable
        checked = EmbeddingTable(t.name, t.words, t.vectors, t.n_duplicates)
        assert t.index == checked.index and t.dim == checked.dim
    assert not built[-1].row(PAD_TOKEN).any() and built[-2].row(PAD_TOKEN).any()


# ---------------------------------------------------------------------------
# recommend


def near_copies(name, words, base, noise, rng):
    return make_table(
        name, words, base + noise * rng.standard_normal(base.shape).astype(np.float32)
    )


def test_recommend_needs_two_tables():
    t = make_table("t", ["a", "b"], np.eye(2))
    counts = VocabCounts({"a": 1})
    with pytest.raises(DataError):
        recommend([t], counts, counts)


def test_recommend_verdicts():
    rng = np.random.default_rng(31)
    words = [f"w{i:02d}" for i in range(30)]
    base = rng.standard_normal((30, 8)).astype(np.float32)
    # twin: nearly identical space -> high overlap -> rejected for similarity
    a = make_table("a", words, base)
    twin = near_copies("twin", words, base, 1e-4, rng)
    # indep: different space, full coverage -> recommended against a
    indep = make_table("indep", words, rng.standard_normal((30, 8)).astype(np.float32))
    # sparse: independent but attests half the vocabulary -> rejected for coverage
    sparse = make_table(
        "sparse", words[:15], rng.standard_normal((15, 8)).astype(np.float32)
    )
    counts = VocabCounts({w: 30 - i for i, w in enumerate(words)})
    verdicts = recommend([a, twin, indep, sparse], counts, counts, k=5, n=20)
    by_pair = {(v.embedding_a, v.embedding_b): v for v in verdicts}
    assert by_pair[("a", "twin")].recommended is False
    assert by_pair[("a", "twin")].overlap > 90.0
    assert by_pair[("a", "indep")].recommended is True
    assert by_pair[("a", "indep")].overlap < 30.0
    assert by_pair[("a", "sparse")].recommended is False
    assert by_pair[("a", "sparse")].min_attested == 50.0
    # recommended pairs come first, lowest overlap first
    rec_flags = [v.recommended for v in verdicts]
    assert rec_flags == sorted(rec_flags, reverse=True)
    rec = [v for v in verdicts if v.recommended]
    assert [v.overlap for v in rec] == sorted(v.overlap for v in rec)


def test_recommend_name_collision():
    t1 = make_table("x", ["a", "b"], np.eye(2))
    t2 = make_table("x", ["a", "b"], np.eye(2))
    counts = VocabCounts({"a": 1, "b": 1})
    with pytest.raises(DataError):
        recommend([t1, t2], counts, counts, k=1, n=2)


@pytest.mark.parametrize("threads", [1, 2])
def test_recommend_matches_per_pair_similarity(monkeypatch, threads):
    # tables span several search chunks; "The"/"the" resolve to one row in
    # the lowercase-only tables and to two rows in "cased"
    monkeypatch.setattr(analysis, "CHUNK_ROWS", 8)
    rng = np.random.default_rng(12)
    words = [f"w{i:02d}" for i in range(30)]
    tables = [
        make_table("low1", words + ["the"], rng.standard_normal((31, 6))),
        make_table("low2", words[5:] + ["the"], rng.standard_normal((26, 3))),
        make_table("cased", ["The", "the"] + words[:20], rng.standard_normal((22, 8))),
    ]
    counts = VocabCounts({"The": 99, "the": 98, **{w: 30 - i for i, w in enumerate(words)}})
    dev = VocabCounts({"w00": 3, "w29": 2})
    queries = top_n_types(counts, 12)
    verdicts = recommend(
        tables, counts, dev, tau_sim=12.0, tau_cov=50.0, k=4, n=12, threads=threads
    )
    assert [v.recommended for v in verdicts] == [True, False, False]
    by_name = {t.name: t for t in tables}
    for v in verdicts:
        a, b = by_name[v.embedding_a], by_name[v.embedding_b]
        sim = embedding_similarity(a, b, queries, 4, threads=threads)
        cov_a = coverage(counts, a).attested_pct
        cov_b = coverage(counts, b).attested_pct
        assert v == PairVerdict(
            embedding_a=a.name,
            embedding_b=b.name,
            overlap=sim.mean_jaccard_pct,
            attested_a=cov_a,
            attested_b=cov_b,
            attested_dev_a=coverage(dev, a).attested_pct,
            attested_dev_b=coverage(dev, b).attested_pct,
            min_attested=min(cov_a, cov_b),
            recommended=sim.mean_jaccard_pct < 12.0 and min(cov_a, cov_b) >= 50.0,
        )


def test_recommend_errors_follow_pair_order():
    # c and d are too small for k: k is checked once per table, in table
    # order, so the first of them in the list is named
    a = make_table("a", ["x", "y", "z"], np.eye(3))
    c = make_table("c", ["x", "p"], np.eye(2))
    d = make_table("d", ["x", "q"], np.eye(2))
    counts = VocabCounts({"x": 2, "p": 1})
    with pytest.raises(DataError, match="out of range for table 'c'"):
        recommend([a, c, d], counts, counts, k=2, n=2)
    with pytest.raises(DataError, match="out of range for table 'd'"):
        recommend([a, d, c], counts, counts, k=2, n=2)


COUNTS = VocabCounts({f"w{i:04d}": 100 - i for i in range(12)})


def _combined(kind):
    """`combine` under `kind` as a function of the tables, with the third
    table ablated, so that its first vocabulary is a union of two."""
    policy = CombinePolicy(kind, None if kind == "Concat" else 2)
    vocab = mv(*(f"w{i:04d}" for i in range(35)))

    def run(tables):
        out = combine(tables, vocab, policy, BF)
        return out.name, out.words, out.vectors.tobytes()

    return run


ONE_AT_A_TIME = {
    "recommend": (lambda ts: recommend(ts, COUNTS, COUNTS, k=4, n=10), "ABCD"),
    "pair_report": (lambda ts: pair_report(ts, COUNTS, COUNTS, k=4, n=10), "AB"),
    **{f"combine-{kind}": (_combined(kind), "ABCD") for kind in COMBINE_KINDS},
}


@pytest.mark.parametrize("command, names", ONE_AT_A_TIME.values(), ids=list(ONE_AT_A_TIME))
def test_holds_one_table_at_a_time(command, names):
    # each table's matrix must be freed before the next one is made; the
    # generator keeps no reference to what it yielded. The tables grow, so
    # each attests words the ones before it lack
    rng = np.random.default_rng(11)
    refs = []
    live_at_yield = []

    def tracked(table):
        live_at_yield.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(table.vectors))
        return table

    def tables():
        for i, name in enumerate(names):
            yield tracked(random_table(rng, name=name, n=21 + 3 * i, dim=4 + i))

    result = command(tables())
    assert live_at_yield == [0] * len(names)
    assert all(ref() is None for ref in refs)
    rng = np.random.default_rng(11)
    whole = [random_table(rng, name=name, n=21 + 3 * i, dim=4 + i) for i, name in enumerate(names)]
    assert result == command(whole)


def _held_at_second_table(kind):
    """The bytes `combine` holds under `kind` when it asks for the second
    table, the first being a dropped 400k-token table (GloVe 6B's size)."""
    types = ["The", "the", "Paris", "w000007", "W000011", "rare"] + [f"x{i}" for i in range(60)]
    second = make_table("second", types[:4] + ["only"], np.ones((5, 3)))
    held = []

    def tables():
        words = tuple(f"w{i:06d}" for i in range(400_000)) + ("the", "paris")
        index = dict(zip(words, range(len(words))))
        vectors = np.zeros((len(words), 1), np.float32)
        first = [EmbeddingTable._adopt("first", words, vectors, index)]
        del words, index, vectors
        # traced from here: what `combine` allocates and still holds
        tracemalloc.start()
        yield first.pop()
        held.append(tracemalloc.get_traced_memory()[0])
        yield second

    policy = CombinePolicy(kind, None if kind == "Concat" else 1)
    try:
        combine(tables(), mv(*types), policy, BF)
    finally:
        tracemalloc.stop()
    return held[0]


def test_an_ablation_keeps_no_more_of_a_dropped_table_than_concat():
    # of an earlier table, an ablation keeps only the tokens that a
    # vocabulary type can resolve to, not the table's whole vocabulary
    concat = _held_at_second_table("Concat")
    for kind in ("RandomSecond", "ComplementSecond", "MatchedSecond"):
        assert _held_at_second_table(kind) <= concat + 2**20, kind


def test_recommend_checks_the_table_count_and_names_after_reading():
    a = make_table("a", ["x", "y", "z"], np.eye(3))
    counts = VocabCounts({"x": 2, "p": 1})
    read = []

    def tables(*ts):
        for t in ts:
            read.append(t.name)
            yield t

    for ts in ((), (a,)):
        with pytest.raises(DataError, match=f"at least two tables to recommend pairs, got {len(ts)}"):
            recommend(tables(*ts), counts, counts, k=1, n=2)
    with pytest.raises(DataError, match=r"table name collision in \['a', 'a', 'b'\]"):
        recommend(tables(a, a, make_table("b", ["x", "q"], np.eye(2))), counts, counts, k=1, n=2)
    assert read == ["a", "a", "a", "b"]


def test_recommend_leaves_a_pair_without_shared_queries_unscored():
    # a and b share no query, though each shares one with c
    a = make_table("a", ["x", "y", "z"], np.eye(3))
    b = make_table("b", ["p", "q", "r"], np.eye(3))
    c = make_table("c", ["x", "p", "s"], np.eye(3))
    counts = VocabCounts({"x": 2, "p": 1})
    verdicts = recommend([a, b, c], counts, counts, tau_cov=0.0, k=1, n=2)
    assert [(v.embedding_a, v.embedding_b) for v in verdicts] == [("a", "c"), ("b", "c"), ("a", "b")]
    assert [v.overlap is None for v in verdicts] == [False, False, True]
    assert not verdicts[2].recommended and verdicts[2].min_attested == 50.0
    with pytest.raises(DataError, match="no shared queries"):
        recommend([a, b], counts, counts, k=1, n=2)
