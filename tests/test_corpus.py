import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merge_counts, write_conll
from embcat.corpus import (
    Example,
    Sentence,
    TextDataset,
    TokenDataset,
    VocabCounts,
    conll_blocks,
    read_conll,
    read_labeled_text,
    top_n_types,
    vocab_counts,
)
from embcat.errors import DataError

CONLL = """-DOCSTART- -X- -X- O

EU NNP B-NP B-ORG
rejects VBZ B-VP O
German JJ B-NP B-MISC
call NN I-NP O

Peter NNP B-NP B-PER
Blackburn NNP I-NP I-PER
"""


def test_read_conll(tmp_path):
    p = tmp_path / "train.conll"
    p.write_text(CONLL)
    ds = read_conll(p, split="train")
    assert len(ds) == 2
    assert ds.sentences[0].tokens == ("EU", "rejects", "German", "call")
    assert ds.sentences[0].labels == ("B-ORG", "O", "B-MISC", "O")
    assert ds.sentences[1].labels == ("B-PER", "I-PER")
    assert ds.n_tokens == 6
    assert ds.split == "train"


def test_read_conll_column_selection(tmp_path):
    p = tmp_path / "cols.conll"
    p.write_text(CONLL)
    ds = read_conll(p, token_column=1, label_column=2)
    assert ds.sentences[0].tokens[0] == "NNP"
    assert ds.sentences[0].labels[0] == "B-NP"


def test_read_conll_column_out_of_range(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("tok O\n")
    with pytest.raises(DataError, match="bad.conll:1"):
        read_conll(p, label_column=5)
    with pytest.raises(DataError):
        read_conll(p, token_column=-3)


def test_conll_blocks_yields_sentences_and_separators(tmp_path):
    p = tmp_path / "b.conll"
    p.write_bytes(b"-DOCSTART- -X- O\r\n\nEU B-ORG\n  rejects\tO\n \t \n\n  -DOCSTART- O\nx O")
    assert list(conll_blocks(p, {"label": -1})) == [
        "-DOCSTART- -X- O",
        "",
        [(3, ["EU", "B-ORG"]), (4, ["rejects", "O"])],
        " \t ",
        "",
        "  -DOCSTART- O",
        [(8, ["x", "O"])],
    ]


def test_conll_blocks_names_the_first_missing_column(tmp_path):
    p = tmp_path / "c.conll"
    p.write_text("a b O\n\nc O\n")
    with pytest.raises(DataError, match=r"c\.conll:3: label column 2 out of range for 2-field line 'c O'"):
        list(conll_blocks(p, {"token": 0, "label": 2}))
    with pytest.raises(DataError, match=r"c\.conll:3: token column -3 out of range"):
        list(conll_blocks(p, {"token": -3, "label": 2}))


@pytest.mark.parametrize("reader", [read_conll, read_labeled_text])
def test_read_not_utf8_names_line(tmp_path, reader):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"O\tok\nO\tcaf\xe9\n")
    with pytest.raises(DataError, match=r"latin1\.txt:2: not valid UTF-8 \(byte 0xe9"):
        reader(p)


def test_read_conll_empty(tmp_path):
    p = tmp_path / "empty.conll"
    p.write_text("\n\n")
    with pytest.raises(DataError, match="no sentences"):
        read_conll(p)


def test_read_conll_no_trailing_blank(tmp_path):
    p = tmp_path / "t.conll"
    p.write_text("a O\nb O")
    ds = read_conll(p)
    assert len(ds) == 1 and ds.sentences[0].tokens == ("a", "b")


def test_read_labeled_text_tab(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("pos\tgreat fun movie\nneg\tit was dull\n\n")
    ds = read_labeled_text(p, split="train")
    assert len(ds) == 2
    assert ds.examples[0] == Example("pos", ("great", "fun", "movie"))
    assert ds.n_skipped == 1
    assert len(list(ds.iter_tokens())) == 6


def test_read_labeled_text_space_delimited(tmp_path):
    # "label sentence ..." files use the first whitespace field as the label
    p = tmp_path / "data.txt"
    p.write_text("1 a powerful film\n0 lifeless and dull\n")
    ds = read_labeled_text(p, delimiter=" ", label_field=0)
    assert ds.examples[0] == Example("1", ("a", "powerful", "film"))
    assert ds.examples[1].label == "0"


def test_read_labeled_text_label_field_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("only-one-field\n")
    with pytest.raises(DataError, match="bad.tsv:1"):
        read_labeled_text(p, label_field=1)
    p.write_text("lab\t\n")
    with pytest.raises(DataError, match="no text tokens"):
        read_labeled_text(p)
    p.write_text("\tsome text\n")
    with pytest.raises(DataError, match="empty label"):
        read_labeled_text(p)


def test_read_labeled_text_negative_field(tmp_path):
    p = tmp_path / "rev.tsv"
    p.write_text("the movie\tpos\n")
    ds = read_labeled_text(p, label_field=-1)
    assert ds.examples[0] == Example("pos", ("the", "movie"))


def test_dataset_validation():
    with pytest.raises(ValueError):
        TokenDataset((Sentence(("a",), ("O", "O")),))
    with pytest.raises(ValueError):
        TokenDataset((Sentence((), ()),))
    with pytest.raises(ValueError):
        TokenDataset((), split="nope")
    with pytest.raises(ValueError):
        TextDataset((Example("l", ()),))


def test_vocab_counts_exact_and_lowercase():
    ds = TokenDataset((Sentence(("The", "the", "cat"), ("O", "O", "O")),))
    exact = vocab_counts(ds, "exact")
    assert exact.counts == {"The": 1, "the": 1, "cat": 1}
    assert exact.total_tokens == 3
    low = vocab_counts(ds, "lowercase")
    assert low.counts == {"the": 2, "cat": 1}
    assert low.total_tokens == 3
    with pytest.raises(ValueError):
        vocab_counts(ds, "stem")


def test_top_n_types_ordering():
    counts = VocabCounts({"b": 3, "a": 3, "z": 5, "m": 1})
    assert top_n_types(counts, 3) == ["z", "a", "b"]
    assert top_n_types(counts, 10) == ["z", "a", "b", "m"]
    with pytest.raises(ValueError):
        top_n_types(counts, 0)


@settings(max_examples=50)
@given(
    counts=st.dictionaries(
        st.text(min_size=1, max_size=5).filter(lambda s: s.strip() == s and s),
        st.integers(1, 50),
        min_size=1,
        max_size=30,
    ),
    n=st.integers(1, 10),
)
def test_top_n_prefix_property(counts, n):
    vc = VocabCounts(counts)
    assert top_n_types(vc, n) == top_n_types(vc, n + 1)[:n]


def test_merge_counts():
    a = VocabCounts({"x": 2, "y": 1}, split="train")
    b = VocabCounts({"y": 4, "z": 1}, split="dev")
    m = merge_counts([a, b])
    assert m.counts == {"x": 2, "y": 5, "z": 1}
    assert m.total_tokens == 8
    with pytest.raises(ValueError):
        merge_counts([a, VocabCounts({"q": 1}, normalization="lowercase")])
    with pytest.raises(ValueError):
        merge_counts([])


def test_write_conll_round_trip(tmp_path):
    ds = TokenDataset(
        (
            Sentence(("EU", "rejects"), ("B-ORG", "O")),
            Sentence(("Peter",), ("B-PER",)),
        ),
        split="dev",
    )
    p = tmp_path / "out.conll"
    write_conll(ds, p)
    back = read_conll(p, split="dev")
    assert back.sentences == ds.sentences


def test_write_conll_rejects_whitespace(tmp_path):
    ds = TokenDataset((Sentence(("a b",), ("O",)),))
    with pytest.raises(DataError):
        write_conll(ds, tmp_path / "x")


conll_token_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    sents=st.lists(
        st.lists(st.tuples(conll_token_st, conll_token_st), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_conll_round_trip_property(tmp_path_factory, sents):
    ds = TokenDataset(
        tuple(Sentence(tuple(t for t, _ in s), tuple(l for _, l in s)) for s in sents)
    )
    p = tmp_path_factory.mktemp("conll") / "rt.conll"
    write_conll(ds, p)
    assert read_conll(p).sentences == ds.sentences
