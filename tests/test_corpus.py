from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merge_counts, write_conll
from embcat.corpus import (
    VocabCounts,
    conll_blocks,
    conll_tokens,
    text_tokens,
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


def _sentences(path, token_column=0, label_column=-1):
    """The (tokens, labels) of each sentence `conll_blocks` yields."""
    return [
        ([f[token_column] for _, f in block], [f[label_column] for _, f in block])
        for block in conll_blocks(path, {"token": token_column, "label": label_column})
        if isinstance(block, list)
    ]


def test_read_conll(tmp_path):
    p = tmp_path / "train.conll"
    p.write_text(CONLL)
    assert _sentences(p) == [
        (["EU", "rejects", "German", "call"], ["B-ORG", "O", "B-MISC", "O"]),
        (["Peter", "Blackburn"], ["B-PER", "I-PER"]),
    ]
    assert list(conll_tokens(p)) == ["EU", "rejects", "German", "call", "Peter", "Blackburn"]


def test_read_conll_column_selection(tmp_path):
    p = tmp_path / "cols.conll"
    p.write_text(CONLL)
    tokens, labels = _sentences(p, token_column=1, label_column=2)[0]
    assert tokens[0] == "NNP" and labels[0] == "B-NP"
    assert list(conll_tokens(p, token_column=1, label_column=2))[:2] == ["NNP", "VBZ"]


def test_read_conll_column_out_of_range(tmp_path):
    p = tmp_path / "bad.conll"
    p.write_text("tok O\n")
    with pytest.raises(DataError, match="bad.conll:1"):
        list(conll_tokens(p, label_column=5))
    with pytest.raises(DataError):
        list(conll_tokens(p, token_column=-3))


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


@pytest.mark.parametrize(
    "reader",
    [lambda p: list(conll_tokens(p)), lambda p: list(text_tokens(p))],
    ids=["conll_tokens", "text_tokens"],
)
def test_read_not_utf8_names_line(tmp_path, reader):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"O\tok\nO\tcaf\xe9\n")
    with pytest.raises(DataError, match=r"latin1\.txt:2: not valid UTF-8 \(byte 0xe9"):
        reader(p)


def test_read_conll_empty(tmp_path):
    p = tmp_path / "empty.conll"
    p.write_text("\n\n")
    with pytest.raises(DataError, match="empty.conll: no sentences"):
        list(conll_tokens(p))


def test_read_conll_no_trailing_blank(tmp_path):
    p = tmp_path / "t.conll"
    p.write_text("a O\nb O")
    assert _sentences(p) == [(["a", "b"], ["O", "O"])]
    assert list(conll_tokens(p)) == ["a", "b"]


def test_read_labeled_text_tab(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("pos\tgreat fun movie\nneg\tit was dull\n\n")
    # the empty line is skipped
    assert list(text_tokens(p)) == ["great", "fun", "movie", "it", "was", "dull"]


def test_read_labeled_text_space_delimited(tmp_path):
    # "label sentence ..." files use the first whitespace field as the label
    p = tmp_path / "data.txt"
    p.write_text("1 a powerful film\n0 lifeless and dull\n")
    assert list(text_tokens(p, delimiter=" ", label_field=0)) == [
        "a", "powerful", "film", "lifeless", "and", "dull"
    ]


def test_read_labeled_text_label_field_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("only-one-field\n")
    with pytest.raises(DataError, match="bad.tsv:1"):
        list(text_tokens(p, label_field=1))
    p.write_text("lab\t\n")
    with pytest.raises(DataError, match="no text tokens"):
        list(text_tokens(p))
    p.write_text("\tsome text\n")
    with pytest.raises(DataError, match="empty label"):
        list(text_tokens(p))
    p.write_text("\n \n")
    with pytest.raises(DataError, match="bad.tsv: no examples"):
        list(text_tokens(p))


def test_read_labeled_text_negative_field(tmp_path):
    p = tmp_path / "rev.tsv"
    p.write_text("the movie\tpos\n")
    assert list(text_tokens(p, label_field=-1)) == ["the", "movie"]


def test_vocab_counts_exact_and_lowercase():
    tokens = ["The", "the", "cat"]
    exact = vocab_counts(tokens, "exact")
    assert exact.counts == {"The": 1, "the": 1, "cat": 1}
    assert exact.total_tokens == 3
    low = vocab_counts(tokens, "lowercase")
    assert low.counts == {"the": 2, "cat": 1}
    assert low.total_tokens == 3
    with pytest.raises(ValueError):
        vocab_counts(tokens, "stem")
    with pytest.raises(DataError, match="no tokens"):
        vocab_counts([])


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
    a = VocabCounts({"x": 2, "y": 1})
    b = VocabCounts({"y": 4, "z": 1})
    m = merge_counts([a, b])
    assert m.counts == {"x": 2, "y": 5, "z": 1}
    assert m.total_tokens == 8
    with pytest.raises(ValueError):
        merge_counts([a, VocabCounts({"q": 1}, normalization="lowercase")])
    with pytest.raises(ValueError):
        merge_counts([])


def test_write_conll_round_trip(tmp_path):
    sentences = [(["EU", "rejects"], ["B-ORG", "O"]), (["Peter"], ["B-PER"])]
    p = tmp_path / "out.conll"
    write_conll(sentences, p)
    assert _sentences(p) == sentences


def test_write_conll_rejects_whitespace(tmp_path):
    with pytest.raises(DataError):
        write_conll([(["a b"], ["O"])], tmp_path / "x")


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
    sentences = [([t for t, _ in s], [l for _, l in s]) for s in sents]
    p = tmp_path_factory.mktemp("conll") / "rt.conll"
    write_conll(sentences, p)
    assert _sentences(p) == sentences


# the pieces of the token readers' parity inputs: separators (blank,
# whitespace-only and -DOCSTART- lines), fields that differ only in case,
# and fields a label check rejects
_FIELDS = ["EU", "eu", "The", "the", "B-ORG", "O", "caf\u00e9", "-DOCSTART-", "-X-"]
_SEPARATORS = ["", " ", "\t \t", "-DOCSTART- -X- O", "  -DOCSTART-"]


def _write_lines(path, lines, newline, final):
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode("utf-8"))


def _lines(text):
    """A file's whole text split into its lines, without their newlines."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    return lines


def _counted(tokens, normalization):
    """The counts of a token stream, or the message of the first error."""
    try:
        return vocab_counts(tokens, normalization).counts
    except DataError as e:
        return str(e)


def _conll_reference(path, text, token_column, label_column):
    """The tokens of a CoNLL file, split line by line from its whole text,
    or the message the readers give for its first bad line."""
    tokens = []
    for lineno, line in enumerate(_lines(text), 1):
        fields = line.split()
        if not fields or fields[0] == "-DOCSTART-":
            continue
        n = len(fields)
        for which, col in (("token", token_column), ("label", label_column)):
            if not -n <= col < n:
                return (f"{path}:{lineno}: {which} column {col} out of range "
                        f"for {n}-field line {line.strip()!r}")
        tokens.append(fields[token_column])
    return tokens or f"{path}: no sentences"


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            st.sampled_from(_SEPARATORS),
            st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=4).map(" ".join),
            st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=4).map("\t".join),
        ),
        max_size=12,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    token_column=st.sampled_from([0, 1, -1, -2]),
    label_column=st.sampled_from([-1, 1, 2, -3]),
    normalization=st.sampled_from(["exact", "lowercase"]),
)
def test_conll_tokens_count_what_a_line_split_reads(
    tmp_path_factory, lines, newline, final, token_column, label_column, normalization
):
    p = tmp_path_factory.mktemp("parity") / "c.conll"
    _write_lines(p, lines, newline, final)
    want = _conll_reference(p, p.read_bytes().decode("utf-8"), token_column, label_column)
    if not isinstance(want, str):
        fold = str.lower if normalization == "lowercase" else str
        want = dict(Counter(map(fold, want)))
    got = _counted(conll_tokens(p, token_column=token_column, label_column=label_column),
                   normalization)
    assert got == want


def _text_reference(path, text, delimiter, label_field):
    """The tokens of a labeled-text file, split line by line from its whole
    text, or the message the readers give for its first bad line."""
    tokens = []
    for lineno, line in enumerate(_lines(text), 1):
        if not line.strip():
            continue
        fields = line.split(delimiter)
        if not -len(fields) <= label_field < len(fields):
            return (f"{path}:{lineno}: label field {label_field} out of range "
                    f"for {len(fields)}-field line")
        if not fields[label_field].strip():
            return f"{path}:{lineno}: empty label"
        rest = [f for i, f in enumerate(fields) if i != label_field % len(fields)]
        if not " ".join(rest).split():
            return f"{path}:{lineno}: no text tokens"
        tokens += " ".join(rest).split()
    return tokens or f"{path}: no examples"


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.lists(
            st.tuples(st.sampled_from(["\t", " ", "  "]), st.sampled_from(_FIELDS + ["", " "])),
            max_size=4,
        ).map(lambda parts: "".join(sep + field for sep, field in parts)[1:]),
        max_size=8,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    delimiter=st.sampled_from(["\t", " "]),
    label_field=st.sampled_from([0, 1, -1, -2]),
    normalization=st.sampled_from(["exact", "lowercase"]),
)
def test_text_tokens_count_what_a_line_split_reads(
    tmp_path_factory, lines, newline, final, delimiter, label_field, normalization
):
    p = tmp_path_factory.mktemp("parity") / "t.tsv"
    _write_lines(p, lines, newline, final)
    want = _text_reference(p, p.read_bytes().decode("utf-8"), delimiter, label_field)
    if not isinstance(want, str):
        fold = str.lower if normalization == "lowercase" else str
        want = dict(Counter(map(fold, want)))
    got = _counted(text_tokens(p, delimiter=delimiter, label_field=label_field), normalization)
    assert got == want
