"""Corpus readers and type-frequency statistics.

Two dataset shapes: token-level (CoNLL column files, one token per line,
blank line between sentences) and example-level (labeled text, one example
per line). Both feed the same type-counting path used for coverage
diagnostics and model-vocabulary construction. `conll_blocks` is the one
reader of CoNLL files, behind both `read_conll` and `convert-tags`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DataError, utf8_input

SPLITS = ("train", "dev", "test", "other")

NORMALIZATIONS = ("exact", "lowercase")


def _check_split(split: str):
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")


class Sentence(NamedTuple):
    tokens: tuple[str, ...]
    labels: tuple[str, ...]


@dataclass
class TokenDataset:
    """Sentences of aligned (token, label) pairs from a column file.
    `lines` holds each sentence's first line number in that file, when
    known, for error messages."""

    sentences: tuple[Sentence, ...]
    split: str = "other"
    lines: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        _check_split(self.split)
        self.sentences = tuple(self.sentences)
        for i, sent in enumerate(self.sentences):
            if len(sent.tokens) != len(sent.labels):
                raise ValueError(
                    f"sentence {i}: {len(sent.tokens)} tokens but {len(sent.labels)} labels"
                )
            if not sent.tokens:
                raise ValueError(f"sentence {i} is empty")

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)

    def iter_tokens(self):
        for sent in self.sentences:
            yield from sent.tokens


class Example(NamedTuple):
    label: str
    tokens: tuple[str, ...]


@dataclass
class TextDataset:
    """Labeled examples, one tokenized text per label."""

    examples: tuple[Example, ...]
    split: str = "other"
    n_skipped: int = 0

    def __post_init__(self):
        _check_split(self.split)
        self.examples = tuple(self.examples)
        for i, ex in enumerate(self.examples):
            if not ex.tokens:
                raise ValueError(f"example {i} has no tokens")

    def __len__(self) -> int:
        return len(self.examples)

    def iter_tokens(self):
        for ex in self.examples:
            yield from ex.tokens


@dataclass
class VocabCounts:
    """Type -> occurrence count under a stated normalization."""

    counts: dict[str, int]
    total_tokens: int = field(init=False)
    normalization: str = "exact"
    split: str = "other"

    def __post_init__(self):
        _check_split(self.split)
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        for t, c in self.counts.items():
            if not t:
                raise ValueError("empty type in counts")
            if c < 1:
                raise ValueError(f"type {t!r} has non-positive count {c}")
        self.total_tokens = sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)


def conll_blocks(path, columns: dict[str, int]):
    """The one reader of CoNLL column files: yields each sentence as a list
    of (line number, whitespace-split fields) and each separator line
    (blank, whitespace-only or -DOCSTART-) as its text without the newline.
    Every sentence line must hold each column in `columns` (name -> index;
    negative indices count from the right)."""
    need = max(c + 1 if c >= 0 else -c for c in columns.values())
    block: list[tuple[int, list[str]]] = []
    with utf8_input(path), open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            fields = raw.split()
            if not fields or fields[0] == "-DOCSTART-":
                if block:
                    yield block
                    block = []
                yield raw.rstrip("\n")
            elif len(fields) < need:
                n = len(fields)
                which, col = next((w, c) for w, c in columns.items() if not -n <= c < n)
                raise DataError(
                    f"{path}:{lineno}: {which} column {col} out of range "
                    f"for {n}-field line {raw.strip()!r}"
                )
            else:
                block.append((lineno, fields))
    if block:
        yield block


def read_conll(
    path,
    *,
    token_column: int = 0,
    label_column: int = -1,
    split: str = "other",
) -> TokenDataset:
    """Read a CoNLL-style column file into its sentences (`conll_blocks`);
    document markers and their sentence breaks are skipped."""
    sentences = []
    lines = []
    for block in conll_blocks(path, {"token": token_column, "label": label_column}):
        if isinstance(block, list):
            tokens = tuple([fields[token_column] for _, fields in block])
            labels = tuple([fields[label_column] for _, fields in block])
            sentences.append(Sentence(tokens, labels))
            lines.append(block[0][0])
    if not sentences:
        raise DataError(f"{path}: no sentences")
    return TokenDataset(tuple(sentences), split=split, lines=tuple(lines))


def read_labeled_text(
    path,
    *,
    delimiter: str = "\t",
    label_field: int = 0,
    split: str = "other",
) -> TextDataset:
    """Read one labeled example per line.

    The line splits on `delimiter`; `label_field` selects the label and the
    remaining fields, joined back together, are whitespace-tokenized into
    the text. Empty lines are skipped and counted on the dataset.
    """
    examples: list[Example] = []
    skipped = 0
    with utf8_input(path), open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                skipped += 1
                continue
            fields = line.split(delimiter)
            n = len(fields)
            if not -n <= label_field < n:
                raise DataError(
                    f"{path}:{lineno}: label field {label_field} out of range "
                    f"for {n}-field line"
                )
            label = fields[label_field].strip()
            if not label:
                raise DataError(f"{path}:{lineno}: empty label")
            rest = fields[:label_field % n] + fields[label_field % n + 1 :]
            text_tokens = tuple(" ".join(rest).split())
            if not text_tokens:
                raise DataError(f"{path}:{lineno}: no text tokens")
            examples.append(Example(label, text_tokens))
    if not examples:
        raise DataError(f"{path}: no examples")
    return TextDataset(tuple(examples), split=split, n_skipped=skipped)


def vocab_counts(dataset, normalization: str = "exact") -> VocabCounts:
    """Count surface types over a dataset's tokens."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
    counter: Counter[str] = Counter()
    if normalization == "lowercase":
        counter.update(t.lower() for t in dataset.iter_tokens())
    else:
        counter.update(dataset.iter_tokens())
    if not counter:
        raise DataError("dataset has no tokens")
    return VocabCounts(dict(counter), normalization=normalization, split=dataset.split)


def top_n_types(counts: VocabCounts, n: int) -> list[str]:
    """The n most frequent types, count descending, token ascending on ties.

    Asking for more types than exist returns them all.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ordered = sorted(counts.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [t for t, _ in ordered[:n]]

