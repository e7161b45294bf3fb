"""Corpus readers and type-frequency statistics.

Corpora enter embcat as type counts. One token reader per format streams a
file's tokens, checking each line as it goes: `conll_tokens` reads CoNLL
column files (one token per line, blank line between sentences) and
`text_tokens` reads labeled text (one example per line). `vocab_counts`
counts any token stream, so a corpus is counted as it is read and no
dataset of it is built. Counts carry no split: the caller that chose a
corpus knows its role. `conll_blocks` is the one reader of CoNLL files,
behind `conll_tokens` and the sentences that `convert-tags` rewrites and
`score` aligns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, utf8_input

NORMALIZATIONS = ("exact", "lowercase")


@dataclass
class VocabCounts:
    """Type -> occurrence count under a stated normalization."""

    counts: dict[str, int]
    total_tokens: int = field(init=False)
    normalization: str = "exact"

    def __post_init__(self):
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


def conll_tokens(path, *, token_column: int = 0, label_column: int = -1):
    """The tokens of a CoNLL column file, in order (`conll_blocks`): every
    sentence line must hold both columns. A file without a sentence fails
    with "no sentences" once it is read."""
    empty = True
    for block in conll_blocks(path, {"token": token_column, "label": label_column}):
        if isinstance(block, list):
            empty = False
            yield from [fields[token_column] for _, fields in block]
    if empty:
        raise DataError(f"{path}: no sentences")


def text_tokens(path, *, delimiter: str = "\t", label_field: int = 0):
    """The text tokens of a labeled-text file, one example per line, in order.

    The line splits on `delimiter`; `label_field` selects the label and the
    remaining fields, joined back together, are whitespace-tokenized into
    the text. Each example needs a label and a token. Empty lines are
    skipped; a file without an example fails with "no examples" once it is
    read.
    """
    empty = True
    with utf8_input(path), open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(delimiter)
            n = len(fields)
            if not -n <= label_field < n:
                raise DataError(
                    f"{path}:{lineno}: label field {label_field} out of range "
                    f"for {n}-field line"
                )
            if not fields.pop(label_field).strip():
                raise DataError(f"{path}:{lineno}: empty label")
            tokens = " ".join(fields).split()
            if not tokens:
                raise DataError(f"{path}:{lineno}: no text tokens")
            empty = False
            yield from tokens
    if empty:
        raise DataError(f"{path}: no examples")


def vocab_counts(tokens, normalization: str = "exact") -> VocabCounts:
    """Count the surface types of a token stream, such as a token reader's,
    under `normalization`."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")
    counter = Counter(map(str.lower, tokens) if normalization == "lowercase" else tokens)
    if not counter:
        raise DataError("no tokens to count")
    return VocabCounts(dict(counter), normalization=normalization)


def top_n_types(counts: VocabCounts, n: int) -> list[str]:
    """The n most frequent types, count descending, token ascending on ties.

    Asking for more types than exist returns them all.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ordered = sorted(counts.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [t for t, _ in ordered[:n]]

