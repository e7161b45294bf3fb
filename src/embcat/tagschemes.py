"""Span tag schemes and entity-level scoring.

Converts between the three common encodings of typed spans over token
sequences (IOB1, BIO, IOBES) and scores predicted spans against gold ones.
A span counts as correct only when both its type and its exact token
boundaries match; precision, recall and F1 are computed over whole spans,
never over individual tags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError

_PREFIXES = frozenset("OBIES")


@dataclass(frozen=True, order=True)
class Entity:
    """A typed span: tokens [start, end) of one sentence."""

    etype: str
    start: int
    end: int
    sentence: int = 0

    def __post_init__(self):
        if not self.etype:
            raise ValueError("entity type must be non-empty")
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span [{self.start}, {self.end})")


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int

    @classmethod
    def from_counts(cls, n_gold: int, n_pred: int, n_correct: int) -> "ScoreReport":
        """Zero denominators give 0.0, matching the usual scorer convention."""
        if min(n_gold, n_pred, n_correct) < 0:
            raise ValueError("negative count")
        if n_correct > min(n_gold, n_pred):
            raise ValueError(
                f"correct={n_correct} exceeds gold={n_gold} or predicted={n_pred}"
            )
        p = n_correct / n_pred if n_pred else 0.0
        r = n_correct / n_gold if n_gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, n_gold, n_pred, n_correct)


def split_tag(tag: str) -> tuple[str, str | None]:
    """"B-PER" -> ("B", "PER"); "O" -> ("O", None)."""
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in _PREFIXES:
        return tag[0], tag[2:]
    raise DataError(f"malformed tag {tag!r}")


def _chunk_start(prev: str, prev_t, cur: str, cur_t) -> bool:
    if cur == "O":
        return False
    if cur in ("B", "S"):
        return True
    # cur is I or E: a new chunk starts only after a boundary
    return prev in ("O", "E", "S") or prev_t != cur_t


def _chunk_end(prev: str, prev_t, cur: str, cur_t) -> bool:
    if prev == "O":
        return False
    if prev in ("E", "S"):
        return True
    # prev is B or I: the chunk ends unless cur continues it
    return cur in ("O", "B", "S") or prev_t != cur_t


def iob1_to_bio(labels: list[str]) -> list[str]:
    """Rewrite span-opening I-X tags as B-X.

    IOB1 only uses B-X to separate adjacent same-type spans; every I-X that
    opens a span becomes B-X so the output is valid BIO. This is exactly
    the lenient BIO repair.
    """
    return _repair_bio(labels, "lenient")


def bio_to_iobes(labels: list[str], mode: str = "lenient") -> list[str]:
    """Refine BIO into IOBES using one token of lookahead.

    A span's last tag becomes E-X (or S-X for width-one spans). In lenient
    mode an I-X with no open same-type span is repaired to B-X first; in
    strict mode it is an error.
    """
    repaired = _repair_bio(labels, mode)
    out = []
    n = len(repaired)
    for i, tag in enumerate(repaired):
        p, t = split_tag(tag)
        if p == "O":
            out.append(tag)
            continue
        nxt_p, nxt_t = split_tag(repaired[i + 1]) if i + 1 < n else ("O", None)
        continues = nxt_p == "I" and nxt_t == t
        if p == "B":
            out.append(tag if continues else f"S-{t}")
        else:
            out.append(tag if continues else f"E-{t}")
    return out


def _repair_bio(labels: list[str], mode: str) -> list[str]:
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    out = []
    prev_p, prev_t = "O", None
    for i, tag in enumerate(labels):
        p, t = split_tag(tag)
        if p not in ("O", "B", "I"):
            raise DataError(f"position {i}: tag {tag!r} is not a BIO tag")
        if p == "I" and not (prev_p in ("B", "I") and prev_t == t):
            if mode == "strict":
                raise DataError(f"position {i}: {tag!r} does not continue an open span")
            out.append(f"B-{t}")
        else:
            out.append(tag)
        prev_p, prev_t = p, t
    return out


def extract_entities(labels: list[str], mode: str = "lenient", sentence: int = 0) -> list[Entity]:
    """Decode a tag sequence into its typed spans.

    Lenient mode accepts any mixture of the three schemes, reading spans
    the way the standard chunking scorer does; strict mode requires a
    well-formed sequence and reports the first violation.
    """
    if mode == "strict":
        return _extract_strict(labels, sentence)
    if mode != "lenient":
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    entities = []
    prev_p, prev_t = "O", None
    start = -1
    open_t = None
    for i, tag in enumerate(labels):
        p, t = split_tag(tag)
        if open_t is not None and _chunk_end(prev_p, prev_t, p, t):
            entities.append(Entity(open_t, start, i, sentence))
            open_t = None
        if _chunk_start(prev_p, prev_t, p, t):
            start = i
            open_t = t
        prev_p, prev_t = p, t
    if open_t is not None:
        entities.append(Entity(open_t, start, len(labels), sentence))
    return entities


def _extract_strict(labels: list[str], sentence: int) -> list[Entity]:
    """Full IOBES validation: every B opens, every span closes with E."""
    entities = []
    start = -1
    open_t = None
    for i, tag in enumerate(labels):
        p, t = split_tag(tag)
        if p in ("O", "B", "S") and open_t is not None:
            raise DataError(
                f"position {i}: {tag!r} while span of {open_t!r} is open (expected I/E)"
            )
        if p == "B":
            start, open_t = i, t
        elif p == "S":
            entities.append(Entity(t, i, i + 1, sentence))
        elif p == "I":
            if open_t is None or open_t != t:
                raise DataError(f"position {i}: {tag!r} does not continue an open span")
        elif p == "E":
            if open_t is None or open_t != t:
                raise DataError(f"position {i}: {tag!r} does not close an open span")
            entities.append(Entity(open_t, start, i + 1, sentence))
            open_t = None
    if open_t is not None:
        raise DataError(f"unterminated span of {open_t!r} at sentence end")
    return entities


def entity_prf(
    gold: list[list[str]],
    pred: list[list[str]],
    mode: str = "lenient",
    *,
    where: tuple[list[str], list[str]] | None = None,
) -> ScoreReport:
    """Span precision/recall/F1 of predicted tags against gold tags.

    Both inputs are per-sentence tag sequences; shapes must match exactly.
    `where`, if given, holds a location per sentence of gold and of pred
    (such as "file:line"); a malformed tag's error starts with its own.
    """
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold sentences but {len(pred)} predicted")
    n_gold = n_pred = n_correct = 0
    for si, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise DataError(f"sentence {si}: {len(g)} gold tags but {len(p)} predicted")
        spans = []
        for side, tags in enumerate((g, p)):
            try:
                spans.append(set(extract_entities(tags, mode=mode, sentence=si)))
            except DataError as e:
                if where is None:
                    raise
                raise DataError(f"{where[side][si]}: {e}") from None
        ge, pe = spans
        n_gold += len(ge)
        n_pred += len(pe)
        n_correct += len(ge & pe)
    return ScoreReport.from_counts(n_gold, n_pred, n_correct)
