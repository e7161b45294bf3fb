import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcat.errors import DataError
from embcat.tagschemes import (
    Entity,
    ScoreReport,
    bio_to_iobes,
    entity_prf,
    extract_entities,
    iob1_to_bio,
    split_tag,
)
from scoring_fixture import CASES, TOTAL_GOLD, TOTAL_PRED, TOTAL_TP


def spans(labels, mode="lenient"):
    return {(e.etype, e.start, e.end) for e in extract_entities(labels, mode=mode)}


# ---------------------------------------------------------------------------
# tag parsing


def test_split_tag():
    assert split_tag("B-PER") == ("B", "PER")
    assert split_tag("O") == ("O", None)
    assert split_tag("S-I-complex") == ("S", "I-complex")
    for bad in ("B-", "B", "PER", "X-PER", ""):
        with pytest.raises(DataError):
            split_tag(bad)


def test_entity_validation():
    with pytest.raises(ValueError):
        Entity("PER", 2, 2)
    with pytest.raises(ValueError):
        Entity("", 0, 1)


# ---------------------------------------------------------------------------
# conversions


def test_iob1_to_bio():
    assert iob1_to_bio(["I-PER", "I-PER", "O", "I-LOC"]) == ["B-PER", "I-PER", "O", "B-LOC"]
    # B only separates adjacent same-type spans in IOB1
    assert iob1_to_bio(["I-ORG", "B-ORG", "I-ORG"]) == ["B-ORG", "B-ORG", "I-ORG"]
    assert iob1_to_bio(["I-PER", "I-LOC"]) == ["B-PER", "B-LOC"]
    assert iob1_to_bio(["O", "O"]) == ["O", "O"]
    with pytest.raises(DataError):
        iob1_to_bio(["S-PER"])


def test_bio_to_iobes():
    assert bio_to_iobes(["B-PER", "I-PER"]) == ["B-PER", "E-PER"]
    assert bio_to_iobes(["B-LOC"]) == ["S-LOC"]
    assert bio_to_iobes(["O", "B-PER", "I-PER", "I-PER", "O", "B-ORG"]) == [
        "O",
        "B-PER",
        "I-PER",
        "E-PER",
        "O",
        "S-ORG",
    ]
    assert bio_to_iobes(["B-A", "B-A"]) == ["S-A", "S-A"]
    assert bio_to_iobes(["B-A", "I-B"]) == ["S-A", "S-B"]  # type change splits


def test_bio_to_iobes_repair_modes():
    assert bio_to_iobes(["I-PER", "I-PER"], mode="lenient") == ["B-PER", "E-PER"]
    with pytest.raises(DataError, match="position 0"):
        bio_to_iobes(["I-PER", "I-PER"], mode="strict")
    with pytest.raises(ValueError):
        bio_to_iobes(["O"], mode="fuzzy")


def test_conversions_preserve_length():
    for gold, pred, *_ in CASES:
        for labels in (gold, pred):
            try:
                assert len(iob1_to_bio([t for t in labels if t[0] in "OBI"])) == len(
                    [t for t in labels if t[0] in "OBI"]
                )
            except DataError:
                pass
            bio = ["O" if t == "O" else t for t in labels]
            # lenient conversion always succeeds and preserves length
            converted = bio_to_iobes(
                [t if t[0] in "OBI" else "O" for t in bio], mode="lenient"
            )
            assert len(converted) == len(labels)


# ---------------------------------------------------------------------------
# extraction


def test_extract_clean_iobes():
    assert spans(["B-PER", "E-PER", "O", "S-LOC"]) == {("PER", 0, 2), ("LOC", 3, 4)}
    assert spans(["O", "O"]) == set()


def test_extract_lenient_repairs():
    assert spans(["I-PER", "E-PER"]) == {("PER", 0, 2)}
    assert spans(["E-PER", "E-PER"]) == {("PER", 0, 1), ("PER", 1, 2)}
    assert spans(["B-PER", "I-PER"]) == {("PER", 0, 2)}  # closes at sentence end
    assert spans(["I-A", "I-B"]) == {("A", 0, 1), ("B", 1, 2)}


def test_extract_strict_errors():
    with pytest.raises(DataError, match="position 0"):
        extract_entities(["I-PER", "E-PER"], mode="strict")
    with pytest.raises(DataError, match="position 1"):
        extract_entities(["B-PER", "E-LOC"], mode="strict")
    with pytest.raises(DataError, match="unterminated"):
        extract_entities(["B-PER", "I-PER"], mode="strict")
    with pytest.raises(DataError, match="position 1"):
        extract_entities(["B-PER", "O"], mode="strict")
    # well-formed IOBES passes
    assert extract_entities(["B-PER", "I-PER", "E-PER", "S-LOC", "O"], mode="strict") == [
        Entity("PER", 0, 3),
        Entity("LOC", 3, 4),
    ]


def test_extract_sentence_index():
    es = extract_entities(["S-X"], sentence=7)
    assert es[0].sentence == 7


# ---------------------------------------------------------------------------
# scoring


def test_score_report_conventions():
    r = ScoreReport.from_counts(0, 0, 0)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = ScoreReport.from_counts(5, 0, 0)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = ScoreReport.from_counts(4, 2, 2)
    assert r.precision == 1.0 and r.recall == 0.5 and r.f1 == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        ScoreReport.from_counts(1, 1, 2)


def test_fixture_cases_individually():
    for i, (gold, pred, tp, n_gold, n_pred) in enumerate(CASES):
        g = spans(gold)
        p = spans(pred)
        assert len(g) == n_gold, f"case {i}: gold spans {sorted(g)}"
        assert len(p) == n_pred, f"case {i}: pred spans {sorted(p)}"
        assert len(g & p) == tp, f"case {i}: matches {sorted(g & p)}"


def test_fixture_aggregate_prf():
    assert len(CASES) >= 30
    gold = [c[0] for c in CASES]
    pred = [c[1] for c in CASES]
    report = entity_prf(gold, pred)
    assert report.n_gold == TOTAL_GOLD
    assert report.n_pred == TOTAL_PRED
    assert report.n_correct == TOTAL_TP
    assert report.precision == TOTAL_TP / TOTAL_PRED
    assert report.recall == TOTAL_TP / TOTAL_GOLD
    # algebraically 2tp/(gold+pred); computed as 2pr/(p+r), so allow one ulp
    assert report.f1 == pytest.approx(2 * TOTAL_TP / (TOTAL_GOLD + TOTAL_PRED), rel=1e-12)


def test_entity_prf_shape_errors():
    with pytest.raises(DataError):
        entity_prf([["O"]], [["O"], ["O"]])
    with pytest.raises(DataError, match="sentence 0"):
        entity_prf([["O", "O"]], [["O"]])


def test_entity_prf_counts_per_sentence():
    # same tags in different sentences must not match each other
    report = entity_prf([["S-X"], ["O"]], [["O"], ["S-X"]])
    assert report.n_correct == 0 and report.n_gold == 1 and report.n_pred == 1


# ---------------------------------------------------------------------------
# properties

etype_st = st.sampled_from(["PER", "LOC", "ORG", "MISC"])


@st.composite
def layout_st(draw):
    """Random non-overlapping entity layout rendered as BIO."""
    n = draw(st.integers(1, 20))
    labels = ["O"] * n
    entities = []
    pos = 0
    while pos < n:
        if draw(st.booleans()):
            width = draw(st.integers(1, min(4, n - pos)))
            et = draw(etype_st)
            labels[pos] = f"B-{et}"
            for i in range(pos + 1, pos + width):
                labels[i] = f"I-{et}"
            entities.append(("%s" % et, pos, pos + width))
            pos += width
        else:
            pos += 1
    return labels, {(e, s, t) for e, s, t in entities}


@settings(max_examples=200)
@given(layout_st())
def test_bio_extraction_matches_layout(layout):
    labels, expected = layout
    assert spans(labels) == expected


@settings(max_examples=200)
@given(layout_st())
def test_iobes_round_trip_preserves_entities(layout):
    labels, expected = layout
    iobes = bio_to_iobes(labels, mode="strict")
    assert len(iobes) == len(labels)
    assert spans(iobes) == expected
    # strict extraction agrees on well-formed output
    assert {(e.etype, e.start, e.end) for e in extract_entities(iobes, mode="strict")} == expected


@settings(max_examples=200)
@given(layout_st())
def test_iob1_to_bio_preserves_entities(layout):
    labels, expected = layout
    # demote entity-initial B to I where IOB1 allows it (no adjacent
    # same-type span immediately before)
    iob1 = list(labels)
    for i, tag in enumerate(iob1):
        if tag.startswith("B-"):
            prev = iob1[i - 1] if i else "O"
            if prev == "O" or split_tag(prev)[1] != split_tag(tag)[1]:
                iob1[i] = "I-" + tag[2:]
    assert iob1_to_bio(iob1) == labels
    assert spans(iob1_to_bio(iob1)) == expected


@settings(max_examples=100)
@given(st.lists(st.sampled_from(["O", "B-PER", "I-PER", "E-PER", "S-PER", "I-LOC"]), max_size=12))
def test_lenient_extraction_total(labels):
    # lenient mode must accept any tag soup without raising
    entities = extract_entities(labels, mode="lenient")
    for e in entities:
        assert 0 <= e.start < e.end <= len(labels)
    # spans never overlap and appear in order
    for a, b in zip(entities, entities[1:]):
        assert a.end <= b.start
