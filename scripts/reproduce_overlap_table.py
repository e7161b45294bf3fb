#!/usr/bin/env python3
"""Rebuild the neighborhood-overlap and coverage comparison for the public
embedding tables on CoNLL-2003, and check it against the reference numbers.

Needs the files fetched by scripts/fetch_reproduction_data.py. Prints one
row per table pair (GloVe-6B is the reference side) with the measured
overlap and attested percentages, the expected value, and the delta. Exits
nonzero if any measured cell drifts more than --tol from its reference.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from embcat.analysis import pair_report
from embcat.combine import recommend
from embcat.corpus import read_conll, vocab_counts
from embcat.embio import read_embeddings

# reference values for this exact configuration: k=10 neighborhood overlap
# over the 200 most frequent training types, lowercase lookup chain
REFERENCE = {
    "senna": {"overlap_train": 18.9, "overlap_dev": 20.8, "attested_train": 74.3, "attested_dev": 80.3},
    "glove-840b-300d": {"overlap_train": 41.7, "overlap_dev": 40.6, "attested_train": 83.2, "attested_dev": 88.5},
    "google-news": {"overlap_train": 25.2, "overlap_dev": 26.8, "attested_train": 55.9, "attested_dev": 65.1},
}
COLUMNS = ("overlap_train", "overlap_dev", "attested_train", "attested_dev")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--data",
        type=Path,
        default=Path(os.environ.get("EMBCAT_DATA", "data")),
        help="data directory (default: ./data or EMBCAT_DATA)",
    )
    parser.add_argument("--tol", type=float, default=2.0, help="allowed absolute drift")
    parser.add_argument("--threads", type=int, help="k-NN search threads (default: all cores)")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    print("reading tables")
    glove6b = read_embeddings(args.data / "glove.6B.100d.txt", name="glove-6b-100d")
    senna = read_embeddings(args.data / "senna.txt", name="senna")
    glove840b = read_embeddings(args.data / "glove.840B.300d.txt", name="glove-840b-300d")
    gnews = read_embeddings(args.data / "GoogleNews-vectors-negative300.bin", name="google-news")
    train = vocab_counts(read_conll(args.data / "conll2003" / "train.txt", split="train"), "lowercase")
    dev = vocab_counts(read_conll(args.data / "conll2003" / "valid.txt", split="dev"), "lowercase")
    print(f"  train: {len(train.counts)} types / {train.total_tokens} tokens")
    print(f"  dev:   {len(dev.counts)} types / {dev.total_tokens} tokens")

    drifted = 0
    header = f"{'pair':>28s}  {'cell':>14s}  {'got':>6s}  {'want':>6s}  {'delta':>6s}"
    print()
    print(header)
    print("-" * len(header))
    for other in (senna, glove840b, gnews):
        row = pair_report(glove6b, other, train, dev, k=10, n=200, threads=args.threads)
        for col in COLUMNS:
            got = getattr(row, col)
            want = REFERENCE[other.name][col]
            delta = got - want
            flag = "" if abs(delta) <= args.tol else "  <-- drift"
            if flag:
                drifted += 1
            print(
                f"{row.embedding_a + ' vs ' + row.embedding_b:>28s}  {col:>14s}"
                f"  {got:6.1f}  {want:6.1f}  {delta:+6.1f}{flag}"
            )

    print()
    print("pair recommendation (overlap < 30.0 and min train coverage >= 70.0):")
    for v in recommend([glove6b, senna, glove840b, gnews], train, dev, threads=args.threads):
        tag = "recommended" if v.recommended else "rejected"
        overlap = "not scored" if v.overlap is None else f"{v.overlap:.1f}"
        print(
            f"  {v.embedding_a} + {v.embedding_b}: {tag}"
            f" (overlap {overlap}, min attested {v.min_attested:.1f})"
        )

    print(f"\n{time.monotonic() - t0:.0f}s total")
    if drifted:
        print(f"{drifted} cell(s) outside tolerance {args.tol}")
        return 1
    print("all cells within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
