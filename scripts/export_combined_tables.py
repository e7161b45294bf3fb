#!/usr/bin/env python3
"""Export every combination variant of two embedding tables, restricted to a
task vocabulary, with a verification manifest beside each output.

For each of the four policies (concat, random-second, complement-second,
matched-second) this drives the combine subcommand once per corpus, so the
outputs are exactly what the CLI would produce: a text-format table plus a
sidecar manifest recording input hashes, the seed, and the output hash.

Defaults pair glove.6B.100d with senna over the CoNLL-2003 and SST-2
vocabularies from the fetched data directory.
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from embcat.cli import main as embcat_main

POLICIES = ("concat", "random-second", "complement-second", "matched-second")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--data",
        type=Path,
        default=Path(os.environ.get("EMBCAT_DATA", "data")),
        help="data directory (default: ./data or EMBCAT_DATA)",
    )
    parser.add_argument("--out", type=Path, default=Path("exports"))
    parser.add_argument("--first", type=Path, help="first table (default: glove.6B.100d.txt)")
    parser.add_argument("--second", type=Path, help="second table (default: senna.txt)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--min-count", type=int, default=1)
    args = parser.parse_args(argv)

    first = args.first or args.data / "glove.6B.100d.txt"
    second = args.second or args.data / "senna.txt"
    corpora = {
        "conll": [
            "--data-kind", "conll",
            "--data", f"train={args.data / 'conll2003' / 'train.txt'}",
            "--data", f"dev={args.data / 'conll2003' / 'valid.txt'}",
        ],
        "sst2": [
            "--data-kind", "text",
            "--delimiter", " ",
            "--data", f"train={args.data / 'sst2' / 'stsa.binary.phrases.train'}",
            "--data", f"dev={args.data / 'sst2' / 'stsa.binary.dev'}",
        ],
    }

    args.out.mkdir(parents=True, exist_ok=True)
    for corpus, data_args in corpora.items():
        for policy in POLICIES:
            out = args.out / f"{corpus}.{policy}.glove"
            print(f"combine -> {out}")
            code = embcat_main(
                [
                    "combine",
                    "--emb", str(first),
                    "--emb", str(second),
                    *data_args,
                    "--out", str(out),
                    "--policy", policy,
                    "--seed", str(args.seed),
                    "--min-count", str(args.min_count),
                    "--add-special-tokens",
                ]
            )
            if code != 0:
                print(f"combine failed with exit code {code}", file=sys.stderr)
                return code
    print(f"done; tables and manifests in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
