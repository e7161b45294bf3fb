"""Command-line interface.

One executable, nine subcommands, machine-first output: every report is a
JSON object on stdout embedding a run manifest (input checksums, options
as given, seed, version), so a report is reproducible from itself. Exit
codes: 0 success, 1 data error, 2 usage error. Progress and errors go to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analysis import coverage, embedding_similarity, pair_report
from .combine import (
    PAD_TOKEN,
    CombinePolicy,
    combine,
    model_vocab,
    recommend,
    with_special_tokens,
    zero_token_row,
)
from .corpus import SPLITS, conll_blocks, read_conll, read_labeled_text, top_n_types, vocab_counts
from .embio import (
    Format,
    RandomBackfill,
    detect_format,
    read_embeddings,
    write_embeddings,
    write_hashed,
)
from .errors import DataError
from .manifest import build_manifest
from .tagschemes import bio_to_iobes, entity_prf, iob1_to_bio

_FORMAT_ALIASES = {
    "glove": Format.GLOVE_TEXT,
    "glove-header": Format.GLOVE_TEXT_HEADER,
    "w2v": Format.WORD2VEC_BINARY,
}


def _parse_emb_arg(value: str) -> tuple[str | None, str]:
    """"name=path" pins the table name; a bare path uses the file stem."""
    if "=" in value:
        name, path = value.split("=", 1)
        if name:
            return name, path
    return None, value


def _parse_data_arg(value: str) -> tuple[str, str]:
    """"split=path" tags the dataset with a split; bare paths are "other"."""
    if "=" in value:
        split, path = value.split("=", 1)
        if split in SPLITS:
            return split, path
    return "other", value


def _load_table(arg: str, fmt: Format | None, strict: bool = False):
    name, path = _parse_emb_arg(arg)
    table = read_embeddings(path, fmt, name=name, strict=strict)
    return table, path


def _load_tables(args, paths: dict):
    """Every --emb table in order, read when asked for, with its path put in
    `paths` keyed "emb:<name>". No yielded table is kept past its turn."""
    for emb in args.emb:
        table, path = _load_table(emb, args.emb_format)
        paths[f"emb:{table.name}"] = path
        yield table
        del table


def _parse_splits(spec: str | None) -> list[str] | None:
    """The --splits filter, names from SPLITS; None keeps every dataset."""
    if spec is None:
        return None
    splits = [s.strip() for s in spec.split(",") if s.strip()]
    if not splits:
        raise ValueError(f"--splits names no split, got {spec!r}")
    for split in splits:
        if split not in SPLITS:
            raise ValueError(f"--splits: unknown split {split!r}; expected names from {SPLITS}")
    return splits


def _parse_normalize(spec: str) -> bool:
    """The --normalize lookup chain, "exact" or "exact,lowercase": whether
    lookups fold case."""
    chain = tuple(s.strip() for s in spec.split(",") if s.strip())
    if chain not in (("exact",), ("exact", "lowercase")):
        raise ValueError(f"--normalize must be 'exact' or 'exact,lowercase', got {spec!r}")
    return len(chain) == 2


def _count_normalization(args) -> str:
    """Types are counted in the space lookups happen in, unless --raw."""
    if args.raw:
        return "exact"
    return "lowercase" if args.fold_case else "exact"


def _train_dev_counts(args):
    """Type counts of --train and --dev; both are read before either is counted."""
    norm = _count_normalization(args)
    train_ds = _read_dataset(args, args.train, "train")
    dev_ds = _read_dataset(args, args.dev, "dev")
    return vocab_counts(train_ds, norm), vocab_counts(dev_ds, norm)


def _read_dataset(args, path: str, split: str = "other"):
    if args.data_kind == "conll":
        return read_conll(
            path,
            token_column=args.token_column,
            label_column=args.label_column,
            split=split,
        )
    return read_labeled_text(
        path, delimiter=args.delimiter, label_field=args.label_field, split=split
    )


# ---------------------------------------------------------------------------
# subcommand implementations (each returns the report dict)


def _cmd_info(args):
    name, path = _parse_emb_arg(args.emb)
    fmt = args.emb_format or detect_format(path)
    table = read_embeddings(path, fmt, name=name, strict=args.strict)
    return {
        "name": table.name,
        "vocab": len(table),
        "dim": table.dim,
        "format": fmt.value,
        "n_duplicates": table.n_duplicates,
        "manifest": build_manifest(args, {"emb": path}),
    }


def _cmd_convert(args):
    table, path = _load_table(args.emb, args.emb_format, args.strict)
    manifest = build_manifest(args, {"emb": path})
    out_sha = write_embeddings(table, args.out, args.to)
    return {
        "out": args.out,
        "format": args.to.value,
        "vocab": len(table),
        "dim": table.dim,
        "output_sha256": out_sha,
        "manifest": manifest,
    }


def _convert_labels(labels: list[str], src: str, dst: str, mode: str) -> list[str]:
    if src == "iob1":
        labels = iob1_to_bio(labels)
    if dst == "iobes":
        labels = bio_to_iobes(labels, mode=mode)
    return labels


def _cmd_convert_tags(args):
    src, dst = args.tags_from, args.tags_to
    if src == dst:
        raise ValueError(f"--from {src} --to {dst} is not a conversion")
    col = args.label_column
    out_lines: list[str] = []
    n_sent = 0
    n_changed = 0
    for block in conll_blocks(args.data, {"label": col}):
        if isinstance(block, str):
            out_lines.append(block)
            continue
        n_sent += 1
        try:
            converted = _convert_labels([f[col] for _, f in block], src, dst, args.mode)
        except DataError as e:
            raise DataError(f"{args.data}:{block[0][0]}: {e}") from None
        for (_, fields), new in zip(block, converted):
            if fields[col] != new:
                n_changed += 1
                fields[col] = new
            out_lines.append(" ".join(fields))
    if n_sent == 0:
        raise DataError(f"{args.data}: no sentences")
    manifest = build_manifest(args, {"data": args.data})
    out_sha = write_hashed(args.out, [("\n".join(out_lines) + "\n").encode("utf-8")])
    return {
        "out": args.out,
        "from": src,
        "to": dst,
        "n_sentences": n_sent,
        "n_tags_changed": n_changed,
        "output_sha256": out_sha,
        "manifest": manifest,
    }


def _cmd_coverage(args):
    table, path = _load_table(args.emb, args.emb_format)
    dataset = _read_dataset(args, args.data, args.split)
    counts = vocab_counts(dataset, _count_normalization(args))
    report = asdict(coverage(counts, table, args.fold_case))
    report["embedding"] = table.name
    report["normalization"] = counts.normalization
    report["manifest"] = build_manifest(args, {"emb": path, "data": args.data})
    return report


def _cmd_similarity(args):
    table_a, path_a = _load_table(args.emb_a, args.emb_format)
    table_b, path_b = _load_table(args.emb_b, args.emb_format)
    dataset = _read_dataset(args, args.data, args.split)
    counts = vocab_counts(dataset, _count_normalization(args))
    queries = top_n_types(counts, args.top_n)
    sim = embedding_similarity(
        table_a,
        table_b,
        queries,
        args.k,
        args.fold_case,
        shared_vocab_only=args.shared_vocab_only,
        threads=args.threads,
    )
    return {
        "embedding_a": table_a.name,
        "embedding_b": table_b.name,
        "mean_jaccard_pct": sim.mean_jaccard_pct,
        "k": sim.k,
        "n_requested": sim.n_requested,
        "n_used": sim.n_used,
        "n_skipped": sim.n_skipped,
        "per_query": sim.per_query,
        "skipped": [list(s) for s in sim.skipped],
        "manifest": build_manifest(args, {"emb_a": path_a, "emb_b": path_b, "data": args.data}),
    }


def _cmd_pair_report(args):
    train, dev = _train_dev_counts(args)
    tables = (_load_table(emb, args.emb_format)[0] for emb in (args.emb_a, args.emb_b))
    row = pair_report(tables, train, dev, args.k, args.top_n, args.fold_case, threads=args.threads)
    paths = {"emb_a": _parse_emb_arg(args.emb_a)[1], "emb_b": _parse_emb_arg(args.emb_b)[1]}
    paths.update(train=args.train, dev=args.dev)
    return {**asdict(row), "manifest": build_manifest(args, paths)}


def _cmd_combine(args):
    splits = _parse_splits(args.splits)
    policy = CombinePolicy.parse(args.policy_kind, args.applies_to)
    backfill = RandomBackfill(args.seed, args.backfill_low, args.backfill_high)
    if args.min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {args.min_count}")
    paths = {}
    tables = list(_load_tables(args, paths))
    datasets = []
    for spec in args.data:
        split, path = _parse_data_arg(spec)
        datasets.append(_read_dataset(args, path, split))
        paths[f"data:{path}"] = path
    vocab = model_vocab(datasets, splits, args.min_count, _count_normalization(args))
    if args.add_special_tokens:
        vocab = with_special_tokens(vocab)
    table = combine(tables, vocab, policy, backfill, args.fold_case)
    if args.add_special_tokens:
        table = zero_token_row(table, PAD_TOKEN)
    manifest = build_manifest(args, paths)
    out_sha = write_embeddings(table, args.out, args.to)
    sidecar = {
        "out": str(args.out),
        "output_sha256": out_sha,
        "format": args.to.value,
        "vocab": len(table),
        "dim": table.dim,
        "policy": {"kind": policy.kind, "applies_to": policy.applies_to},
        "sources": [
            {
                "name": t.name,
                "path": paths[f"emb:{t.name}"],
                "sha256": manifest["input_sha256"][f"emb:{t.name}"],
                "vocab": len(t),
                "dim": t.dim,
            }
            for t in tables
        ],
        "seed": args.seed,
        "backfill": {"low": args.backfill_low, "high": args.backfill_high},
        "normalization": ["exact", "lowercase"] if args.fold_case else ["exact"],
        "min_count": args.min_count,
        "special_tokens": bool(args.add_special_tokens),
        "version": __version__,
    }
    manifest_path = str(args.out) + ".manifest.json"
    text = json.dumps(sidecar, indent=2, ensure_ascii=False) + "\n"
    write_hashed(manifest_path, [text.encode("utf-8")])
    return {
        "out": args.out,
        "format": args.to.value,
        "vocab": len(table),
        "dim": table.dim,
        "policy": policy.kind,
        "sources": [t.name for t in tables],
        "output_sha256": out_sha,
        "sidecar_manifest": manifest_path,
        "manifest": manifest,
    }


def _cmd_recommend(args):
    for option, tau in (("--tau-sim", args.tau_sim), ("--tau-cov", args.tau_cov)):
        if not math.isfinite(tau):
            raise ValueError(f"{option} must be finite, got {tau}")
    if len(args.emb) < 2:
        raise DataError("recommend needs at least two --emb tables")
    train, dev = _train_dev_counts(args)
    paths = {}
    verdicts = recommend(
        _load_tables(args, paths),
        train,
        dev,
        args.tau_sim,
        args.tau_cov,
        args.k,
        args.top_n,
        args.fold_case,
        threads=args.threads,
    )
    paths.update(train=args.train, dev=args.dev)
    return {
        "tau_sim": args.tau_sim,
        "tau_cov": args.tau_cov,
        "pairs": [asdict(v) for v in verdicts],
        "manifest": build_manifest(args, paths),
    }


def _cmd_score(args):
    gold = read_conll(args.gold, label_column=args.label_column)
    pred = read_conll(args.pred, label_column=args.label_column)
    gold_at = [f"{args.gold}:{line}" for line in gold.lines]
    pred_at = [f"{args.pred}:{line}" for line in pred.lines]
    if len(gold) != len(pred):
        n = min(len(gold), len(pred))
        unpaired = gold_at[n] if len(gold) > n else pred_at[n]
        raise DataError(
            f"{unpaired}: no partner; {len(gold)} gold sentences but {len(pred)} predicted"
        )
    for si, (g, p) in enumerate(zip(gold.sentences, pred.sentences)):
        if g.tokens != p.tokens:
            raise DataError(
                f"{pred_at[si]}: gold and pred token sequences differ (gold {gold_at[si]})"
            )
    gold_tags = [list(s.labels) for s in gold.sentences]
    pred_tags = [list(s.labels) for s in pred.sentences]
    result = entity_prf(gold_tags, pred_tags, mode=args.mode, where=(gold_at, pred_at))
    report = asdict(result)
    report["manifest"] = build_manifest(args, {"gold": args.gold, "pred": args.pred})
    return report


# ---------------------------------------------------------------------------
# rendering


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _text_render(report: dict, out: list[str], indent: str = ""):
    scalars = [(k, v) for k, v in report.items() if not isinstance(v, (dict, list))]
    width = max((len(k) for k, _ in scalars), default=0)
    for k, v in scalars:
        out.append(f"{indent}{k.ljust(width)}  {_fmt_val(v)}")
    for k, v in report.items():
        if isinstance(v, dict):
            out.append(f"{indent}{k}:")
            _text_render(v, out, indent + "  ")
        elif isinstance(v, list):
            out.append(f"{indent}{k}:")
            for item in v:
                values = item if isinstance(item, list) else [item]
                out.append(indent + "  " + "  ".join(_fmt_val(x) for x in values))


def _text_table(rows: list[dict], columns: list[str]) -> list[str]:
    cells = [[_fmt_val(r[c]) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return lines


def _render(report: dict, fmt: str, subcommand: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    lines: list[str] = []
    if subcommand == "pair-report":
        cols = [
            "embedding_a",
            "embedding_b",
            "overlap_train",
            "overlap_dev",
            "attested_train",
            "attested_dev",
        ]
        lines = _text_table([report], cols)
    elif subcommand == "recommend":
        cols = [
            "embedding_a",
            "embedding_b",
            "overlap",
            "attested_a",
            "attested_b",
            "recommended",
        ]
        lines = _text_table(report["pairs"], cols)
        lines.append("")
        lines.append(f"tau_sim   {_fmt_val(report['tau_sim'])}")
        lines.append(f"tau_cov   {_fmt_val(report['tau_cov'])}")
    else:
        _text_render(report, lines)
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# parser


def _fmt_arg(value: str) -> Format:
    try:
        return _FORMAT_ALIASES[value]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown format {value!r}; expected one of {sorted(_FORMAT_ALIASES)}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    run = common.add_argument_group("run options")
    run.add_argument("--seed", type=int, default=1234, help="seed for random backfill")
    run.add_argument(
        "--normalize",
        default="exact,lowercase",
        help="lookup chain: 'exact' or 'exact,lowercase'",
    )
    run.add_argument("--format", choices=("json", "text"), default="json", dest="out_format")
    run.add_argument(
        "--stable", action="store_true", help="omit timing fields for byte-stable reports"
    )
    run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads of the k-NN search (default: all cores)",
    )
    run.add_argument(
        "--raw", action="store_true", help="count types without lookup normalization"
    )
    run.add_argument(
        "--emb-format",
        type=_fmt_arg,
        default=None,
        help="embedding file format: glove, glove-header, w2v (default: detect)",
    )

    data_opts = argparse.ArgumentParser(add_help=False)
    grp = data_opts.add_argument_group("dataset options")
    grp.add_argument("--data-kind", choices=("conll", "text"), default="conll")
    grp.add_argument("--token-column", type=int, default=0)
    grp.add_argument("--label-column", type=int, default=-1)
    grp.add_argument("--delimiter", default="\t", help="field delimiter for text datasets")
    grp.add_argument("--label-field", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="embcat",
        description="Analyze, combine, and export pre-trained word embedding tables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", parents=[common], help="describe an embedding file")
    p.add_argument("--emb", required=True, help="embedding file, optionally name=path")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("convert", parents=[common], help="rewrite an embedding file")
    p.add_argument("--emb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to", type=_fmt_arg, required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "convert-tags", parents=[common], help="rewrite the label column between tag schemes"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--from", dest="tags_from", choices=("iob1", "bio"), required=True)
    p.add_argument("--to", dest="tags_to", choices=("bio", "iobes"), required=True)
    p.add_argument("--label-column", type=int, default=-1)
    p.add_argument("--mode", choices=("lenient", "strict"), default="lenient")
    p.set_defaults(func=_cmd_convert_tags)

    p = sub.add_parser(
        "coverage", parents=[common, data_opts], help="attested types of a dataset in a table"
    )
    p.add_argument("--emb", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="other")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser(
        "similarity", parents=[common, data_opts], help="neighborhood overlap of two tables"
    )
    p.add_argument("--emb-a", required=True)
    p.add_argument("--emb-b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="other")
    p.add_argument("--top-n", type=int, default=200)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--shared-vocab-only", action="store_true")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser(
        "pair-report",
        parents=[common, data_opts],
        help="overlap and coverage row for a table pair",
    )
    p.add_argument("--emb-a", required=True)
    p.add_argument("--emb-b", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--top-n", type=int, default=200)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_pair_report)

    p = sub.add_parser(
        "combine", parents=[common, data_opts], help="build a concatenated table"
    )
    p.add_argument(
        "--emb",
        action="append",
        required=True,
        help="source table (repeatable), optionally name=path",
    )
    p.add_argument(
        "--data",
        action="append",
        required=True,
        help="vocabulary dataset (repeatable), optionally split=path",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--to", type=_fmt_arg, default=Format.GLOVE_TEXT)
    p.add_argument(
        "--policy",
        dest="policy_kind",
        default="concat",
        help="concat, random-second, complement-second, or matched-second",
    )
    p.add_argument("--applies-to", type=int, default=None)
    p.add_argument("--splits", default=None, help="comma-separated split filter")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--add-special-tokens", action="store_true")
    p.add_argument("--backfill-low", type=float, default=-0.25)
    p.add_argument("--backfill-high", type=float, default=0.25)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser(
        "recommend", parents=[common, data_opts], help="rank table pairs for combination"
    )
    p.add_argument("--emb", action="append", required=True, help="table (repeat >= 2 times)")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--tau-sim", type=float, default=30.0)
    p.add_argument("--tau-cov", type=float, default=70.0)
    p.add_argument("--top-n", type=int, default=200)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("score", parents=[common], help="entity-level F1 of pred against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--label-column", type=int, default=-1)
    p.add_argument("--mode", choices=("lenient", "strict"), default="lenient")
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.monotonic()
    try:
        args.fold_case = _parse_normalize(args.normalize)
        for option in ("threads", "top_n", "k"):
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise ValueError(f"--{option.replace('_', '-')} must be >= 1, got {value}")
        report = args.func(args)
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not args.stable:
        report["manifest"]["duration_s"] = round(time.monotonic() - t0, 3)
    sys.stdout.write(_render(report, args.out_format, args.subcommand))
    return 0


if __name__ == "__main__":
    sys.exit(main())
