"""In-process tracing of embcat CLI runs, from outside the package.

Each public function is wrapped at the module attribute its caller
resolves (`embcat.cli.read_embeddings`, `embcat.analysis.coverage`, ...),
so the program runs unmodified. A span records its name, start, end,
parent span and run id; spans stay in memory until the run ends. Layer
self time is a span's duration minus the time its child spans cover.

`random_vector` runs up to ~10^5 times per command, from worker threads,
so it gets a locked counter instead of a span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("embio", "manifest", "corpus", "analysis", "combine")

# (module, attribute, span name): every place the three workloads' commands
# resolve a public function. A name the module no longer has is skipped.
HOOKS = [
    ("embcat.cli", "read_embeddings", "embio.read"),
    ("embcat.embio", "detect_format", "embio.detect"),
    ("embcat.cli", "write_embeddings", "embio.write"),
    ("embcat.cli", "file_sha256", "manifest.hash"),
    ("embcat.manifest", "file_sha256", "manifest.hash"),
    ("embcat.cli", "build_manifest", "manifest.build"),
    ("embcat.cli", "read_conll", "corpus.read"),
    ("embcat.cli", "vocab_counts", "corpus.count"),
    ("embcat.combine", "vocab_counts", "corpus.count"),
    ("embcat.analysis", "top_n_types", "corpus.top_n"),
    ("embcat.combine", "top_n_types", "corpus.top_n"),
    ("embcat.analysis", "coverage", "analysis.coverage"),
    ("embcat.combine", "coverage", "analysis.coverage"),
    ("embcat.analysis", "embedding_similarity", "analysis.similarity"),
    ("embcat.combine", "embedding_similarity", "analysis.similarity"),
    ("embcat.cli", "pair_report", "analysis.pair_report"),
    ("embcat.cli", "model_vocab", "combine.vocab"),
    ("embcat.cli", "with_special_tokens", "combine.special"),
    ("embcat.cli", "zero_token_row", "combine.special"),
    ("embcat.cli", "combine", "combine.fill"),
    ("embcat.combine", "transform_second", "combine.transform"),
    ("embcat.cli", "recommend", "combine.recommend"),
]
COUNTERS = [("embcat.combine", "random_vector", "embio.backfill.draws")]

# per-layer metrics of a traced run: name -> (unit, which way is better)
PER_LAYER = {
    "embio.detect.s": ("s", "lower"),
    "embio.read_text.s": ("s", "lower"),
    "embio.read_text.rows": ("count", "lower"),
    "embio.read_text.mb_s": ("MB/s", "higher"),
    "embio.read_w2v.s": ("s", "lower"),
    "embio.read_w2v.rows": ("count", "lower"),
    "embio.read_w2v.mb_s": ("MB/s", "higher"),
    "embio.write_text.s": ("s", "lower"),
    "embio.write_text.values": ("count", "lower"),
    "embio.write_text.mb_s": ("MB/s", "higher"),
    "embio.backfill.draws": ("count", "lower"),
    "manifest.hash.s": ("s", "lower"),
    "manifest.hash.mb": ("MB", "lower"),
    "manifest.hash.reads_per_file": ("ratio", "lower"),
    "corpus.read.s": ("s", "lower"),
    "corpus.read.tokens": ("count", "lower"),
    "corpus.count.s": ("s", "lower"),
    "corpus.count.types": ("count", "lower"),
    "analysis.coverage.s": ("s", "lower"),
    "analysis.coverage.lookups": ("count", "lower"),
    "analysis.similarity.s": ("s", "lower"),
    "analysis.similarity.calls": ("count", "lower"),
    "analysis.searches_per_table": ("ratio", "lower"),
    "analysis.search.gflop": ("GFLOP", "lower"),
    "analysis.search.gflop_s": ("GFLOP/s", "higher"),
    "combine.vocab.s": ("s", "lower"),
    "combine.transform.s": ("s", "lower"),
    "combine.fill.s": ("s", "lower"),
    "combine.backfill.useful_ratio": ("ratio", "higher"),
    "embio.self.s": ("s", "lower"),
    "manifest.self.s": ("s", "lower"),
    "corpus.self.s": ("s", "lower"),
    "analysis.self.s": ("s", "lower"),
    "combine.self.s": ("s", "lower"),
    "cli.self.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    # call arguments and result, kept for the few spans whose work counts
    # are derived after the run
    call: tuple | None = field(default=None, repr=False)
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


_KEEP_CALL = {"embio.read", "embio.write", "manifest.hash", "corpus.read", "corpus.count",
              "analysis.coverage", "analysis.similarity", "combine.fill", "embio.detect"}


class Tracer:
    """Installs the wrappers (for the rest of the process), runs
    `embcat.cli.main` and keeps the spans."""

    def __init__(self, src_dir: str):
        self.src_dir = os.path.realpath(src_dir)
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._thread = threading.get_ident()
        self._run = 0

    def install(self):
        main = importlib.import_module("embcat.cli")
        if not os.path.realpath(main.__file__).startswith(self.src_dir + os.sep):
            raise RuntimeError(f"embcat imported from {main.__file__}, not {self.src_dir}")
        for mod_name, attr, span_name in HOOKS:
            # importlib: the package attribute embcat.combine is the
            # combine function, which shadows the submodule
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                setattr(mod, attr, self._span_wrapper(span_name, getattr(mod, attr)))
        for mod_name, attr, counter in COUNTERS:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                self.counts[counter] = 0
                setattr(mod, attr, self._count_wrapper(counter, getattr(mod, attr)))
        self.main = main.main

    def _span_wrapper(self, name, fn):
        keep = name in _KEEP_CALL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.call = (args, result)
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur

    def run(self, argv: list[str], cwd) -> tuple[int, bytes, bytes]:
        """One `embcat.cli.main(argv)` call as a root span "cli.main",
        with the working directory and standard streams of a child run."""
        self._run += 1
        out, err = io.StringIO(), io.StringIO()
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                root = self._open("cli.main")
                try:
                    code = self.main(argv)
                finally:
                    self._close(root)
        finally:
            os.chdir(old)
        self._derive(root, cwd)
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def _derive(self, root: Span, cwd):
        """Turn the kept call arguments of one run into work counts, after
        the run, so the counting is not timed."""
        for span in self.spans[root.id:]:
            if span.call is None:
                continue
            args, result = span.call
            span.call = None
            info = {}
            if span.name == "embio.detect":
                info["fmt"] = result.value
            elif span.name == "embio.read":
                info["rows"] = len(result) + result.n_duplicates
                info["bytes"] = os.path.getsize(os.path.join(cwd, args[0]))
            elif span.name == "embio.write":
                table, path, fmt = args[:3]
                info["fmt"] = fmt.value
                info["values"] = len(table) * table.dim
                info["bytes"] = os.path.getsize(os.path.join(cwd, path))
            elif span.name == "manifest.hash":
                path = os.path.join(cwd, args[0])
                info["file"] = os.path.realpath(path)
                info["bytes"] = os.path.getsize(path)
            elif span.name == "corpus.read":
                info["tokens"] = result.n_tokens
            elif span.name == "corpus.count":
                info["types"] = len(result)
            elif span.name == "analysis.coverage":
                info["lookups"] = len(args[0].counts)
            elif span.name == "analysis.similarity":
                a, b = args[0], args[1]
                info["tables"] = ((span.run, id(a)), (span.run, id(b)))
                info["flop"] = 2.0 * result.n_used * (len(a) * a.dim + len(b) * b.dim)
            elif span.name == "combine.fill":
                info["random_slices"] = _random_slices(args[0], result)
            span.info = info
        # a read span is named by the format its detect child found
        for span in self.spans[root.id:]:
            if span.name == "embio.detect" and span.parent is not None:
                parent = self.spans[span.parent]
                if parent.name == "embio.read":
                    fmt = span.info["fmt"]
                    parent.name = "embio.read_w2v" if fmt == "Word2VecBinary" else "embio.read_text"
            if span.name == "embio.write":
                span.name = "embio.write_w2v" if span.info["fmt"] == "Word2VecBinary" \
                    else "embio.write_text"

    def spans_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
             "start": s.start, "end": s.end, "self_s": s.self_s}
            for s in self.spans
        ]


def _random_slices(tables, out) -> int:
    """Output slices that hold something other than the source row their
    type resolves to (exact, then lowercased): keyed random vectors."""
    n = 0
    off = 0
    for t in tables:
        rows = [t.index.get(w, t.index.get(w.lower(), -1)) for w in out.words]
        rows = np.array(rows)
        hit = rows >= 0
        same = (out.vectors[hit, off:off + t.dim] == t.vectors[rows[hit]]).all(axis=1)
        n += int((~hit).sum()) + int((~same).sum())
        off += t.dim
    return n


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (every command of it)."""
    def total(name, key=None):
        sel = [s for s in spans if s.name == name]
        if key is None:
            return sum(s.dur for s in sel)
        return sum(s.info[key] for s in sel)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    m["embio.detect.s"] = total("embio.detect")
    for kind in ("read_text", "read_w2v"):
        s = total(f"embio.{kind}")
        m[f"embio.{kind}.s"] = s
        m[f"embio.{kind}.rows"] = total(f"embio.{kind}", "rows")
        m[f"embio.{kind}.mb_s"] = rate(total(f"embio.{kind}", "bytes") / 1e6, s)
    s = total("embio.write_text")
    m["embio.write_text.s"] = s
    m["embio.write_text.values"] = total("embio.write_text", "values")
    m["embio.write_text.mb_s"] = rate(total("embio.write_text", "bytes") / 1e6, s)
    draws = counts.get("embio.backfill.draws", 0)
    m["embio.backfill.draws"] = draws

    hashes = [s for s in spans if s.name == "manifest.hash"]
    hashed = sum(s.info["bytes"] for s in hashes)
    # distinct files per command: each command is a fresh process
    distinct = sum({(s.run, s.info["file"]): s.info["bytes"] for s in hashes}.values())
    m["manifest.hash.s"] = total("manifest.hash")
    m["manifest.hash.mb"] = hashed / 1e6
    m["manifest.hash.reads_per_file"] = rate(hashed, distinct)

    m["corpus.read.s"] = total("corpus.read")
    m["corpus.read.tokens"] = total("corpus.read", "tokens")
    m["corpus.count.s"] = total("corpus.count")
    m["corpus.count.types"] = total("corpus.count", "types")

    m["analysis.coverage.s"] = total("analysis.coverage")
    m["analysis.coverage.lookups"] = total("analysis.coverage", "lookups")
    sims = [s for s in spans if s.name == "analysis.similarity"]
    sim_s = sum(s.dur for s in sims)
    tables = {t for s in sims for t in s.info["tables"]}
    gflop = sum(s.info["flop"] for s in sims) / 1e9
    m["analysis.similarity.s"] = sim_s
    m["analysis.similarity.calls"] = len(sims)
    m["analysis.searches_per_table"] = rate(2 * len(sims), len(tables))
    m["analysis.search.gflop"] = gflop
    m["analysis.search.gflop_s"] = rate(gflop, sim_s)

    m["combine.vocab.s"] = total("combine.vocab")
    m["combine.transform.s"] = total("combine.transform")
    m["combine.fill.s"] = sum(s.self_s for s in spans if s.name == "combine.fill")
    m["combine.backfill.useful_ratio"] = rate(total("combine.fill", "random_slices"), draws)

    for layer in LAYERS:
        m[f"{layer}.self.s"] = sum(s.self_s for s in spans if s.name.startswith(layer + "."))
    m["cli.self.s"] = sum(s.self_s for s in spans if s.name == "cli.main")
    m["trace.wall_s"] = sum(s.dur for s in spans if s.name == "cli.main")
    return m
