"""The bench tracer wraps package functions by module and attribute name
(`bench/tracing.py`). A rename in `src/` silently unhooks a span, so every
name it lists must still resolve, apart from the known stale ones."""

import importlib
import importlib.util
import sys
from pathlib import Path

from embcat.corpus import TokenDataset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# hooks whose functions the package no longer calls at these names; their
# spans and counters read 0 until bench/tracing.py is brought up to date
STALE = {
    ("embcat.cli", "file_sha256"),
    ("embcat.combine", "embedding_similarity"),
    ("embcat.combine", "transform_second"),
    ("embcat.combine", "random_vector"),
    # `recommend` reaches coverage only through `table_sides`, whose calls
    # the ("embcat.analysis", "coverage") hook already times and counts
    ("embcat.combine", "coverage"),
}


def _load_tracing(monkeypatch):
    """The module, loaded without installing its wrappers."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    hooked = [(mod, attr) for mod, attr, _ in tracing.HOOKS + tracing.COUNTERS]
    missing = {(mod, attr) for mod, attr in hooked
               if not hasattr(importlib.import_module(mod), attr)}
    assert missing <= STALE
    assert ("embcat.cli", "build_manifest") in hooked
    assert ("embcat.manifest", "file_sha256") in hooked


def test_traced_corpus_reads_count_tokens():
    # the corpus.read span reads n_tokens of each dataset the CLI reads
    assert hasattr(TokenDataset, "n_tokens")
