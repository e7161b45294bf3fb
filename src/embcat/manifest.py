"""Run manifests: enough provenance to reproduce any report.

Every CLI report embeds one of these: the subcommand, its options as
given, a sha256 of each input file's raw bytes, the seed, the tool
version, and (unless suppressed for golden-file diffing) the wall-clock
duration, which the CLI adds once the command has returned.
"""

from __future__ import annotations

import enum
import hashlib

from . import __version__

# parser fields that are not options of the run. Every report that takes
# --to states it as "format"; recording it here too would change the
# stable report of existing combine runs
_NOT_OPTIONS = {"func", "subcommand", "seed", "stable", "fold_case", "to"}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(args, inputs: dict[str, str]) -> dict:
    """Assemble the provenance block embedded in every report from the
    parsed command line `args`.

    Options are recorded as given (an omitted one as its default, often
    None), enums by value and sequences as lists. `inputs` maps a role
    name to a file path; values become sha256 hex digests of the file
    bytes, so build it before any output is written (an output may
    overwrite an input). Keys are emitted sorted so identical runs
    serialize identically.
    """
    options = {}
    for key, val in vars(args).items():
        if key in _NOT_OPTIONS:
            continue
        if isinstance(val, enum.Enum):
            val = val.value
        if isinstance(val, (str, int, float, bool, type(None))):
            options[key] = val
        elif isinstance(val, (list, tuple)):
            options[key] = list(val)
    return {
        "subcommand": args.subcommand,
        "options": {k: options[k] for k in sorted(options)},
        "input_sha256": {k: file_sha256(inputs[k]) for k in sorted(inputs)},
        "seed": args.seed,
        "version": __version__,
    }
