"""Run manifests: enough provenance to reproduce any report.

Every CLI report embeds one of these: the subcommand, its resolved
options, a sha256 of each input file's raw bytes, the seed, the tool
version, and (unless suppressed for golden-file diffing) the wall-clock
duration, which the CLI adds once the command has returned.
"""

from __future__ import annotations

import hashlib

from . import __version__


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(subcommand: str, options: dict, inputs: dict[str, str], seed: int) -> dict:
    """Assemble the provenance block embedded in every report.

    `inputs` maps a role name to a file path; values become sha256 hex
    digests of the file bytes, so build it before any output is written
    (an output may overwrite an input). Keys are emitted sorted so
    identical runs serialize identically.
    """
    return {
        "subcommand": subcommand,
        "options": {k: options[k] for k in sorted(options)},
        "input_sha256": {k: file_sha256(inputs[k]) for k in sorted(inputs)},
        "seed": seed,
        "version": __version__,
    }
