#!/usr/bin/env python3
"""Check the text writer's float32 formatting against numpy's str() on every
float32 of both signs in the binades [2**BINADE_LO, 2**BINADE_HI), and read
the text back through the text reader's block parser, which must give every
value's bits back: the whole write-read round trip.

    python scripts/check_text_floats.py -20 20

BINADE_LO may go down to -149 (the subnormals) and BINADE_HI up to 128 (the
largest finite float32). Each binade above -127 holds 2**23 values per sign;
str() costs about 1.4 us per value and the read back 0.2 us, so
[2**-20, 2**20) takes about 19 minutes on one core of a 2-vCPU VM, 2 of them
the read back. Progress goes to stderr; the last line of stdout is a JSON summary
with the values checked and how many the formatter left to str(). Exits 1 at
the first value whose bytes differ or that reads back as other bits.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from embcat import embio

# values per line of the text read back; each block holds a power of two
# values, so its lines come out even
ROW_VALUES = 256


def binade_start(e: int) -> int:
    """Bit pattern of float32 2**e (of +inf for e = 128)."""
    return (e + 127) << 23 if e >= -126 else 1 << (e + 149)


def check(x: np.ndarray) -> tuple[str | None, int]:
    """The first mismatch in `x` (or None) and the values left to str()."""
    sep = np.full(x.size, ord(" "), np.uint8)
    got = embio._format_float32(x, sep)[0].tobytes().decode("ascii")
    want = " ".join(map(str, x)) + " "
    if got != want:
        for v, g, w in zip(x, got.split(" "), want.split(" ")):
            if g != w:
                bits = int(np.float32(v).view(np.uint32))
                return f"{bits:#010x}: writer {g!r}, str() {w!r}", 0
    mismatch = read_back(got.split(" ")[:-1], x)
    if mismatch is not None:
        return mismatch, 0
    return None, int(embio._shortest_digits(x)[3].sum())


def read_back(values: list[str], x: np.ndarray) -> str | None:
    """Parse the values' text as lines of a GloVe text block, with the
    reader's block parser; the first value read back as other bits, if any."""
    dim = min(ROW_VALUES, x.size)
    lines = [" ".join(["t", *values[a : a + dim]]) for a in range(0, x.size, dim)]
    block = embio._plain_block("\n".join(lines), lines, dim)
    if block is None:
        return f"block parser refused the block from {int(x[:1].view(np.uint32)[0]):#010x}"
    read = block[1].ravel()
    bad = np.flatnonzero(read.view(np.uint32) != x.view(np.uint32))
    if bad.size:
        v = x[bad[0]]
        return f"{int(v.view(np.uint32)):#010x}: text {values[bad[0]]!r} reads back as {read[bad[0]]!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binade_lo", type=int)
    parser.add_argument("binade_hi", type=int)
    args = parser.parse_args(argv)
    if not -149 <= args.binade_lo < args.binade_hi <= 128:
        parser.error("need -149 <= BINADE_LO < BINADE_HI <= 128")
    t0 = time.perf_counter()
    checked = to_str = 0
    for e in range(args.binade_lo, args.binade_hi):
        lo, hi = binade_start(e), binade_start(e + 1)
        for start in range(lo, hi, embio._WRITE_VALUES):
            x = np.arange(start, min(start + embio._WRITE_VALUES, hi), dtype=np.uint32)
            x = x.view(np.float32)
            for signed in (x, -x):
                mismatch, n_str = check(signed)
                if mismatch is not None:
                    print(f"mismatch at {mismatch}", file=sys.stderr)
                    return 1
                checked += signed.size
                to_str += n_str
        print(f"binade {e}: {checked} values checked, {time.perf_counter() - t0:.0f} s",
              file=sys.stderr)
    print(json.dumps({
        "binades": [args.binade_lo, args.binade_hi],
        "values": checked,
        "mismatches": 0,
        "left_to_str": to_str,
        "seconds": round(time.perf_counter() - t0, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
