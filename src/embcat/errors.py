from contextlib import contextmanager


class DataError(Exception):
    """Input data violates a format, shape, or content contract.

    Raised for anything wrong with user-supplied files or values; the CLI
    maps it to exit code 1. Misconfigured policy objects raise ValueError
    instead.
    """


@contextmanager
def utf8_input(path):
    """Turn a UnicodeDecodeError raised while reading the UTF-8 text file
    `path` into a DataError naming the file and its first undecodable line.

    UnicodeDecodeError is a ValueError, which the CLI reports as a usage
    error; a bad input file is a data error.
    """
    try:
        yield
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _utf8_error(path) -> DataError:
    # a second, binary pass finds the line: text-mode reads decode ahead in
    # blocks, and 0x0A never occurs inside a multi-byte UTF-8 sequence
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return DataError(
                    f"{path}:{lineno}: not valid UTF-8 "
                    f"(byte {raw[e.start]:#04x} at column {e.start + 1})"
                )
    return DataError(f"{path}: not valid UTF-8")
