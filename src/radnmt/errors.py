"""Exception hierarchy shared across the package, the one UTF-8 and line reader, and the one file writer.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class RadnmtError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RadnmtError):
    """Bad flags, unknown config keys, invalid parameter values."""


class ConfigError(UsageError):
    """Inconsistent or invalid model/training configuration."""


class DataError(RadnmtError):
    """Malformed input files, vocabulary problems, misaligned corpora."""


class NumericError(RadnmtError):
    """Non-finite values or numerically impossible requests."""


class ShapeError(NumericError):
    """Tensor operands with incompatible shapes."""


class TapeError(UsageError):
    """Misuse of the differentiation tape (e.g. a second tape on one thread)."""


class ContractError(RadnmtError):
    """A caller violated an operation's documented precondition."""


def read_utf8(path) -> str:
    """A whole text file; bytes that are not UTF-8 raise DataError."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file (read_utf8), as every line-oriented input is read.

    A line ends at "\n", and one "\r" before it is dropped, so CRLF reads as
    LF; a final "\n" starts no further line. A lone "\r", U+2028 and every
    other separator stay inside their line.
    """
    lines = read_utf8(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file ("w": UTF-8 text, "wb": bytes) whose contents replace path when the block ends.

    It writes a temporary file in path's directory and renames it over
    path, so a write cut off part way leaves path as it was and no
    temporary file behind. There is no fsync: this guards against a
    killed process or a failed write, not against a power cut.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.tmp")
    try:
        with partial.open(mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
