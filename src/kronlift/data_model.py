"""Core containers for measurement matrices, windows, and indicator curves,
and the one reader for JSON config sections.

Conventions used throughout the library:
  - data matrices are channels x samples (one column per sampling instant)
  - the public time axis is integer and starts at t0 (default 1)
  - CSV files on disk are row-per-instant with a header of channel ids,
    transposed on load
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, PreconditionError

DEFAULT_DIM_CAP = 4096
MAX_SEGMENTS = 4


@dataclass(frozen=True)
class SpatioTemporalMatrix:
    """P channels by N samples of real measurements.

    values[i, j] is channel i at time t0 + j.
    """

    values: np.ndarray
    channel_ids: list[str]
    t0: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ConfigError(f"values must be 2-D, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ConfigError(f"values must be non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ConfigError(
                f"non-finite entry at channel {bad[0]}, column {bad[1]}"
            )
        ids = list(self.channel_ids)
        if len(ids) != v.shape[0]:
            raise ConfigError(
                f"{len(ids)} channel ids for {v.shape[0]} channels"
            )
        if len(set(ids)) != len(ids):
            raise ConfigError("channel ids must be unique")
        if self.t0 < 0:  # times key random streams, which take no negatives
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_ids", ids)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]

    def columns(self, first: int, last: int) -> SpatioTemporalMatrix:
        """The samples at public times first..last, a view of values."""
        j = first - self.t0
        return SpatioTemporalMatrix(self.values[:, j : j + last - first + 1],
                                    self.channel_ids, first)


@dataclass(frozen=True)
class LiftConfig:
    """Factorization P = k * n governing the Kronecker lift.

    k segments of length n per column; lifted dimension is n**k.
    k=1 is the identity factorization used for unlifted comparison runs.
    """

    k: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k <= MAX_SEGMENTS):
            raise ConfigError(f"k must be in 1..{MAX_SEGMENTS}, got {self.k}")
        if self.n < 2:
            raise ConfigError(f"segment length n must be >= 2, got {self.n}")
        if self.lifted_dim > DEFAULT_DIM_CAP:
            raise ConfigError(
                f"lifted dimension {self.n}^{self.k} = {self.lifted_dim} "
                f"exceeds cap {DEFAULT_DIM_CAP}"
            )

    @property
    def channels(self) -> int:
        return self.k * self.n

    @property
    def lifted_dim(self) -> int:
        return self.n**self.k


@dataclass(frozen=True)
class WindowSpec:
    """Moving-window geometry: width in samples and evaluation stride."""

    width: int = 200
    stride: int = 1

    def __post_init__(self):
        if self.width < 2:
            raise ConfigError(f"window width must be >= 2, got {self.width}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class IndicatorSeries:
    """A per-time-step indicator curve (LES, MSR, or RMSE).

    start_index is the time of the first value; value j belongs to time
    start_index + j * stride.
    """

    start_index: int
    values: np.ndarray
    kind: str
    stride: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ConfigError("indicator values must be 1-D")
        if self.kind not in ("LES", "MSR", "RMSE"):
            raise ConfigError(f"unknown indicator kind {self.kind!r}")
        object.__setattr__(self, "values", v)

    def times(self) -> np.ndarray:
        return self.start_index + self.stride * np.arange(self.values.size)


def residual_matrix(D: SpatioTemporalMatrix) -> SpatioTemporalMatrix:
    """Forward first differences along time: out[:, j] = D[:, j+1] - D[:, j].

    Output has N-1 columns and t0 incremented by one, so the column at
    public time t holds D(t) - D(t-1).
    """
    if D.samples < 2:
        raise PreconditionError("residual_matrix needs at least 2 samples")
    diff = D.values[:, 1:] - D.values[:, :-1]
    return SpatioTemporalMatrix(
        values=diff, channel_ids=list(D.channel_ids), t0=D.t0 + 1
    )


def load_matrix(path) -> SpatioTemporalMatrix:
    """Load a CSV measurement matrix.

    Header row holds channel ids, after a UTF-8 byte order mark if the
    file starts with one; each data row is one sampling instant.  An
    optional leading column named "t" carries integer sample indices;
    its first value is t0, which must be >= 0, and each later one must be
    the previous one + 1.  Cells are C decimal floats, optionally in
    double quotes, and t is an int64; a file that breaks a rule raises
    the ConfigError of its first bad line, found by reading it again, so
    path must name a regular file, not a pipe or FIFO.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{path}: not a regular file")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise ConfigError(f"{path}: empty file") from None
            has_t = bool(header) and header[0] == "t"
            ids = header[1:] if has_t else header
            columns = [("t", "i8")] * has_t + [("v", "f8", (len(ids),))]
            error = None
            try:
                with warnings.catch_warnings():  # a header-only file
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data")
                    body = np.loadtxt(_c_lines(fh), dtype=columns,
                                      delimiter=",", quotechar='"',
                                      comments=None, ndmin=1)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                error = exc
            else:
                t = body["t"] if has_t else np.array([1])  # t0 defaults to 1
                if (body.size and len(ids) >= 2 and t[0] >= 0
                        and np.all(np.diff(t) == 1)):
                    values = np.ascontiguousarray(body["v"]).T  # P x N
                    return SpatioTemporalMatrix(
                        values=values, channel_ids=ids, t0=int(t[0]))
        c_only = _check_lines(path, len(header), has_t)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raise ConfigError(f"{path}: {c_only or error}")


def _c_text(text: str) -> bool:
    """Whether numpy's parsers read text's cells as float() and int() do.

    They do on ASCII text, apart from the separators 0x1c-0x1f, which
    they skip as white space; on other characters the int64 parser takes
    letters for digits.
    """
    return text.isascii() and not ("\x1c" in text or "\x1d" in text
                                   or "\x1e" in text or "\x1f" in text)


def _c_lines(fh):
    """The lines of fh, up to a ValueError at the first that is not _c_text."""
    for line in fh:
        if not _c_text(line):
            raise ValueError("a line holds a character outside ASCII text")
        yield line


def _check_lines(path: Path, width: int, has_t: bool) -> str | None:
    """Raise the error of the first line in path that breaks a rule of
    load_matrix, or the no-samples and channel-count errors after them.

    Past those, return where the first cell that is not _c_text is, or
    None.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        samples = 0
        t_prev = c_only = None
        end = reader.line_num  # a quoted cell can hold line breaks
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != width:
                raise ConfigError(
                    f"{path}: line {lineno} has {len(row)} fields, "
                    f"expected {width}"
                )
            if has_t:
                try:
                    t = int(row[0])
                except ValueError:
                    raise ConfigError(
                        f"{path}: line {lineno}: bad time index {row[0]!r}"
                    ) from None
                if t_prev is None:
                    if t < 0:
                        raise ConfigError(
                            f"{path}: line {lineno}: time index {t} is negative"
                        )
                elif t != t_prev + 1:
                    raise ConfigError(
                        f"{path}: line {lineno}: time index {t} does not "
                        f"follow {t_prev}"
                    )
                t_prev = t
            try:
                for x in row[1:] if has_t else row:
                    float(x)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            bad = [x for x in row if not _c_text(x)]
            if bad and c_only is None:
                c_only = f"line {lineno}: {bad[0]!r} is not ASCII text"
            samples += 1
    if not samples:
        raise ConfigError(f"{path}: no samples")
    if width - has_t < 2:
        raise PreconditionError(
            f"{path}: need at least 2 channels, got {width - has_t}"
        )
    return c_only


def save_matrix(D: SpatioTemporalMatrix, path) -> None:
    """Write the CSV layout read by load_matrix, with a leading t column.

    Floats are rendered with 17 significant digits so a reload is
    bit-identical.
    """
    row = "%d" + ",%.17g" * D.channels + "\r\n"
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + list(D.channel_ids))
        fh.writelines(row % (t, *x) for t, x in
                      enumerate(D.values.T.tolist(), start=D.t0))


def read_section(section, schema: dict, where: str) -> dict:
    """The JSON object section read against schema: {key: (type, default)}.

    A missing key takes its default; a given value goes through its type,
    and null passes only where the default is None.  An unknown key, or a
    value its type rejects with TypeError or ValueError, is a ConfigError
    naming where.key.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = [f"{where}.{k}" for k in sorted(set(section) - set(schema))]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (kind, default) in schema.items():
        value = section.get(key, default)
        if key in section and not (value is None and default is None):
            try:
                if value is None:
                    raise ValueError("null is not allowed here")
                value = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"{where}.{key}: bad value {value!r} ({exc})") from None
        values[key] = value
    return values


def integer(value) -> int:
    """An integer; 30.0 passes, 30.5, "30" and true do not."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def non_negative(value) -> int:
    """An integer >= 0, as numpy's random seeds must be."""
    value = integer(value)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def check_seed(seed) -> None:
    """ConfigError unless seed passes non_negative."""
    try:
        non_negative(seed)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}") from None


def number(value) -> float:
    """A finite number; true, "1e-4", NaN and Infinity do not pass."""
    if isinstance(value, (bool, str)):
        raise ValueError("expected a number")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def boolean(value) -> bool:
    """JSON true or false only: bool("no") would be True."""
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def list_of(item):
    """The type of a JSON list whose entries have type item, as a tuple."""
    return lambda value: tuple(map(item, value))
