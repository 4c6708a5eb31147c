"""Matrix and configuration I/O.

All matrices travel as plain UTF-8 comma-separated files with an optional
single header row of column labels, recognised as a first row none of
whose cells reads as a number by ``float()``; values are written in
scientific notation with 17 significant digits so a write/read round trip
reproduces every double bit-for-bit. Analysis configurations are JSON
documents.

Files whose data cells all have the canonical form :func:`save_matrix`
writes, ``-?D.DDDDDDDDDDDDDDDDe[+-]DD``, are read by an exact vectorised
decoder, 256 KiB of whole lines at a time: no ``"`` and no ``\r`` in the
file, ``\n`` after every line, one cell count. It finds the cells from
their ``e``, decodes the 16 fraction digits as two uint64 words by SWAR
steps (eight byte lanes per integer) that check them at the same time,
and forms M * 10**q from the 17-digit integer M with one long double
multiply or divide by an exact power of ten, |q| <= 27 (Clinger 1990).
That result is rounded once, so rounding it to a double is correct
except where it lies exactly halfway between two doubles; such cells, and
cells with |q| > 27, are read by ``float()``. So every value is
bit-identical to ``float(cell)``. The decoder is off where ``long
double`` does not round to a 64-bit or wider significand (Windows, macOS
on arm64, the double-double of ppc64). On a 2-vCPU Xeon VM it reads a
200 x 2,500 file of 11.5 MB in 50-65 ms, against 135-190 ms for the
reader below.

Any other file, and any file in which a block does not qualify, is read
from the start by the general reader. It splits lines where :mod:`csv`
does (``\n``, ``\r\n`` or a lone ``\r``, never ``\x0b``, ``\x0c`` or
``\u2028``). The numbers of all data rows come from one
:func:`numpy.loadtxt` call, numpy's C reader, which rounds through
``PyOS_string_to_double`` as ``float()`` does, so every value is
bit-identical to ``float(cell)``. Its acceptance rule for a cell,
stripped of whitespace: non-empty ASCII in ``float()`` syntax without
underscores. ``float()`` alone also reads digit-group underscores
(``1_000``) and non-ASCII digits; both are rejected. A per-line pass in
front of the C reader rejects blank and ragged rows, which the C reader
would skip or not see against the header; when either rejects a file, one
more pass names the first bad line and cell. Lines are numbered by CSV
record, so a quoted cell spanning lines counts once. Both readers decide
a header by one rule: only a label that starts like a number is tried by
``float()``.

Writing sends the header row through :mod:`csv` and formats each data row
with one ``%.16e`` format, byte-identical to ``f"{v:.16e}"`` per cell.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bma import _prior_weights
from .errors import ConfigError, DomainError, EvidencerError, ParseError

__all__ = [
    "LabeledMatrix",
    "ResultTable",
    "load_matrix",
    "save_matrix",
    "ModelSpaceConfig",
    "load_config",
]

RESULT_KINDS = (
    "cvLME",
    "cvAcc",
    "cvCom",
    "oosLME",
    "oosAcc",
    "oosCom",
    "LFE",
    "alpha",
    "expected_freq",
    "EP",
    "PP",
    "BMA",
)


@dataclass(frozen=True)
class LabeledMatrix:
    """A 2-D float matrix with optional column labels."""

    values: np.ndarray
    columns: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ParseError("matrix must be 2-D")
        if self.columns is not None and len(self.columns) != values.shape[1]:
            raise ParseError("one column label per column required")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple:
        return self.values.shape


class _Record(NamedTuple):
    """One CSV record: ``lines[start:stop]`` as :mod:`csv` splits them."""

    start: int
    stop: int
    width: int
    blank: bool
    cells: list | None  # kept only for records holding a quote character


# a character that makes a record non-blank; ``\s`` is the set str.strip() drops
_NOT_BLANK = re.compile(r"[^\s,]")


def _records(path: Path, lines: list) -> list:
    """Group physical lines into CSV records the way :mod:`csv` reads them.

    A quote-free line is a record of its own; its width and blankness come
    from counting commas and searching for any other non-space character,
    without splitting it into cells. A line holding a quote goes to
    :mod:`csv`, which pulls further lines while a quoted cell stays open; a
    quoted cell still open at the end of the file is a :class:`ParseError`.
    """
    records = []
    pending = iter(lines)
    start = 0
    for line in pending:
        if '"' not in line:
            blank = _NOT_BLANK.search(line) is None
            records.append(_Record(start, start + 1, line.count(",") + 1, blank, None))
            start += 1
            continue
        # a quoted cell still open at the end of the file reads the extra line
        reader = csv.reader(itertools.chain([line], pending, ["\n"]))
        try:
            cells = next(reader)
        except csv.Error as exc:
            raise ParseError(f"{path}, line {len(records) + 1}: {exc}") from None
        stop = start + reader.line_num
        if stop > len(lines):
            raise ParseError(f"{path}, line {len(records) + 1}: unterminated quoted cell")
        blank = all(not c.strip() for c in cells)
        records.append(_Record(start, stop, len(cells), blank, cells))
        start = stop
    return records


def _cells(lines: list, record: _Record) -> list:
    if record.cells is not None:
        return record.cells
    text = lines[record.start].rstrip("\r\n")
    return text.split(",") if text else []


# how every string that float() accepts starts: spaces, an ASCII sign, then
# a digit (``\d`` and ``\s`` are the Unicode digits and spaces float() maps),
# a point, or the i or n of inf and nan
_NUMBER_START = re.compile(r"\s*[+-]?[\d.iInN]")


def _header(cells: list) -> tuple | None:
    """The stripped labels of a first row none of whose cells reads by
    ``float()``, or None when one does and the row is data. Only a cell
    that starts like a number goes to ``float()``, which spares a raised
    exception per label."""
    for cell in filter(_NUMBER_START.match, cells):
        try:
            float(cell)
        except ValueError:
            continue
        return None
    return tuple(map(str.strip, cells))


# The exact reader of canonical cells, ``-?D.DDDDDDDDDDDDDDDDe[+-]DD``.
# It needs a long double that rounds each operation to a significand of at
# least 64 bits: x87 extended (nmant 63) or IEEE binary128 (112). The
# double-double of ppc64 (105) does not round that way.
_EXACT_LONGDOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
_CELL_BYTES = 22  # an unsigned canonical cell; a negative one has 23
_BLOCK_BYTES = 1 << 18
_MAX_EXACT_POWER = 27  # 10**27 = 2**27 * 5**27 with 5**27 < 2**64
# by exponent code: e for e+DD, 100 + e for e-DD; a cell is M * 10**q
_Q = np.array([e - 16 for e in range(100)] + [-e - 16 for e in range(100)])
_SCALE = np.cumprod(np.array([1] + [10] * _MAX_EXACT_POWER, dtype=np.longdouble))[
    [min(abs(q), _MAX_EXACT_POWER) for q in _Q.tolist()]
]
# SWAR (eight byte lanes in one uint64) constants; every operand is an
# explicit uint64, so numpy 1.x never promotes a mix to float64
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
# a digit d minus "0" plus 0x76 stays below 0x80; any other byte sets bit 7
# there or in the difference
_ABOVE_NINE = np.uint64(0x7676767676767676)
_HIGH_BITS = np.uint64(0x8080808080808080)
_LOW_BYTES = np.uint64(0x000000FF000000FF)
_PAIRS_TO_QUADS = np.uint64(100 + (1000000 << 32))
_QUADS_TO_OCTET = np.uint64(1 + (10000 << 32))
_TEN = np.uint64(10)
_SHIFT_8 = np.uint64(8)
_SHIFT_16 = np.uint64(16)
_SHIFT_32 = np.uint64(32)
_E8 = np.uint64(10**8)
_E16 = np.uint64(10**16)


def _eight_digits(words: np.ndarray) -> np.ndarray | None:
    """The numbers of little-endian uint64 words of eight ASCII digits each,
    the first digit in the lowest byte; None if a byte is not a digit."""
    words = words - _ZEROS
    spare = words + _ABOVE_NINE
    spare |= words
    spare &= _HIGH_BITS
    if spare.any():
        return None
    np.right_shift(words, _SHIFT_8, out=spare)
    words *= _TEN
    words += spare  # byte pairs: 10 d0 + d1
    np.right_shift(words, _SHIFT_16, out=spare)
    spare &= _LOW_BYTES
    spare *= _QUADS_TO_OCTET
    words &= _LOW_BYTES
    words *= _PAIRS_TO_QUADS
    words += spare
    words >>= _SHIFT_32
    return words


def _bytes_at(b: np.ndarray, at: np.ndarray, count: int) -> np.ndarray:
    """``b[at[i] + j]`` for ``j < count`` as row ``i``: one gather of
    ``count``-byte items from an overlapping view of ``b``."""
    items = np.ndarray((b.size - count + 1,), f"V{count}", b, strides=(1,))
    return items[at].view(np.uint8).reshape(-1, count)


def _decode_canonical(b: np.ndarray, width: int) -> np.ndarray | None:
    """The values of the whole lines ``b`` (uint8) of ``width`` canonical
    cells each, flat in row order and each equal to ``float(cell)``; None
    if a byte breaks the form.

    A cell reads as M * 10**q with the integer M < 10**17 and
    q = exponent - 16. Both M and 10**|q|, for |q| <= 27, are exact in a
    64-bit significand, so one long double multiply or divide rounds the
    exact value once. Rounding that to a double rounds twice, which errs
    only where the first result lies exactly halfway between two doubles.
    Those cells, and cells with |q| > 27, are read by ``float()``.
    """
    seps = np.flatnonzero(b == ord("e")) + 4  # a cell ends 4 bytes after its e
    if seps.size == 0 or seps.size % width or seps[-1] != b.size - 1:
        return None
    ends = b[seps].reshape(-1, width)
    if (ends[:, -1] != ord("\n")).any() or (ends[:, :-1] != ord(",")).any():
        return None
    length = np.diff(seps, prepend=-1) - 1
    negative = length == _CELL_BYTES + 1
    if (
        not (negative | (length == _CELL_BYTES)).all()
        or (negative & (b[seps - length] != ord("-"))).any()
    ):
        return None

    # the e, the separators and the signs are checked; these are the rest
    start = seps - _CELL_BYTES
    head = _bytes_at(b, start, 2)  # the leading digit and the point
    tail = _bytes_at(b, start + 19, 3)  # the exponent's sign and digits
    lead = head[:, 0] - np.uint8(ord("0"))
    exp_digits = tail[:, 1:] - np.uint8(ord("0"))
    if (
        (lead > 9).any()
        or (head[:, 1] != ord(".")).any()
        or (exp_digits > 9).any()
        or ((tail[:, 0] != ord("+")) & (tail[:, 0] != ord("-"))).any()
    ):
        return None
    fraction = _eight_digits(_bytes_at(b, start + 2, 16).view("<u8"))
    if fraction is None:
        return None
    mantissa = lead.astype(np.uint64) * _E16 + fraction[:, 0] * _E8 + fraction[:, 1]
    code = exp_digits[:, 0].astype(np.intp) * 10 + exp_digits[:, 1]
    code[tail[:, 0] == ord("-")] += 100
    q = _Q[code]

    exact = mantissa.astype(np.longdouble)
    scale = _SCALE[code]
    up = q >= 0
    np.multiply(exact, scale, out=exact, where=up)
    np.divide(exact, scale, out=exact, where=~up)
    values = exact.astype(np.float64)
    # values + 2 residual is a double (the next one) only when exact is
    # halfway; the residual is exact as a double for x87 (at most 11 bits),
    # and a wider long double can at worst send a cell to float() needlessly
    residual = (exact - values).astype(np.float64)
    residual += residual
    redo = np.flatnonzero(
        (np.abs(q) > _MAX_EXACT_POWER)
        | ((residual != 0) & ((values + residual) - values == residual))
    )
    values[negative] *= -1.0
    text = memoryview(b)
    values[redo] = [
        float(text[stop - size : stop])
        for stop, size in zip(seps[redo].tolist(), length[redo].tolist())
    ]
    return values


def _line_blocks(handle):
    """The file in blocks of whole lines, read ``_BLOCK_BYTES`` at a time;
    bytes after the last newline come last, as a block of their own."""
    parts = []
    while chunk := handle.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        yield b"".join([*parts, memoryview(chunk)[:cut]])
        parts = [chunk[cut:]]
    tail = b"".join(parts)
    if tail:
        yield tail


def _load_canonical(path: Path) -> LabeledMatrix | None:
    """The matrix of a file whose data cells are all canonical, each value
    equal to ``float(cell)``; None for any other file or platform, which
    the general reader reads instead."""
    if not _EXACT_LONGDOUBLE:
        return None
    try:
        with path.open("rb") as handle:
            # a cell and its separator take at least 23 bytes
            values = np.empty(os.fstat(handle.fileno()).st_size // (_CELL_BYTES + 1))
            filled, width, columns = 0, None, None
            for block in _line_blocks(handle):
                if not block.endswith(b"\n"):
                    return None
                start = 0
                if width is None:
                    first = block[: block.index(b"\n")]
                    if not first or b'"' in first or b"\r" in first:
                        return None
                    try:
                        cells = first.decode("utf-8").split(",")
                    except UnicodeDecodeError:
                        return None
                    width, columns = len(cells), _header(cells)
                    if columns is not None:
                        start = len(first) + 1
                if start == len(block):
                    continue
                flat = _decode_canonical(np.frombuffer(block, np.uint8)[start:], width)
                if flat is None or filled + flat.size > values.size:
                    return None
                values[filled : filled + flat.size] = flat
                filled += flat.size
    except OSError:
        return None  # the general reader names the file and the error
    if not filled:
        return None
    return LabeledMatrix(values=values[:filled].reshape(-1, width), columns=columns)


def _is_number(text: str) -> bool:
    """Whether numpy's C reader reads the stripped cell ``text`` as a
    double: ``float()``'s syntax, in ASCII and without underscores."""
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_fault(path, lines, data, first_line, width, cause=None) -> ParseError:
    """The error for the first data record that breaks the acceptance rule.

    Records are checked in file order, each for blankness, then cell by
    cell, then for its width. This pass only names the fault; the values
    always come from :func:`numpy.loadtxt`.
    """
    for line_no, record in enumerate(data, start=first_line):
        where = f"{path}, line {line_no}"
        if record.blank:
            return ParseError(f"{where}: blank row inside the file")
        for column, cell in enumerate(_cells(lines, record), start=1):
            text = cell.strip()
            if not text:
                return ParseError(f"{where}, column {column}: empty cell")
            if not _is_number(text):
                return ParseError(
                    f"{where}, column {column}: non-numeric cell {cell!r}"
                )
        if record.width != width:
            return ParseError(
                f"{where}: ragged row with {record.width} cells, expected {width}"
            )
    return ParseError(f"{path}: {cause}")


def load_matrix(path) -> LabeledMatrix:
    """Read a rectangular numeric CSV, capturing a header row if present.

    The first row is treated as a header exactly when none of its cells
    parses by ``float()``, so a malformed first data row is an error, not
    a header. Trailing blank rows are ignored.
    Blank or ragged rows, empty or non-numeric data cells, and files
    without data rows raise :class:`ParseError` naming the file, the line
    and, for a bad cell, its column.
    """
    path = Path(path)
    matrix = _load_canonical(path)
    if matrix is not None:
        return matrix
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    records = _records(path, lines)
    while records and records[-1].blank:
        records.pop()
    if not records:
        raise ParseError(f"{path}: no data rows")

    columns = _header(_cells(lines, records[0]))
    first_line = 1 if columns is None else 2
    data = records[first_line - 1 :]
    if not data:
        raise ParseError(f"{path}: no data rows")

    width = data[0].width if columns is None else len(columns)
    if any(r.blank or r.width != width for r in data):
        raise _first_fault(path, lines, data, first_line, width)
    try:
        values = np.loadtxt(
            lines[data[0].start : data[-1].stop],
            dtype=float,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
        )
    except ValueError as exc:
        raise _first_fault(path, lines, data, first_line, width, exc) from None
    return LabeledMatrix(values=values, columns=columns)


def save_matrix(path, values: np.ndarray, columns=None) -> None:
    """Write a matrix as CSV: optional header, 17-significant-digit values.
    A file that cannot be written raises :class:`EvidencerError` naming it."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    path = Path(path)
    row_format = ",".join(["%.16e"] * values.shape[1]) + "\n"
    try:
        with path.open("w", newline="", encoding="utf-8") as handle:
            if columns is not None:
                if len(columns) != values.shape[1]:
                    raise ParseError("one column label per column required")
                csv.writer(handle, lineterminator="\n").writerow(list(columns))
            for row in values:
                handle.write(row_format % tuple(row))
    except OSError as exc:
        raise EvidencerError(f"cannot write {path}: {exc.strerror or exc}") from None


@dataclass(frozen=True)
class ResultTable:
    """One persisted analysis result: a labeled matrix plus its kind.

    ``row_labels`` name the leading axis (models, families, or a single
    aggregate row); columns are voxels. Values must be finite.
    """

    kind: str
    row_labels: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in RESULT_KINDS:
            raise ParseError(
                f"unknown result kind {self.kind!r}; expected one of "
                f"{RESULT_KINDS}"
            )
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if len(self.row_labels) != values.shape[0]:
            raise ParseError(
                f"{self.kind}: {values.shape[0]} rows but "
                f"{len(self.row_labels)} row labels"
            )
        if not np.all(np.isfinite(values)):
            raise ParseError(f"{self.kind}: values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "row_labels", tuple(str(r) for r in self.row_labels)
        )

    @property
    def n_voxels(self) -> int:
        return self.values.shape[1]

    def save(self, path) -> None:
        columns = [f"v{i + 1}" for i in range(self.n_voxels)]
        save_matrix(path, self.values, columns=columns)


@dataclass(frozen=True)
class ModelSpaceConfig:
    """Parsed analysis configuration.

    First-level fields describe one subject's model space: named models
    with per-session design files, per-session response files, and an
    optional precision (``"identity"`` or per-session files). ``sessions``
    selects multi-session folds or the single-session split. Optional
    blocks configure families, model priors, the estimate stack for
    averaging, and the group of subjects for population-level selection.
    """

    models: tuple = ()
    data: tuple = ()
    precision: object = "identity"
    sessions: dict = field(default_factory=lambda: {"kind": "multi"})
    families: dict | None = None
    family_weights: dict | None = None
    model_prior: tuple | None = None
    betas: dict | None = None
    subjects: tuple = ()
    alpha0: float = 1.0
    vb_tol: float = 1e-4
    vb_max_iter: int = 200
    chunk_voxels: int = 4096
    base_dir: Path = Path(".")
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def model_names(self) -> tuple:
        return tuple(m["name"] for m in self.models)

    def resolve(self, relative) -> Path:
        return (self.base_dir / relative).resolve()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _positive(raw: dict, key: str, default, kind=float, path=None):
    """``raw[key]`` (or ``default``) as a positive ``kind``: a finite JSON
    number for ``float``, a JSON integer for ``int``; anything else, booleans
    and numeric strings included, raises :class:`ConfigError` naming the key
    by ``path`` (default ``key``)."""
    value = raw.get(key, default)
    what = "integer" if kind is int else "number"
    _require(
        _is_real(value) and (isinstance(value, int) or kind is float) and value > 0,
        f"{path or key} must be a finite positive {what}, got {value!r}",
    )
    return kind(value)


def _is_real(value) -> bool:
    """Whether a JSON value is a number that is a finite double (booleans
    are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the double range
        return False


def _weights(value, n: int, what: str, unit: str) -> tuple:
    """``value`` as floats if it is ``n`` JSON numbers, one per ``unit``,
    that meet the prior-weight rule of :func:`~evidencer.bma._prior_weights`;
    anything else raises :class:`ConfigError` naming ``what``."""
    _require(
        isinstance(value, list) and len(value) == n and all(_is_real(w) for w in value),
        f"{what} needs one number per {unit} ({n}), got {value!r}",
    )
    try:
        _prior_weights(value, n, what)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return tuple(float(w) for w in value)


def _file_list(value, what: str) -> tuple:
    """A JSON list of file names as a tuple; anything else is a ConfigError."""
    _require(
        isinstance(value, list) and all(isinstance(v, str) for v in value),
        f"{what} must be a JSON list of file names, got {value!r}",
    )
    return tuple(value)


def _name(entry: dict, what: str) -> str:
    """``entry["name"]`` if it is a string; anything else is a ConfigError."""
    name = entry["name"]
    _require(isinstance(name, str), f"{what} name must be a string, got {name!r}")
    return name


def _json_list(raw: dict, key: str) -> tuple:
    """``raw[key]`` (default empty) as a tuple; a non-list is a ConfigError."""
    value = raw.get(key, [])
    _require(isinstance(value, list), f"{key} must be a JSON list, got {value!r}")
    return tuple(value)


def load_config(path) -> ModelSpaceConfig:
    """Load and structurally validate an analysis configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config root must be a JSON object")

    models = _json_list(raw, "models")
    data = _file_list(raw.get("data", []), "data")
    subjects = _json_list(raw, "subjects")
    _require(
        models or subjects,
        "config must declare first-level 'models' or a group 'subjects' list",
    )

    sessions = raw.get("sessions", {"kind": "multi"})
    _require(
        isinstance(sessions, dict), f"sessions must be a JSON object, got {sessions!r}"
    )
    sessions = dict(sessions)
    kind = sessions.get("kind")
    _require(kind in ("multi", "single"), "sessions.kind must be 'multi' or 'single'")

    if models:
        names = []
        for m in models:
            _require(
                isinstance(m, dict) and "name" in m and "design" in m,
                "each model needs 'name' and 'design' entries",
            )
            names.append(_name(m, "model"))
            _file_list(m["design"], f"model {m['name']!r} design")
        _require(len(set(names)) == len(names), "model names must be unique")
        _require(len(data) >= 1, "first-level analyses need response files in 'data'")
        if kind == "single":
            _require(len(data) == 1, "single-session mode takes exactly one response file")
            _positive(sessions, "scans", None, int, "sessions.scans")
        for m in models:
            _require(
                len(m["design"]) == len(data),
                f"model {m['name']!r} needs one design file per session "
                f"({len(data)} expected, {len(m['design'])} given)",
            )

    precision = raw.get("precision", "identity")
    if precision != "identity":
        precision = _file_list(precision, "precision")
        _require(
            len(precision) == len(data),
            "precision must be 'identity' or one file per session",
        )

    families = raw.get("families")
    if families is not None:
        _require(
            isinstance(families, dict) and families,
            "families must be a non-empty {name: [model names]} object",
        )
        for fam, members in families.items():
            _require(
                isinstance(members, list)
                and all(isinstance(m, str) for m in members),
                f"families entry {fam!r} must be a JSON list of model names, "
                f"got {members!r}",
            )
        known = set(tuple(m["name"] for m in models))
        mentioned = [name for members in families.values() for name in members]
        _require(
            sorted(mentioned) == sorted(known),
            "families must mention every model exactly once",
        )

    family_weights = raw.get("family_weights")
    if family_weights is not None:
        _require(families is not None, "family_weights requires families")
        _require(
            isinstance(family_weights, dict),
            f"family_weights must be a {{family: [weights]}} object, got "
            f"{family_weights!r}",
        )
        for fam, weights in family_weights.items():
            _require(fam in families, f"family_weights names unknown family {fam!r}")
            _weights(weights, len(families[fam]), f"family_weights entry {fam!r}", "member")

    model_prior = raw.get("model_prior")
    if model_prior is not None:
        model_prior = _weights(model_prior, len(models), "model_prior", "model")

    betas = raw.get("betas")
    if betas is not None:
        _require(
            isinstance(betas, dict) and "files" in betas,
            "betas needs a 'files' matrix of per-model, per-session estimates",
        )
        _require(
            isinstance(betas["files"], list) and len(betas["files"]) == len(models),
            "betas.files needs one row per model",
        )
        regressor = betas.get("regressor", "effect")
        _require(
            isinstance(regressor, str),
            f"betas.regressor must be a string, got {regressor!r}",
        )
        n_sessions = 1 if kind == "single" else len(data)
        for row in betas["files"]:
            _require(
                len(_file_list(row, "betas.files row")) == n_sessions,
                f"betas.files rows need one file per session ({n_sessions})",
            )

    for s in subjects:
        _require(
            isinstance(s, dict) and "name" in s and "cvlme" in s,
            "each subject needs 'name' and 'cvlme' entries",
        )
        _name(s, "subject")
        _require(
            isinstance(s["cvlme"], str),
            f"subject {s['name']!r} cvlme must be a file name or '@self', "
            f"got {s['cvlme']!r}",
        )
    if subjects:
        subject_names = [s["name"] for s in subjects]
        _require(
            len(set(subject_names)) == len(subject_names),
            "subject names must be unique",
        )

    return ModelSpaceConfig(
        models=models,
        data=data,
        precision=precision,
        sessions=sessions,
        families=families,
        family_weights=family_weights,
        model_prior=model_prior,
        betas=betas,
        subjects=subjects,
        alpha0=_positive(raw, "alpha0", 1.0),
        vb_tol=_positive(raw, "vb_tol", 1e-4),
        vb_max_iter=_positive(raw, "vb_max_iter", 200, int),
        chunk_voxels=_positive(raw, "chunk_voxels", 4096, int),
        base_dir=path.parent,
        raw=raw,
    )
