"""Matrix and configuration I/O.

All matrices travel as plain UTF-8 comma-separated files with an optional
single header row of column labels, recognised as a first row none of
whose cells reads as a number by ``float()``; values are written in
scientific notation with 17 significant digits so a write/read round trip
reproduces every double bit-for-bit. Analysis configurations are JSON
documents.

Files whose data cells all have the canonical form :func:`save_matrix`
writes, ``-?D.DDDDDDDDDDDDDDDDe[+-]DD[D]``, are read by an exact vectorised
decoder, 256 KiB of whole lines at a time: no ``"`` and no ``\r`` in the
file, ``\n`` after every line, one cell count. Each check is one operation
on a column of 32-byte windows around the cells' ``e``; the 16 fraction
digits are two uint64 words, decoded and checked by SWAR steps (eight
byte lanes per integer). M * 10**q, from the 17-digit integer M, is one
long double multiply or divide by an exact power of ten, |q| <= 27
(Clinger 1990), rounded once: its double is correct unless it lies
exactly halfway between two doubles, as its low significand bits show.
Such cells, cells with |q| > 27 and cells with three exponent digits are
read by ``float()``, so every value is bit-identical to ``float(cell)``;
a block where they are over 1,024 and over half its cells is declined.
The decoder is off where ``long double`` does not round to a 64-bit or
wider significand (Windows, macOS on arm64, ppc64's double-double). On a
2-vCPU Xeon VM it reads a 200 x 2,500 file of 11.5 MB in 35-45 ms,
against 135-190 ms for the reader below.

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

Writing sends the header row through :mod:`csv` and encodes the cells,
16,384 at a time, byte-identical to ``'%.16e' % v`` each, by the same
arithmetic run backwards (Steele & White 1990). A cell of
1e-11 <= |x| < 1e44 is d.ddd...e(q) with q = floor(log10 |x|), estimated
by ``log10`` and set right where it is one off, and the 17-digit
M = round(|x| * 10**(16 - q)). The product is one long double multiply
or divide by an exact power of ten, so it is within half its ulp, at most
2**-8 below 2**57, of the exact one, and rounding it half up gives the
exact M unless its fraction lies within 2**-7 of 1/2. M goes to ASCII by
integer division into four-digit groups and a table of their digits;
cells go into fixed 25-byte slots whose NUL padding is dropped before one
write per chunk. Cells within that window (1 in 64 of random values, and
every exact half, which ``%.16e`` rounds to even), non-finite cells,
cells out of range and every cell where the long double is too narrow
are formatted by ``'%.16e' % v``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bma import FamilyPartition, _prior_weights
from .crossval import SessionLayout, split_single_session
from .errors import ConfigError, DomainError, EvidencerError, LayoutError, ParseError

__all__ = [
    "LabeledMatrix",
    "ResultTable",
    "load_matrix",
    "save_matrix",
    "ModelSpaceConfig",
    "load_config",
]

RESULT_KINDS = (
    "cvLME", "cvAcc", "cvCom", "oosLME", "oosAcc", "oosCom",
    "LFE", "alpha", "expected_freq", "EP", "PP", "BMA",
)


@dataclass(frozen=True, eq=False)
class LabeledMatrix:
    """A 2-D float matrix with optional column labels; ``declined`` marks a
    file that :func:`load_matrix` read after the exact decoder declined it."""

    values: np.ndarray
    columns: tuple | None = None
    declined: bool = False

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
    ``float()``, or None when one does and the row is data."""
    for cell in filter(_NUMBER_START.match, cells):
        try:
            float(cell)
        except ValueError:
            continue
        return None
    return tuple(map(str.strip, cells))


# The exact reader of canonical cells. It needs a long double that rounds
# each operation to a significand of at least 64 bits: x87 extended (nmant
# 63) or IEEE binary128 (112), not the double-double of ppc64 (105).
_EXACT_LONGDOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
_CELL_BYTES = 22  # an unsigned canonical cell; a negative one has 23
_BLOCK_BYTES = 1 << 18
_PAD = 24  # zero bytes around each block, so every cell window lies inside
_FRAME = bytes(_PAD)
_MAX_EXACT_POWER = 27  # 10**27 = 2**27 * 5**27 with 5**27 < 2**64
# the general reader takes 75 ms on 250,000 cells, half float() (78 ms kept),
# and 0.57 ms on 1,024 float() cells (0.56 kept), so past both a block is declined
_REDO_SHARE, _REDO_FREE = 2, 1024  # float() cells: over one in two, over 1,024
_POWERS = np.cumprod(np.array([1] + [10] * _MAX_EXACT_POWER, dtype=np.longdouble))
# by exponent code: e for e+DD, 100 + e for e-DD; a cell is M * 10**q
_Q = np.array([e - 16 for e in range(100)] + [-e - 16 for e in range(100)])
_SCALE = _POWERS[[min(abs(q), _MAX_EXACT_POWER) for q in _Q.tolist()]]


def _halfway_bits(nmant: int) -> tuple | None:
    """The mask of the bits a long double of ``nmant`` fraction bits drops to
    round to a double, and their value at a halfway point; None for none."""
    dropped = nmant - 52
    if dropped <= 0:
        return None
    return np.uint64((1 << dropped) - 1), np.uint64(1 << (dropped - 1))


_HALFWAY = _halfway_bits(np.finfo(np.longdouble).nmant)


def _halfway(exact: np.ndarray) -> np.ndarray:
    """Whether each long double lies exactly halfway between two doubles."""
    at = 0 if sys.byteorder == "little" else exact.itemsize - 8  # low 64 bits
    low = np.ndarray(exact.shape, np.uint64, exact, at, (exact.itemsize,))
    mask, half = _HALFWAY
    return (low & mask) == half


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
_ZERO = np.uint8(ord("0"))


def _eight_digits(words: np.ndarray) -> np.ndarray | None:
    """The numbers of little-endian uint64 words of eight ASCII digits each,
    the first digit in the lowest byte; None if a byte is not a digit."""
    # C-ordered: numpy runs a strided view of two columns two items at a time
    words = np.subtract(words, _ZEROS, out=np.empty(words.shape, np.uint64))
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


def _scale_once(exact: np.ndarray, power: np.ndarray, up: np.ndarray) -> np.ndarray:
    """``exact * power`` where ``up`` and ``exact / power`` elsewhere, in
    place: one long double operation on an exact power of ten, so each
    result is the exact one rounded once."""
    if up.all():
        return np.multiply(exact, power, out=exact)
    if not up.any():
        return np.divide(exact, power, out=exact)
    np.multiply(exact, power, out=exact, where=up)
    np.divide(exact, power, out=exact, where=~up)
    return exact


def _decode_canonical(b: np.ndarray, start: int, width: int) -> np.ndarray | None:
    """The values of the whole lines ``b[start:-_PAD]`` (uint8) of ``width``
    canonical cells each, flat in row order and each equal to ``float(cell)``;
    None if a byte breaks the form or too many cells need ``float()``. ``b``
    has ``_PAD`` bytes before ``start`` and ends in ``_PAD`` zero bytes, so
    each cell has a 32-byte window from 24 bytes before its e: byte 5 is its
    "-" or the byte before it, 6 its leading digit, 7 the point, 8-23 the
    fraction, 24 the e, 25 the exponent's sign, 26-27 its digits, 28 the
    separator or a third digit and 29 the separator after a third digit."""
    stop = b.size - _PAD
    marks = np.flatnonzero(b[start:stop] == ord("e")) + start
    if marks.size == 0 or marks.size % width:
        return None
    window = np.ndarray((b.size - 31,), "V32", b, strides=(1,))[marks - 24]
    window = window.view(np.uint8).reshape(-1, 32)
    # a cell ends 4 bytes after its e, or 5 with a third exponent digit
    # there (any byte above "," is taken for one and checked below)
    wide = window[:, 28] > ord(",")
    seps = marks + 4
    seps += wide
    ends = np.where(wide, window[:, 29], window[:, 28]).reshape(-1, width)
    length = np.diff(seps, prepend=start - 1) - 1
    length -= wide  # as if the exponent had two digits
    negative = length == _CELL_BYTES + 1
    lead = window.view("<u2")[:, 3] ^ _HEAD  # the digit, if a point follows
    exp_sign, tens, ones = window[:, 25], window[:, 26] - _ZERO, window[:, 27] - _ZERO
    if (
        seps[-1] != stop - 1
        or (ends[:, -1] != ord("\n")).any()
        or (ends[:, :-1] != ord(",")).any()
        or not (negative | (length == _CELL_BYTES)).all()
        or (negative & (window[:, 5] != ord("-"))).any()
        or (wide & (window[:, 28] - _ZERO > 9)).any()
        or (lead > 9).any()
        or (np.maximum(tens, ones) > 9).any()
        or ((exp_sign != ord("+")) & (exp_sign != ord("-"))).any()
    ):
        return None
    fraction = _eight_digits(window.view("<u8")[:, 1:3].T)
    if fraction is None:
        return None
    mantissa = lead.astype(np.uint64) * _E16 + fraction[0] * _E8 + fraction[1]
    code = tens * np.uint8(10) + ones + (exp_sign == ord("-")) * np.uint8(100)
    code = code.astype(np.intp)  # an index of any other type costs a conversion
    q = _Q[code]
    exact = _scale_once(mantissa.astype(np.longdouble), _SCALE[code], q >= 0)
    values = exact.astype(np.float64)
    redo = np.flatnonzero(wide | (np.abs(q) > _MAX_EXACT_POWER) | _halfway(exact))
    if redo.size > max(values.size // _REDO_SHARE, _REDO_FREE):
        return None
    np.negative(values, out=values, where=negative)
    text, lasts = memoryview(b), seps[redo]
    firsts = lasts - length[redo] - wide[redo]
    values[redo] = [float(text[a:z]) for a, z in zip(firsts.tolist(), lasts.tolist())]
    return values


def _line_blocks(handle):
    """The file in blocks of whole lines framed by ``_FRAME``, read
    ``_BLOCK_BYTES`` at a time; bytes after the last newline come last."""
    parts = [_FRAME]
    while chunk := handle.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        yield b"".join([*parts, memoryview(chunk)[:cut], _FRAME])
        parts = [_FRAME, chunk[cut:]]
    if any(parts[1:]):
        yield b"".join([*parts, _FRAME])


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
                if block[-_PAD - 1] != ord("\n"):
                    return None
                start = _PAD
                if width is None:
                    first = block[_PAD : block.index(b"\n", _PAD)]
                    if b'"' in first or b"\r" in first:
                        return None
                    try:
                        text = first.decode("utf-8")
                    except UnicodeDecodeError:
                        return None
                    if _NOT_BLANK.search(text) is None:
                        return None  # the general reader names the blank row
                    cells = text.split(",")
                    width, columns = len(cells), _header(cells)
                    if columns is not None:
                        start += len(first) + 1
                if start == len(block) - _PAD:
                    continue
                flat = _decode_canonical(np.frombuffer(block, np.uint8), start, width)
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
    """The error for the first data record, in file order, that is blank,
    holds a bad cell or is ragged; the values come from :func:`numpy.loadtxt`."""
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
    a header. Trailing blank rows are ignored; a blank first row is an
    error, not an empty header. Blank or ragged rows, empty or non-numeric
    data cells, and files without data rows raise :class:`ParseError`
    naming the file, the line and, for a bad cell, its column. A file the
    platform's exact decoder declines comes back with ``declined`` set.
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
    if records[0].blank:
        raise ParseError(f"{path}, line 1: blank row inside the file")

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
    return LabeledMatrix(values=values, columns=columns, declined=_EXACT_LONGDOUBLE)


# The exact writer of ``%.16e`` cells. A cell of 1e-11 <= |x| < 1e44 is
# M * 10**(q - 16) with q = floor(log10 |x|) in [-11, 43] and the 17-digit
# M = round(|x| * 10**(16 - q)); the product is one long double operation
# on an exact power of ten, as in the reader.
_WRITE_CELLS = 1 << 14  # cells encoded at a time, so temporaries follow this
_MIN_Q, _MAX_Q = 16 - _MAX_EXACT_POWER, 16 + _MAX_EXACT_POWER
_M_LOW = np.longdouble(10**16)
# a product from 10**17 - 1/2 up would round to a carry, 10**17 (that of
# no double in range does); it is rescaled like an estimate of q one too
# low, so M always has 17 digits
_M_HIGH = np.longdouble(10**17) - np.longdouble(0.5)
# a product counted in ticks of 1/128 fits uint64: 128 * 10**17 < 2**64
_TICKS_PER_UNIT = np.longdouble(128)
_TICK_BITS = np.uint64(7)
_TICK_MASK = np.uint64(127)
_HALF_TICK = np.uint64(64)  # 1/2
_BELOW_HALF_TICK = np.uint64(63)
_E4 = np.uint32(10**4)
_TEXT_BYTES = 24  # "-D.DDDDDDDDDDDDDDDDe-DDD", the longest "%.16e" of a double
# byte layout of a cell: sign or NUL, "D.", 16 digits, "e+DD", NUL, separator;
# a cell that goes through "%.16e" takes the bytes before the separator
_SLOT = np.dtype(
    {
        "names": ["sign", "head", "fraction", "exponent", "sep"],
        "formats": ["u1", "<u2", ("<u4", 4), "<u4", "u1"],
        "offsets": [0, 1, 3, 19, _TEXT_BYTES],
        "itemsize": _TEXT_BYTES + 1,
    }
)
_HEAD = np.uint16(ord("0") + (ord(".") << 8))  # "0." for a leading digit 0
# "DDDD" for 0..9999 as little-endian uint32 words, the first digit lowest;
# built in uint8, as int64 temporaries would leave 1.2 MB more resident
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = (
    np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1)
    .reshape(10000, 4)
    .view("<u4")
    .ravel()
)
# "e-11" ... "e+43" as little-endian uint32 words, by q - _MIN_Q
_EXPONENTS = np.frombuffer(
    "".join(f"e{q:+03d}" for q in range(_MIN_Q, _MAX_Q + 1)).encode(), "<u4"
)


def _scaled(magnitude: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``magnitude * 10**(16 - q)`` as long doubles, each rounded once."""
    shift = 16 - q
    return _scale_once(
        magnitude.astype(np.longdouble), _POWERS[np.abs(shift)], shift >= 0
    )


def _encode_cells(x: np.ndarray) -> np.ndarray:
    """The cells ``'%.16e' % v`` of the doubles ``x`` as NUL-padded
    ``_SLOT`` records, their separators left unset.

    q is estimated by ``log10`` and set right where the product falls
    outside [10**16, 10**17 - 1/2). The long double product is within half its
    ulp, at most 2**-8, of the exact |x| * 10**(16 - q), so rounding it to
    the integer M gives the exact rounding wherever its fraction is at
    least 2**-7 away from 1/2. A cell within that window (an exact half
    among them, which ``%.16e`` rounds to even), and any cell that is not
    finite, not zero and not in range, goes through ``'%.16e' % v``; so
    does every cell where the long double is too narrow.
    """
    slots = np.zeros(x.size, _SLOT)
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-11) & (magnitude < 1e44) & _EXACT_LONGDOUBLE
    # a stand-in of 1 for the other cells keeps the arithmetic quiet
    magnitude = np.where(fast, magnitude, 1.0)
    q = np.floor(np.log10(magnitude)).astype(np.intp)  # may be one off
    np.clip(q, _MIN_Q, _MAX_Q, out=q)
    scaled = _scaled(magnitude, q)
    fix = np.flatnonzero((scaled < _M_LOW) | (scaled >= _M_HIGH))
    if fix.size:
        step = np.where(scaled[fix] < _M_LOW, -1, 1)
        q[fix] = np.clip(q[fix] + step, _MIN_Q, _MAX_Q)
        redone = _scaled(magnitude[fix], q[fix])
        out = (redone < _M_LOW) | (redone >= _M_HIGH)
        fast[fix[out]] = False
        redone[out] = _M_LOW  # keeps the cast below in range
        scaled[fix] = redone
    # floor(128 * scaled): M is scaled rounded half up, and the low 7 bits
    # are 63 or 64 for a fraction in [63/128, 65/128), within 2**-7 of 1/2
    ticks = (scaled * _TICKS_PER_UNIT).astype(np.uint64)
    mantissa = (ticks + _HALF_TICK) >> _TICK_BITS
    ticks &= _TICK_MASK
    fast &= (ticks != _BELOW_HALF_TICK) & (ticks != _HALF_TICK)
    zero = x == 0
    fast |= zero
    mantissa[zero] = 0  # their stand-in gave q = 0

    lead = mantissa // _E16
    mantissa -= lead * _E16
    high = mantissa // _E8
    low = mantissa - high * _E8
    slots["sign"] = np.signbit(x) * np.uint8(ord("-"))
    slots["head"] = lead.astype(np.uint16) + _HEAD
    fraction = slots["fraction"]
    for column, eight in enumerate((high, low)):
        quads = np.divmod(eight.astype(np.uint32), _E4)
        fraction[:, 2 * column] = _QUADS[quads[0]]
        fraction[:, 2 * column + 1] = _QUADS[quads[1]]
    slots["exponent"] = _EXPONENTS[q - _MIN_Q]

    slow = np.flatnonzero(~fast)
    text = np.array(["%.16e" % v for v in x[slow].tolist()], dtype=f"S{_TEXT_BYTES}")
    cells = slots.view(np.uint8).reshape(x.size, _SLOT.itemsize)
    cells[slow, :_TEXT_BYTES] = text.view(np.uint8).reshape(-1, _TEXT_BYTES)
    return slots


@functools.lru_cache(maxsize=4)
def _header_row(columns: tuple) -> bytes:
    """The header line :mod:`csv` writes for ``columns``, built once for
    the result files of a run, which share their ``v1..vN`` labels."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(columns)
    return line.getvalue().encode("utf-8")


@functools.lru_cache(maxsize=4)
def _voxel_labels(count: int) -> tuple:
    return tuple(f"v{i + 1}" for i in range(count))


def save_matrix(path, values: np.ndarray, columns=None) -> None:
    """Write a matrix as CSV: optional header, 17-significant-digit values.

    Each cell is byte-identical to ``'%.16e' % v``. A 1-D array is one
    row. An array of more dimensions, or a label count that is not the
    column count, raises :class:`ParseError` before the file is opened; a
    file that cannot be written raises :class:`EvidencerError` naming it.
    """
    values = np.asarray(values, dtype=float)
    path = Path(path)
    if values.ndim > 2:
        raise ParseError(f"{path}: a matrix has 1 or 2 dimensions, got {values.ndim}")
    values = np.atleast_2d(values)
    width = values.shape[1]
    if columns is not None and len(columns) != width:
        raise ParseError(f"{path}: one column label per column required")
    flat = values.ravel()
    try:
        with path.open("wb") as handle:
            if columns is not None:
                handle.write(_header_row(tuple(columns)))
            for start in range(0, flat.size, _WRITE_CELLS):
                slots = _encode_cells(flat[start : start + _WRITE_CELLS])
                slots["sep"] = ord(",")
                slots["sep"][width - 1 - start % width :: width] = ord("\n")
                handle.write(slots.tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise EvidencerError(f"cannot write {path}: {exc.strerror or exc}") from None


@dataclass(frozen=True, eq=False)
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
                f"unknown result kind {self.kind!r}; expected one of {RESULT_KINDS}"
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
        object.__setattr__(self, "row_labels", tuple(map(str, self.row_labels)))

    @property
    def n_voxels(self) -> int:
        return self.values.shape[1]

    def save(self, path) -> None:
        save_matrix(path, self.values, columns=_voxel_labels(self.n_voxels))


@dataclass(frozen=True)
class ModelSpaceConfig:
    """Parsed analysis configuration, in the form the stages use.

    First-level fields describe one subject's model space: named models
    with per-session design and response files, ``precision`` files per
    session (none for identity), and ``layout``, the single-session split
    or ``None`` for one fold per session. Optional blocks configure
    ``families`` (a :class:`~evidencer.bma.FamilyPartition`), model priors,
    the estimate stack for averaging (``regressor`` filled in), and the
    group of subjects for population-level selection.
    """

    models: tuple = ()
    data: tuple = ()
    precision: tuple = ()
    layout: SessionLayout | None = None
    families: FamilyPartition | None = None
    model_prior: tuple | None = None
    betas: dict | None = None
    subjects: tuple = ()
    alpha0: float = 1.0
    vb_tol: float = 1e-4
    vb_max_iter: int = 200
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
    number no smaller than the smallest normal double for ``float``, a JSON
    integer below 2**63 for ``int``; anything else, booleans and numeric
    strings included, raises :class:`ConfigError` naming the key by ``path``
    (default ``key``)."""
    value = raw.get(key, default)
    what = "integer below 2**63" if kind is int else f"number >= {sys.float_info.min!r}"
    _require(
        _is_real(value)
        and (kind is float or isinstance(value, int) and value < 2**63)
        and value >= sys.float_info.min,
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
    kind = sessions.get("kind")
    _require(kind in ("multi", "single"), "sessions.kind must be 'multi' or 'single'")

    layout = None
    if models:
        names = []
        for m in models:
            _require(
                isinstance(m, dict) and "name" in m and "design" in m,
                "each model needs 'name' and 'design' entries",
            )
            names.append(_name(m, "model"))
            design = _file_list(m["design"], f"model {m['name']!r} design")
            _require(
                len(design) == len(data),
                f"model {m['name']!r} needs one design file per session "
                f"({len(data)} expected, {len(design)} given)",
            )
        _require(len(set(names)) == len(names), "model names must be unique")
        if kind == "multi":
            _require(
                len(data) >= 2,
                f"data: 'multi' sessions need 2 or more response files, got {len(data)}"
                '; for one session use "sessions": {"kind": "single", "scans": n}',
            )
        else:
            _require(len(data) == 1, "single-session mode takes exactly one response file")
            scans = _positive(sessions, "scans", None, int, "sessions.scans")
            try:
                layout = split_single_session(scans)
            except LayoutError as exc:
                raise ConfigError(f"sessions.scans: {exc}") from None

    precision = ()
    if raw.get("precision", "identity") != "identity":
        precision = _file_list(raw["precision"], "precision")
        _require(
            len(precision) == len(data),
            "precision must be 'identity' or one file per session",
        )

    families = raw.get("families")
    weights = raw.get("family_weights")
    _require(families is not None or weights is None, "family_weights requires families")
    if families is not None:
        _require(
            isinstance(families, dict) and families,
            "families must be a non-empty {name: [model names]} object",
        )
        index = {m["name"]: i for i, m in enumerate(models)}
        for fam, members in families.items():
            _require(
                isinstance(members, list)
                and all(isinstance(m, str) and m in index for m in members),
                f"families entry {fam!r} must be a JSON list of model names, "
                f"got {members!r}",
            )
        _require(
            weights is None or isinstance(weights, dict),
            f"family_weights must be a {{family: [weights]}} object, got {weights!r}",
        )
        for fam, w in (weights or {}).items():
            _require(fam in families, f"family_weights names unknown family {fam!r}")
            _weights(w, len(families[fam]), f"family_weights entry {fam!r}", "member")
        indices = {fam: [index[m] for m in members] for fam, members in families.items()}
        try:  # the partition rule: no family empty, every model in exactly one
            families = FamilyPartition.from_mapping(len(models), indices, weights)
        except DomainError as exc:
            raise ConfigError(f"families: {exc}") from None

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
        betas = {**betas, "regressor": betas.get("regressor", "effect")}
        _require(
            isinstance(betas["regressor"], str),
            f"betas.regressor must be a string, got {betas['regressor']!r}",
        )
        for row in betas["files"]:
            _require(
                len(_file_list(row, "betas.files row")) == len(data),
                f"betas.files rows need one file per session ({len(data)})",
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
        _require(
            len(subjects) >= 2,
            f"subjects: a group analysis needs at least two, got {len(subjects)}",
        )
        subject_names = [s["name"] for s in subjects]
        _require(
            len(set(subject_names)) == len(subject_names),
            "subject names must be unique",
        )

    return ModelSpaceConfig(
        models=models,
        data=data,
        precision=precision,
        layout=layout,
        families=families,
        model_prior=model_prior,
        betas=betas,
        subjects=subjects,
        alpha0=_positive(raw, "alpha0", 1.0),
        vb_tol=_positive(raw, "vb_tol", 1e-4),
        vb_max_iter=_positive(raw, "vb_max_iter", 200, int),
        base_dir=path.parent,
        raw=raw,
    )
