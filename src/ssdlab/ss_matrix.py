"""Semiseparable-matrix primitives.

What the module holds:

- the codecs: ``array_to_csv``/``array_from_csv``, the one JSON encoder
  ``json_dumps`` and decoder ``json_loads``, the record reader ``_read_json_record``
  (arrays of numbers a piece at a time, ``json_loads`` for any other text), and
  the ``json_record`` decorator; CSV rows and JSON arrays of numbers are both
  read by ``_read_rows``;
- the input rules every module shares, one each: ``check_sizes`` for a size
  (at least 1), ``_check_finite`` for entries, ``_float_array`` for a
  value read as floats, and ``_freeze_fields`` for a record's array fields
  (a built kernel, or a matrix read from canonical CSV, is handed over by
  ``LowerTriangularMatrix._trusted``),
  and ``_check_norm_finite`` for a matrix the theory layer decides on;
- the record ``LowerTriangularMatrix``;
- the kernel panel walk, ``_segment_product_panels``, the row-panel stream of a
  segment-product kernel, its diagonal tiles made a batch at a time by
  ``_diagonal_tiles``, and the two readers of any record's panel stream:
  ``_assemble`` builds the dense kernel and ``_apply`` multiplies it into a
  sequence one panel at a time;
- the block sweep, ``_block_sweep``, one ``SweepStep`` per lower-left block,
  its rank counted by ``rank_of_singular_values``, which ``semiseparable_rank``
  reads;
- the span fits, ``_thin_fits`` and ``_span_fits``, behind new-column
  detection (``new_columns``, ``_new_column_sweep``) and diagonal-block
  partitioning (``diagonal_block_partition``);
- small helpers the other modules share: ``rel_err`` and ``blocks_from_cuts``.

All indices in this package are 0-based.
"""

from __future__ import annotations

import itertools
import json
import re
import reprlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError, UnstableScalingError

#: Relative tolerance shared by every rank / span decision in the package.
DEFAULT_EPS = 1e-9

#: Share of a rank or span threshold that content dropped by ``_block_sweep`` may
#: reach before the sweep refactors its carry whole.
_SWEEP_DROP_SHARE = 1e-2

#: Machine epsilon of float64, the unit of every rounding-level cut.
_MACHINE_EPS = np.finfo(float).eps

#: Rows of the kernel builder's panels, of the upper-triangle check's bands and of every
#: other row panel (the block partition's, the column norms'), and sweep steps per stacked
#: span-fit solve.
_TILE = 32

#: Characters of CSV or JSON text parsed at once: a Python loop runs per piece, not per row,
#: and no list of every row of a large file is held.
_PIECE_CHARS = 1 << 16

#: Diagonal tiles the kernel builder makes in one pass.
_TILE_BATCH = 8

#: Smallest normal float64: the kernel builder carries any weight below it as zero.
_TINY = np.finfo(float).tiny

#: The magnitudes, besides 0, that orjson writes as ``repr`` does: 1e-05 is spelled
#: ``0.00001`` and 1e16 ``1e16`` by orjson, ``1e-05`` and ``1e+16`` by ``repr``.
_REPR_RANGE = (1e-4, 1e16)

#: A "-0" that no fraction, exponent or digit follows. JSON reads the integer -0 as 0, so
#: +0.0, where ``np.loadtxt`` keeps the sign. It also matches the "-0" ending an exponent
#: (``1e-0``), which only sends that text to ``loadtxt``.
_INTEGER_NEGATIVE_ZERO = re.compile(r"-0(?![.eE\d])")

#: Characters of no CSV number, besides the literals' letters that ``_parse_rows`` refuses.
#: Text free of them gives JSON rows of numbers only: no string, object or nested array, no
#: bracket that would make one line two rows, and no ``\r``, a line break JSON reads as a space.
_NOT_NUMBERS = '"[]{\r'


def _safe_runs(a: np.ndarray) -> list[tuple[int, int, bool]]:
    """``(lo, hi, safe)`` for each run of ``a``'s rows along axis 0 that are all safe or all not.

    A row is safe when every entry is 0 or has ``_REPR_RANGE[0] <= |v| <
    _REPR_RANGE[1]``: orjson writes such a float as ``repr`` does. NaN and
    the infinities are never safe. The choice reads magnitudes only, never text.
    """
    low, high = _REPR_RANGE
    mags = np.abs(a)
    safe = ((mags == 0) | ((mags >= low) & (mags < high))).all(axis=tuple(range(1, a.ndim)))
    bounds = [0, *(np.flatnonzero(safe[1:] != safe[:-1]) + 1).tolist(), len(a)]
    return [(lo, hi, bool(safe[lo])) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _orjson_rows(rows: np.ndarray) -> str:
    """orjson's compact text of a float64 array, ``[[1.0,2.0],[3.0,4.0]]`` for two rows."""
    import orjson  # imported here: it loads uuid and zoneinfo, which most commands never need
    return orjson.dumps(np.ascontiguousarray(rows), option=orjson.OPT_SERIALIZE_NUMPY).decode()


def array_to_csv(x: np.ndarray) -> str:
    """One comma-separated line per row of a 2-D float array, each entry spelled as ``repr``.

    Runs of safe rows (``_safe_runs``) are written by orjson; any other row
    joins the ``repr`` of its entries. Each piece carries its own newline, so
    the pieces and the text are the only copies held at once.
    """
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    pieces = []
    for lo, hi, safe in _safe_runs(rows):
        if safe:
            pieces.append(_orjson_rows(rows[lo:hi])[2:-2].replace("],[", "\n") + "\n")
        else:
            pieces.extend(",".join(repr(float(v)) for v in row) + "\n" for row in rows[lo:hi])
    return "".join(pieces) or "\n"  # an array of no rows is one empty line, as it always was


def array_from_csv(text: str) -> np.ndarray:
    """Inverse of ``array_to_csv``: orjson reads the numbers, and ``np.loadtxt`` any text it refuses.

    Whitespace-only lines are skipped. orjson reads the lines as JSON rows
    (``_read_rows``), to the same bits as ``loadtxt`` and in a fraction of
    its time. Text orjson refuses (``+1``, ``1.``, ``.5``, ``01``, ``nan``,
    ``inf``, ``1e400``, an integer ``-0``, a ragged row, malformed text), and
    text with a blank line between rows or any ``\r``, is read by
    ``np.loadtxt`` as a whole, so it is read, or refused with ``loadtxt``'s
    own message, as before. A ragged row, an empty field, a comment, a quote
    or an underscore in a number raises ``ValueError``. Text with no lines
    gives a (0, 0) array.
    """
    if not text or text.isspace():  # isspace stops at the first character that is not a space
        return np.zeros((0, 0))
    if not any(char in text for char in _NOT_NUMBERS):
        out = _read_rows(text, 0, _rows_end(text), "\n")
        if out is not None:
            return out
    lines = [line for line in text.splitlines() if line.strip()]
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _rows_end(text: str) -> int:
    """Where the rows of CSV text end: before the spaces, tabs and newlines that close it."""
    stop = len(text)
    while stop and text[stop - 1] in " \t\n":
        stop -= 1
    return stop


def _pieces(text: str, sep: str, start: int = 0, stop: int | None = None):
    """``text[start:stop]`` cut at ``sep`` a piece at a time: each piece is the next
    ``_PIECE_CHARS`` characters or more, up to the next ``sep``, which no piece keeps."""
    stop = len(text) if stop is None else stop
    while True:
        end = text.find(sep, start + _PIECE_CHARS, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        if end == stop:
            return
        start = end + len(sep)


def _parse_rows(payload: str) -> tuple[np.ndarray, list[int]] | None:
    """The numbers of the rows ``payload`` joins by ``],[`` (or ``], [``), read by one orjson
    parse to ``np.loadtxt``'s bits, in order, and each row's count of them; None where orjson
    refuses a row, a row holds an array or a literal, a number stands between rows, or a
    number is an integer ``-0``.

    The caller has checked that the payload holds no string or object (no
    ``"{``), so each row holds numbers and literals, or arrays where the
    payload has brackets other than its row separators. JSON reads the
    integer ``-0`` as +0.0, where ``loadtxt`` keeps the sign. It always
    reads as a zero, so the payload is searched for one only when a number
    read is zero.
    """
    import orjson  # imported here: it loads uuid and zoneinfo, which most commands never need
    if any(char in payload for char in "tfn"):
        return None
    try:
        rows = orjson.loads("[[" + payload + "]]")
        values = np.fromiter(itertools.chain.from_iterable(rows), float)
    except orjson.JSONDecodeError:
        return None
    except ValueError:  # an array inside a row: numpy sets no element to a sequence
        return None
    except TypeError:  # a number between rows, as in ``[1.0], 2.0, [3.0]``: it has no items
        return None
    if not values.all() and _INTEGER_NEGATIVE_ZERO.search(payload):
        return None
    return values, [len(row) for row in rows]


def _read_rows(text: str, start: int, stop: int, sep: str) -> np.ndarray | None:
    """The rows of numbers that ``sep`` separates in ``text[start:stop]``, as one float array;
    None where ``_parse_rows`` refuses a piece, or the rows are not all the first row's width
    or not one per separator and one more. Rows of that width too many for the text's
    characters give None before the array is made.

    The text is cut at ``sep`` into ``_PIECE_CHARS`` pieces (``_pieces``),
    each read by one ``_parse_rows`` call into one array sized by the count
    of separators, so the Python floats of one piece are held at a time. A
    piece joined by ``_JSON_ROWS`` is parsed as it is; any other ``sep``
    (a CSV line's ``"\n"``, a 1-D JSON array's ``", "``) is rewritten as a
    row separator first.
    """
    rows = text.count(sep, start, stop) + 1
    out, row = None, 0
    for piece in _pieces(text, sep, start, stop):
        panel = _parse_rows(piece if sep == _JSON_ROWS else piece.replace(sep, "],["))
        if panel is None:
            return None
        values, widths = panel
        if out is None:
            if rows * widths[0] > stop - start + 1:  # too few characters for that many numbers
                return None
            out = np.empty((rows, widths[0]))
        count, width = len(widths), out.shape[1]
        if widths != [width] * count or row + count > rows:
            return None
        out[row : row + count] = values.reshape(count, width)
        row += count
    return out if row == rows else None


def _lower_triangle_by_orjson(text: str) -> np.ndarray | None:
    """The square matrix of ``text``, where every line's fields right of the diagonal are
    spelled ``0.0`` and all it reads is finite; None for any other text.

    The first line's fields count the rows. Each line's fields right of
    the diagonal are checked as text and never parsed: the line must end in
    exactly one ``,0.0`` per column right of the diagonal, which is how
    ``array_to_csv`` and ``repr`` write +0.0. The rest of each line, its
    fields up to the diagonal, are read by ``_parse_rows`` a ``_pieces``
    piece at a time into the lower triangle of a zero matrix. A blank line
    between rows gives None; trailing ones are not read.
    """
    if any(char in text for char in _NOT_NUMBERS):
        return None
    out, lo = None, 0
    for piece in _pieces(text, "\n", 0, _rows_end(text)):
        lines = piece.split("\n")
        if out is None:
            size = lines[0].count(",") + 1
            if size * size > len(text):  # too few characters for that many rows
                return None
            out = np.zeros((size, size))
            zeros = ",0.0" * (size - 1)
        hi = lo + len(lines)
        if hi > size:
            return None
        lower = []
        for row, line in enumerate(lines, lo):
            upper = 4 * (size - 1 - row)  # the characters of the row's ",0.0" fields
            if len(line) <= upper or not line.endswith(zeros[4 * row :]):
                return None
            lower.append(line[: len(line) - upper])
        panel = _parse_rows("],[".join(lower))
        if panel is None or panel[1] != list(range(lo + 1, hi + 1)):  # row r has r + 1 fields
            return None
        if not np.isfinite(panel[0]).all():  # orjson reads none, but the matrix is trusted
            return None
        out[lo:hi, :hi][np.tri(hi - lo, hi, lo, dtype=bool)] = panel[0]
        lo = hi
    return out if lo == size else None


class _Handover:
    """A float64 array that the JSON record reader made and holds no other handle on:
    ``_float_array`` takes it as it is, where it copies any other value."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


#: A key of a record's JSON text and the ``": "`` after it, as ``json.dumps`` writes them.
_JSON_KEY = re.compile(r'"([A-Za-z_][A-Za-z0-9_]*)": ')

#: The digits of a JSON integer; a scalar spelled any other way stops the match early.
_JSON_INTEGER = re.compile(r"-?[0-9]+")

#: What may follow a JSON text's closing brace: JSON whitespace, as both JSON readers allow.
_JSON_END = re.compile(r"[ \t\n\r]*\Z")

#: The separator of a 2-D array's rows in ``json.dumps``'s text.
_JSON_ROWS = "], ["


def _read_json_record(text: str, integers: tuple[str, ...] = ()):
    """``json_loads(text)``, read a piece at a time (``_json_object``) where the text is spelled
    as ``json_dumps`` spells a record, and whole by ``json_loads`` where it is not.

    The two routes give the same values, bit for bit, except that the piece
    route hands each array over as a ``_Handover`` float64 array, not a list.
    A key of ``integers`` holding anything but an integer sends the text to
    ``json_loads``, so a message that quotes its value quotes what
    ``json_loads`` read.
    """
    obj = _json_object(text, integers)
    return json_loads(text) if obj is None else obj


def _json_object(text: str, integers: tuple[str, ...]) -> dict | None:
    """The flat object of ``text`` spelled ``{"T": 8, "rows": [[1.0, 2.0], [3.0, 4.0]]}``, as
    ``json_dumps`` and ``json.dumps`` write a record; None for text spelled any other way.

    The text opens with the brace, separates its parts by ``", "`` and
    ``": "`` alone, holds no key twice, and ends at its closing brace or in
    JSON whitespace after it. Each value is an integer, read by orjson as
    ``json_loads`` reads it (so one beyond 64 bits is a float), or an array
    of numbers (``_json_array``); a key of ``integers`` holds an integer.
    """
    import orjson  # imported here: it loads uuid and zoneinfo, which most commands never need
    if not isinstance(text, str) or not text.startswith("{"):  # bytes go to json_loads whole
        return None
    obj, pos = {}, 1
    while True:
        key = _JSON_KEY.match(text, pos)
        if key is None or key[1] in obj:
            return None
        pos = key.end()
        if text.startswith("[", pos) and key[1] not in integers:
            read = _json_array(text, pos)
            if read is None:
                return None
            pos, obj[key[1]] = read
        else:
            number = _JSON_INTEGER.match(text, pos)
            if number is None:
                return None
            try:
                obj[key[1]] = orjson.loads(number[0])
            except orjson.JSONDecodeError:  # a leading zero
                return None
            pos = number.end()
        if text.startswith("}", pos):
            return obj if _JSON_END.match(text, pos + 1) else None
        if not text.startswith(", ", pos):
            return None
        pos += 2


def _json_array(text: str, start: int) -> tuple[int, _Handover] | None:
    """Where the array of numbers that opens at ``text[start]`` ends, and its values; None
    unless it is spelled ``[1.0, 2.0]`` or ``[[1.0, 2.0], [3.0, 4.0]]``.

    The array's text holds no string, object or literal (no ``"{tfn``). A
    1-D array's numbers are separated by ``", "`` and a 2-D array's rows by
    ``_JSON_ROWS``, exactly, and ``_read_rows`` reads it at those
    separators, a 1-D array as a column one number wide. Its closing
    brackets are found without a copy of the array's text. JSON reads an
    integer ``-0`` as +0.0 on either route, so an array holding one, which
    ``_parse_rows`` refuses, reads alike whole.
    """
    flat = not text.startswith("[[", start)
    depth = 1 if flat else 2
    lo = start + depth
    # The array ends before the next key's quote, if any. Its closing brackets are searched
    # back from there, a few characters, where a search on from its start reads every row.
    after = text.find('"', lo)
    hi = text.rfind("]" * depth, lo, len(text) if after < 0 else after)
    if hi < 0 or text.find("{", lo, hi) >= 0:
        return None
    out = _read_rows(text, lo, hi, ", " if flat else _JSON_ROWS)
    if out is None or (flat and out.shape[1] != 1):
        return None
    return hi + depth, _Handover(out.reshape(-1) if flat else out)


def json_loads(text: str):
    """The one JSON decoder: ``orjson.loads``, and ``json.loads`` for any text orjson refuses.

    orjson reads standard JSON to the same values as ``json.loads``, floats
    bit for bit, in a fraction of the time. Text it refuses (the ``NaN`` and
    ``Infinity`` literals, a number that overflows a double, malformed text)
    goes to ``json.loads``, so it is read, or refused with ``json``'s own
    message, as before. One reading differs: an integer beyond the 64-bit
    range comes back as a float. Text nested too deeply for ``json.loads``
    raises ``ValueError``.
    """
    import orjson  # imported here: it loads uuid and zoneinfo, which most commands never need
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the JSON text is nested too deeply to read") from None


def json_dumps(value) -> str:
    """The one JSON encoder: ``json.dumps(value)``'s text, float arrays written mostly by orjson.

    Dicts with str keys are walked, and a float64 array of any rank, in
    one or at the top, is written as ``json.dumps`` writes its ``tolist()``
    (``_float_array_json``). Every other value goes to ``json.dumps``.
    """
    return _json_text(value)


def _json_text(value) -> str:
    """``json_dumps``'s walk over nested dicts, so one text is one call of ``json_dumps``."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return _float_array_json(value)
    if isinstance(value, dict) and all(type(key) is str for key in value):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


def _float_array_json(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())``'s text for a float64 array of any rank.

    Each run of safe rows (``_safe_runs``) is written by one orjson call,
    its commas spaced as ``json.dumps`` spaces them, and each run of other
    rows by one ``json.dumps`` call, so ``1e-05``, ``1e+16``, ``NaN`` and
    ``Infinity`` keep their spelling.
    """
    if a.ndim == 0:
        return json.dumps(a.tolist())
    parts = [
        _orjson_rows(a[lo:hi])[1:-1].replace(",", ", ") if safe
        else json.dumps(a[lo:hi].tolist())[1:-1]
        for lo, hi, safe in _safe_runs(a)
    ]
    return "[" + ", ".join(parts) + "]"


def json_record(keys: dict[str, str], declared: tuple[str, ...] = ()):
    """Class decorator: a JSON codec declared as one table of file keys.

    ``keys`` maps each JSON key, in file order, to the attribute it holds.
    The class gains ``json_fields`` (each key and its value, arrays as they
    are, for ``json_dumps``), ``to_json`` and a ``from_json`` classmethod in
    its own namespace. ``from_json`` reads the text by ``_read_json_record``,
    so a record's arrays of numbers are read a piece at a time, and passes
    the keys not in ``declared`` to the constructor, so every construction
    check still runs; it raises ``ValueError`` naming each key the object
    lacks or each ``declared`` key (a size the file states) that is not a
    JSON integer, and ``ShapeMismatchError`` when a declared size disagrees
    with the rebuilt record.
    """

    def json_fields(self) -> dict:
        return {key: getattr(self, attr) for key, attr in keys.items()}

    def to_json(self) -> str:
        return json_dumps(self.json_fields())

    def from_json(cls, text: str):
        obj = _read_json_record(text, declared)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object for {cls.__name__}")
        missing = ", ".join(repr(key) for key in keys if key not in obj)
        if missing:
            raise ValueError(f"the {cls.__name__} JSON object lacks {missing}")
        for key in declared:
            if type(obj[key]) is not int:  # isinstance would let a bool through
                # reprlib: a deeply nested list has no full repr.
                raise ValueError(f"declared {key} must be an integer, got {reprlib.repr(obj[key])}")
        record = cls(**{attr: obj[key] for key, attr in keys.items() if key not in declared})
        for key in declared:
            got = getattr(record, keys[key])
            if got != obj[key]:
                raise ShapeMismatchError(
                    f"declared {key}={obj[key]!r} does not match the data's {got}"
                )
        return record

    def decorate(cls):
        cls.json_fields, cls.to_json = json_fields, to_json
        cls.from_json = classmethod(from_json)
        return cls

    return decorate


def check_sizes(**sizes: int) -> None:
    """The one size rule: refuse any named size (a step, mode, channel or width count) below 1."""
    small = ", ".join(f"{name}={size}" for name, size in sizes.items() if size < 1)
    if small:
        raise ShapeMismatchError(f"sizes must be at least 1, got {small}")


def _check_finite(arr: np.ndarray, name: str) -> None:
    """The one finiteness rule for entries, built or read; the message calls them ``name``."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")


def _check_norm_finite(m: LowerTriangularMatrix) -> None:
    """Refuse, with ``UnstableScalingError``, a matrix whose Frobenius norm overflows.

    The theory layer's thresholds, gates and residuals are Frobenius norms.
    Once the entries' squares sum past the largest double (entries of about
    1e154 and up), they read ``inf`` or ``nan`` and decide nothing.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m.values))
    if not np.isfinite(norm):
        raise UnstableScalingError(
            f"the matrix's Frobenius norm is {norm} (largest entry magnitude "
            f"{float(np.abs(m.values).max()):.3e}): its squared entries sum past the largest double"
        )


def _float_array(value, name: str) -> np.ndarray:
    """A float copy of ``value``, or the array of a ``_Handover`` as it is; a value that is not
    an array of numbers (a JSON object, say) raises ``ValueError`` naming ``name``."""
    if isinstance(value, _Handover):
        return value.array
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _freeze_fields(record, **ndims: int) -> None:
    """The one rule for a record's array fields read from outside: check and store each read-only.

    Each named field of ``record`` is copied as floats (``_float_array``),
    so no caller keeps a handle on the stored array; an array the JSON
    record reader made (a ``_Handover``) has no other handle and is stored
    without a copy. The stored array must have its
    ``ndim`` axes, none of them empty, and finite entries.
    """
    for name, ndim in ndims.items():
        arr = _float_array(getattr(record, name), name)
        if arr.ndim != ndim:
            raise ShapeMismatchError(f"{name} must be {ndim}-D, got shape {arr.shape}")
        check_sizes(**{f"{name}.shape[{axis}]": size for axis, size in enumerate(arr.shape)})
        _check_finite(arr, name)
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


@json_record({"T": "T", "rows": "values"}, declared=("T",))
@dataclass(frozen=True)
class LowerTriangularMatrix:
    """Dense T x T matrix whose strictly-upper entries are exactly zero.

    The zero pattern is validated on construction and the storage is
    frozen, so instances are safe to share across threads. Its rows stream
    as every record's kernel does, through ``_panels()``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, values=2)
        arr = self.values
        if arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {arr.shape}")
        for r in range(0, arr.shape[0], _TILE):
            end = r + _TILE
            if np.triu(arr[r:end, r:end], 1).any() or arr[r:end, end:].any():
                raise ValueError("entries above the main diagonal must be exactly zero")

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "LowerTriangularMatrix":
        """No checks, no copy: the one handover for a matrix its maker shares with no one.

        Its two makers write nothing above the diagonal and check finiteness:
        ``_assemble`` through the panel streams it reads, which check each
        panel, and the CSV reader ``_lower_triangle_by_orjson``, which
        checks each panel it parses. The constructor's copy and two scans
        would re-prove both.
        """
        arr.flags.writeable = False
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", arr)
        return matrix

    @property
    def T(self) -> int:
        return self.values.shape[0]

    def _panels(self):
        """Row panels (lo, hi, values[lo:hi, :hi]), ``_TILE`` rows each, as read-only views."""
        for lo in range(0, self.T, _TILE):
            yield lo, min(lo + _TILE, self.T), self.values[lo : lo + _TILE, : lo + _TILE]

    def to_csv(self) -> str:
        return array_to_csv(self.values)

    @classmethod
    def from_csv(cls, text: str) -> "LowerTriangularMatrix":
        """The matrix of CSV text: read by ``_lower_triangle_by_orjson`` where it can be, else
        by ``array_from_csv``, to the same values and refusals."""
        values = _lower_triangle_by_orjson(text)
        return cls(array_from_csv(text)) if values is None else cls._trusted(values)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b over the larger norm; zero-safe. It compares (T, d) outputs."""
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    diff = float(np.linalg.norm(a - b))
    return diff / denom if denom else diff


def _tiled(rows: np.ndarray, count: int, fill: float) -> np.ndarray:
    """``rows`` as (``_TILE``, ``count``, K), ``count`` tiles side by side, padded with ``fill``."""
    if len(rows) < count * _TILE:
        rows = np.concatenate([rows, np.full((count * _TILE - len(rows), rows.shape[1]), fill)])
    return rows.reshape(count, _TILE, rows.shape[1]).transpose(1, 0, 2)


def _diagonal_tiles(gains: np.ndarray, left: np.ndarray, right: np.ndarray):
    """(lo, hi, heads, last, tile) for each ``_TILE`` rows, ``_TILE_BATCH`` diagonal tiles a pass.

    With prods[u, v] = gains[lo+v+1..lo+u] for v <= u, ``heads`` is
    prods[:, 0], ``last`` is prods[-1] and ``tile`` is the kernel's diagonal
    tile, rows and columns [lo, hi). The products are kept packed, only
    those on and below the diagonal, with the tiles of a batch side by
    side: one loop over a tile's rows runs for every tile of the batch at
    once, row u being row u-1 times gains[lo+u], and one ``einsum`` takes
    every kept entry of the batch's tiles. The products are those of a
    cumulative product, and the tiles those of an ``einsum`` over each tile
    alone, bit for bit (``tests/oracles.py::reference_diagonal_tiles``).
    The last batch is padded with unit gains and zero weights, which reach
    no kept entry.
    """
    steps, size = gains.shape[0], _TILE
    width = np.broadcast_shapes(gains.shape, left.shape, right.shape)[1]
    rows, cols = np.tril_indices(size)
    # Entry (u, v) of a tile's products sits at starts[u] + v; the diagonal ones stay 1.
    starts = np.arange(size) * np.arange(1, size + 1) // 2
    prods = np.ones((len(rows), _TILE_BATCH, gains.shape[1]))
    weighted = np.empty((len(rows), _TILE_BATCH, width))
    dots = np.empty((len(rows), _TILE_BATCH))
    tiles = np.zeros((_TILE_BATCH, size, size))
    for start in range(0, steps, size * _TILE_BATCH):
        stop = min(start + size * _TILE_BATCH, steps)
        count = -(-(stop - start) // size)
        batch = prods[:, :count]
        g = _tiled(gains[start:stop], count, 1.0)
        for u in range(1, size):
            above, row = starts[u - 1], starts[u]
            np.multiply(batch[above : above + u], g[u], out=batch[row : row + u])
        np.multiply(batch, _tiled(right[start:stop], count, 0.0)[cols], out=weighted[:, :count])
        np.einsum("pbk,pbk->pb", weighted[:, :count], _tiled(left[start:stop], count, 0.0)[rows],
                  out=dots[:, :count])
        tiles[:count, rows, cols] = dots[:, :count].T
        for i, lo in enumerate(range(start, stop, size)):
            n = min(size, steps - lo)
            last = starts[n - 1]
            yield lo, lo + n, batch[starts[:n], i], batch[last : last + n, i], tiles[i, :n, :n]


def _segment_product_panels(gains: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Row panels of the lower triangle sum_k left[t,k] * (gains[s+1,k]...gains[t,k]) * right[s,k].

    The inputs are (T, K) or (T, 1), broadcast against each other; gains[0]
    is never read. Yields (lo, hi, panel) for every ``_TILE`` rows in order,
    the panel holding rows [lo, hi) and columns [0, hi) of the kernel. Its
    diagonal tile comes from ``_diagonal_tiles``. Left of the tile the
    product is gains[lo..t] (head) times the carried weight right[s] *
    gains[s+1..lo-1], one rank-K product. The carried weights sit in one
    (T, K) array, multiplied in place by each panel's last head row and
    extended by right times the tile's last row of products: nothing is
    divided, so zero gains stay exact. A carried weight below the smallest
    normal float (``_TINY``) is carried as zero, which moves an entry left
    of its tile by at most sum_k |left[t,k] head[t,k]| * ``_TINY``. Leading
    carried rows that are zero in every mode stay zero, so their columns
    are written as +0.0 and the product runs over the rest. A panel with a
    non-finite entry raises ``ValueError``.
    """
    carry = np.empty((gains.shape[0], np.broadcast_shapes(gains.shape, left.shape, right.shape)[1]))
    dead = 0  # carry[:dead] is zero in every mode
    floor = np.inf  # at most the magnitude of every nonzero carried weight
    for lo, hi, heads, last, tile in _diagonal_tiles(gains, left, right):
        panel = np.empty((hi - lo, hi))
        panel[:, lo:] = tile
        head = heads * gains[lo] if lo else heads  # gains[0] is never read
        panel[:, :dead] = 0.0
        np.matmul(left[lo:hi] * head, carry[dead:lo].T, out=panel[:, dead:lo])
        _check_finite(panel, "kernel")
        yield lo, hi, panel
        live = carry[dead:hi]
        live[: lo - dead] *= head[-1]
        np.multiply(right[lo:hi], last, out=live[lo - dead :])
        # Rounding is monotone, so the floor times the least |head[-1]| still bounds the
        # weights it multiplied: nothing needs carrying as zero while it is normal.
        fresh = float(np.abs(live[lo - dead :]).min())
        floor = min(floor * float(np.abs(head[-1]).min()), fresh) if lo > dead else fresh
        if floor < _TINY:
            live[np.abs(live) < _TINY] = 0.0
            floor = _TINY
        while dead < hi and not carry[dead].any():  # look a tile of rows ahead at a time
            window = carry[dead:hi][:_TILE].any(axis=1)
            dead += int(window.argmax()) if window.any() else len(window)


def _assemble(size: int, panels) -> LowerTriangularMatrix:
    """The whole lower triangle of a stream of (lo, hi, panel) row panels, as one matrix."""
    m = np.zeros((size, size))
    for lo, hi, panel in panels:
        m[lo:hi, :hi] = panel
    return LowerTriangularMatrix._trusted(m)


def _apply(panels, x: np.ndarray) -> np.ndarray:
    """The lower triangle of a panel stream times ``x``; one panel is held at a time, never T x T."""
    y = np.empty(x.shape)
    for lo, hi, panel in panels:
        np.matmul(panel, x[:hi], out=y[lo:hi])
    return y


class SweepStep(NamedTuple):
    """One step of ``_block_sweep``: block t = ``vals[t:, :t+1]``, factored through G_t.

    ``carry`` @ ``basis`` is ``vals[t:, :t]`` up to the carry's drops, whose
    sum ``dropped`` bounds the spectral norm of the difference. G_t =
    [carry, column t] = u S ``vh``, and ``u``, ``s`` and ``right`` (``vh``
    mapped to column coordinates) are an SVD of block t, with the signs
    ``np.linalg.svd`` returned: ranks, span fits and the dual do not depend
    on them, and extraction fixes them with ``sss_extract.vector_signs``.
    ``rank`` counts the singular values above eps * s[0], and ``keep`` those
    above ``rounding``, block t's rounding level: they make the next carry.
    ``widened`` is set when a refactor left the carry over one column wider
    than the step before's. ``norm`` is column t's, from the sweep's one norm
    pass: the refactor trigger and ``_span_fits``' threshold read it.
    """

    carry: np.ndarray
    basis: np.ndarray
    dropped: float
    vh: np.ndarray
    u: np.ndarray
    s: np.ndarray
    right: np.ndarray
    rank: int
    rounding: float
    keep: int
    widened: bool
    norm: float


def _block_sweep(vals: np.ndarray, eps: float):
    """SVD of every lower-left block ``vals[t:, :t+1]``, most of them from a thin matrix.

    Block t is block t-1 without its first row and with column t appended.
    Block t-1 = L Vh, where L = U S and Vh has orthonormal rows. So block
    t = G_t blockdiag(Vh, 1) for G_t = [L[1:], M[t:, t]], and as the second
    factor has orthonormal rows, G_t has block t's singular values and
    left vectors, and its right vectors times that factor are block t's.
    G_t stays thin because L only carries the singular values above the
    rounding level of block t-1, max(shape) * machine epsilon * s[0] (where
    ``lstsq``'s default cutoff lies too), not just those above its rank
    threshold: a later, smaller block can need them. No step normalizes
    signs; that was about a fifth of a step's time, and only extraction
    needs fixed signs.

    What the carry drops is gone for good, and a later block may be far
    smaller than the one it was dropped from. So the sweep sums the largest
    dropped singular value of every step: by Weyl's inequality G_t's
    singular values are within that sum of block t's, rounding aside. Once
    the sum exceeds ``_SWEEP_DROP_SHARE`` of eps times the norm of column t
    (at most block t's s[0], which stands in for a zero column), L[1:] and
    Vh are refactored from ``vals[t:, :t]`` and the sum restarts at zero.
    ``vals`` is lower triangular, so its column norms, taken together by
    ``_column_norms``, are those of the columns on and below the diagonal.
    No column is normed alone: shaped (n,) or (n, 1) it is summed pairwise,
    off in the last bit.

    Each step writes G_t into one fresh array: the next carry as the
    product of the step's u[1:] and s, and column t in its last column.
    Yields one ``SweepStep`` per block.
    """
    size = len(vals)
    pair = np.empty((size, 1))
    basis = np.zeros((0, 0))
    dropped = 0.0
    width = 0  # carry width of the step before
    col_norms = _column_norms(vals)
    for t in range(size):
        col = vals[t:, t]
        pair[:, -1] = col
        u, s, vh = np.linalg.svd(pair, full_matrices=False)
        norm = float(col_norms[t])
        if dropped and dropped > _SWEEP_DROP_SHARE * eps * (norm or s[0]):
            u, s, basis = np.linalg.svd(vals[t:, :t], full_matrices=False)
            pair = np.empty((size - t, s.size + 1))
            np.multiply(u, s, out=pair[:, :-1])
            pair[:, -1] = col
            dropped = 0.0
            u, s, vh = np.linalg.svd(pair, full_matrices=False)
        rounding = _MACHINE_EPS * max(size - t, t + 1) * s[0]
        keep = int(np.count_nonzero(s > rounding))
        mapped = np.empty((len(vh), t + 1))
        np.matmul(vh[:, :-1], basis, out=mapped[:, :-1])
        mapped[:, -1] = vh[:, -1]
        rank = rank_of_singular_values(s, eps)
        widened = len(basis) > width + 1
        carry = pair[:, :-1]
        yield SweepStep(carry, basis, dropped, vh, u, s, mapped, rank, rounding, keep, widened, norm)
        width = len(basis)
        if keep < s.size:
            dropped += s[keep]
        pair = np.empty((size - t - 1, keep + 1))
        np.multiply(u[1:, :keep], s[:keep], out=pair[:, :-1])
        basis = mapped[:keep]


def rank_of_singular_values(s: np.ndarray, eps: float) -> int:
    """Count singular values (descending) above ``eps`` times the largest one.

    The rank is 0 when there are none or the largest is not positive.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > eps * s[0]))


def _column_norms(vals: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(vals, axis=0)`` of a lower-triangular matrix, bit for bit, summed a
    ``_TILE``-row panel at a time.

    numpy sums the squares down each column in row order, so one reduce
    over the running sums stacked on a panel's squares continues that sum;
    a panel's columns right of its last row hold zeros, which add nothing.
    """
    sums = np.zeros(vals.shape[1])
    for lo in range(0, len(vals), _TILE):
        hi = min(lo + _TILE, len(vals))
        stack = np.empty((hi - lo + 1, hi))
        stack[0] = sums[:hi]
        np.multiply(vals[lo:hi, :hi], vals[lo:hi, :hi], out=stack[1:])
        np.add.reduce(stack, axis=0, out=sums[:hi])
    return np.sqrt(sums)


def semiseparable_rank(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> int:
    """Semiseparable rank: the largest rank over on-or-below-diagonal submatrices.

    Only the T maximal blocks ``M[t:, :t+1]`` need to be inspected: any
    submatrix with row set R and column set C on or below the diagonal has
    max(C) <= min(R), so it sits inside ``M[min(R):, :max(C)+1]`` and its
    rank is bounded by that block's rank. One ``_block_sweep`` yields them.
    A matrix whose Frobenius norm overflows is refused first (``_check_norm_finite``).
    """
    _check_norm_finite(m)
    return max(step.rank for step in _block_sweep(m.values, eps))


def _thin_fits(steps: list[SweepStep]) -> list[tuple]:
    """(pseudo-inverse, fit, thin residual, fit norm) of each step's S V_k, from one ``pinv`` call.

    The factors are zero-padded to one (k+1) x k shape and each is cut
    where ``lstsq``'s default cutoff lies for its L.
    """
    width = max(1, max(len(step.basis) for step in steps))
    factors = np.zeros((len(steps), width + 1, width))
    targets = np.zeros((len(steps), width + 1, 1))
    cutoffs = np.empty(len(steps))
    for i, step in enumerate(steps):
        k, s = len(step.basis), step.s
        np.multiply(s[:, None], step.vh[:, :-1], out=factors[i, : len(s), :k])
        np.multiply(s, step.vh[:, -1], out=targets[i, : len(s), 0])
        cutoffs[i] = _MACHINE_EPS * max(len(step.u), k)
    inverses = np.linalg.pinv(factors, rcond=cutoffs)
    fits = inverses @ targets
    thin = np.linalg.norm(factors @ fits - targets, axis=(1, 2))
    return list(zip(inverses, fits[..., 0], thin, np.linalg.norm(fits, axis=(1, 2))))


def _borderline(residual: float, threshold: float) -> bool:
    """Whether a span residual lies within a factor 10 of its threshold: the borderline band."""
    return threshold / 10.0 <= residual <= threshold * 10.0


def _span_fits(block: np.ndarray, start: int, eps: float) -> list[tuple]:
    """Span test of each column of a diagonal block, starting at global column ``start``,
    against the block columns before it: the one place a span verdict is decided.

    One ``_block_sweep`` runs over the block and is read ``_TILE`` steps at
    a time, so what is held at once does not grow with the block. A step's
    G_t = [L, col] = u S V, so as u has orthonormal columns the fit of col
    against L is the fit of S v (v being V's last column) against the small
    S V_k (V_k the rest of V), whose singular values are L's. ``_thin_fits``
    pseudo-inverts a tile's in one call, except a ``widened`` step: only a
    refactor widens the carry by more than one column, to every singular
    value left of the step, and that one is pseudo-inverted alone rather
    than widening the others' padding. The fit is mapped to columns by the
    step's basis, whose rows are orthonormal.

    The thin residual |S V_k y - S v| is the residual on ``block[t:, :t]``
    up to the carry's drops and rounding: that block is L Vh plus a
    difference of spectral norm at most the sweep's drop sum, which moves
    the residual by at most the drop sum times |y|, and the factorizations
    move it by a few times the step's rounding level (where the sweep cuts
    its carry) times |y| + 1; ten times is the margin taken. A column whose
    thin residual lies in the borderline band (``_borderline``), or nearer
    to the threshold than that bound, has its fit refined once on its miss
    on ``block[t:, :t]`` and its residual taken there, with two dense
    products; every other verdict is the thin one. A fitted column whose
    final residual lies in the band warns, by global index, but keeps the
    threshold verdict; a verdict no fit decided (a zero column, a block's
    first) never warns.

    Returns (is_new, coeffs, residual, threshold) per column: new when the
    residual exceeds eps times the column norm (``SweepStep.norm``);
    ``coeffs`` is None for a zero column or an empty span, where any
    nonzero column is new.
    """
    sweep = _block_sweep(block, eps)
    out = []
    for lo in range(0, len(block), _TILE):
        steps = list(itertools.islice(sweep, _TILE))
        alone = [i for i, step in enumerate(steps) if step.widened]
        stacked = [i for i, step in enumerate(steps) if not step.widened]
        thin_fits = {}
        for group in (stacked, *([i] for i in alone)):
            if group:
                thin_fits.update(zip(group, _thin_fits([steps[i] for i in group])))
        for i, step in enumerate(steps):
            t, threshold = lo + i, eps * step.norm
            if step.norm == 0.0 or t == 0:  # no fit decides a zero column or a block's first
                out.append((step.norm > 0.0, None, step.norm, threshold))
                continue
            inverse, fit, residual, fit_norm = thin_fits[i]
            k = len(step.basis)
            coeffs = step.basis.T @ fit[:k]
            residual = float(residual)
            margin = step.dropped * fit_norm + 10.0 * step.rounding * (fit_norm + 1.0)
            if _borderline(residual, threshold) or abs(residual - threshold) < margin:
                below, col = block[t:, :t], block[t:, t]
                solve = step.basis.T @ inverse[:k, : len(step.s)]
                coeffs += solve @ (step.u.T @ (col - below @ coeffs))
                residual = float(np.linalg.norm(below @ coeffs - col))
            if threshold > 0.0 and _borderline(residual, threshold):
                warnings.warn(
                    f"borderline new-column decision at column {start + t}: "
                    f"residual {residual:.3e} vs threshold {threshold:.3e}",
                    stacklevel=4,
                )
            out.append((residual > threshold, coeffs, residual, threshold))
    return out


def new_columns(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> list[int]:
    """Indices t whose below-diagonal part M[t:, t] leaves the span of M[t:, :t].

    The verdicts, and the borderline warnings (a residual within a factor
    10 of the threshold, which still follow the threshold verdict), are
    those of ``_span_fits`` on the whole matrix as one block.
    """
    (whole,) = _new_column_sweep(m, [], eps)
    return [t for t, is_new in enumerate(whole.new) if is_new]


@dataclass(frozen=True)
class BlockNewColumns:
    """New-column count of one diagonal block, rows [start, end), and the verdicts behind it.

    ``new[i]`` and ``coeffs[i]`` are what ``_span_fits`` returned for block
    column i against block columns 0..i-1 on block rows i onward.
    """

    start: int
    end: int
    new: tuple[bool, ...]
    coeffs: tuple[np.ndarray | None, ...] = field(compare=False, repr=False)

    @property
    def new_columns(self) -> int:
        return sum(self.new)


def _new_column_sweep(m: LowerTriangularMatrix, cuts: list, eps: float) -> list[BlockNewColumns]:
    """The ``_span_fits`` verdicts of each diagonal block between ``cuts``; it decides nothing.

    A matrix whose Frobenius norm overflows is refused first (``_check_norm_finite``).
    """
    _check_norm_finite(m)
    out = []
    for start, end in blocks_from_cuts(m.T, cuts):
        fits = _span_fits(m.values[start:end, start:end], start, eps)
        new, coeffs, _, _ = zip(*fits)
        out.append(BlockNewColumns(start, end, new, coeffs))
    return out


def diagonal_block_partition(m: LowerTriangularMatrix, eps: float = DEFAULT_EPS) -> list[int]:
    """Cut positions of the finest diagonal-block partition.

    A cut before row i is valid when every entry of M[i:, :i] has magnitude
    at most eps times the largest magnitude in M, i.e. the below-left region
    is (numerically) zero. The finest partition is returned; merging valid
    blocks only sums their new-column counts, so finer is never wrong.
    """
    # below[c] = max |M[c+1:, :c+1]|, the region left of cut c+1, folded in a row panel at a
    # time: row r's prefix maxima reach the cuts at or before it, on columns left of r.
    below = np.zeros(m.T)
    scale = 0.0
    for lo, hi, panel in m._panels():
        prefix = np.abs(panel)
        np.maximum.accumulate(prefix, axis=1, out=prefix)
        scale = max(scale, float(prefix[:, -1].max()))
        np.maximum(below[:lo], prefix[:, :lo].max(axis=0), out=below[:lo])
        np.maximum(below[lo:hi], np.tril(prefix[:, lo:], -1).max(axis=0), out=below[lo:hi])
    steps = np.arange(1, m.T)
    return steps[below[steps - 1] <= eps * scale].tolist()


def blocks_from_cuts(size: int, cuts: list[int]) -> list[tuple[int, int]]:
    """Half-open (start, end) intervals between consecutive cuts."""
    bounds = [0, *cuts, size]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
