"""Plain-text file formats for matrices, transforms, traces, and datasets.

All floats are written with 17 significant digits so that a write/read
round trip reproduces the exact float64 values, and all writes go through
a temp file plus atomic rename so readers never observe a partial file.

Every file is UTF-8; bytes that do not decode are bad input. Lines end
where text mode ends them, at ``\n``, ``\r\n`` or a lone ``\r``, and
fields are separated by any whitespace, ``\x0c`` and ``\x85`` included.
A file is read once and split into rows of fields, whose counts are
checked before any field is converted. A square table whose lower
triangle repeats its upper one token for token, as `save_matrix` writes a
symmetric matrix, is parsed from its n(n+1)/2 diagonal and upper tokens;
any other table is parsed in full. A dataset's sample files are converted
many files per call.

Formats:

* matrix file: first line ``n``, then ``n`` rows of ``n`` floats.
* transform file: first line ``n m``, then ``n`` rows of ``m`` floats.
* trace file: one ``iter J grad_norm step`` row per recorded iteration.
* manifest file: one ``sample_id class_label path`` row per sample, where
  the path is relative to the manifest's directory. Blank lines and lines
  starting with ``#`` are ignored in every format.
"""

import functools
import itertools
import operator
import os
import tempfile
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonSymmetricError, NotPositiveDefiniteError, ValidationError
from .graphs import LabeledDataset

FLOAT_FMT = "%.17g"
# tokens a dataset load converts per call: enough to spread the call's
# fixed cost over several sample files, few enough that the token strings
# held at once (about 40 KB) do not raise the process's peak memory
CHUNK_TOKENS = 512


def atomic_write(path, text):
    """Write text to path via a same-directory temp file and atomic rename,
    with the mode `open(path, "w")` would give it: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            # the umask can only be read by setting it
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _float_row(row):
    return " ".join(FLOAT_FMT % v for v in row)


def _read_lines(path):
    """The lines of a UTF-8 file, split where text mode splits them."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        # read again in text mode, which names the bad byte by its offset in
        # the chunk it was decoding, so the diagnostic is text mode's
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.readlines()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:
        # universal newlines: \r\n and a lone \r end a line as \n does,
        # and nothing else does (str.splitlines would also split at \x0c)
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _data_lines(path):
    """(line_number, stripped_line) of each line that is neither blank nor
    a # comment."""
    return [(number, line)
            for number, line in enumerate(map(str.strip, _read_lines(path)), 1)
            if line and line[0] != "#"]


def _data_rows(path):
    """(line_number, fields) of each line that is neither blank nor a #
    comment: `_data_lines`, split at whitespace."""
    return [(number, fields)
            for number, fields in enumerate(map(str.split, _read_lines(path)), 1)
            if fields and fields[0][0] != "#"]


def _parse_header_ints(path, rows, count):
    try:
        number, fields = next(rows)
    except StopIteration:
        raise ValidationError(f"{path}: empty file") from None
    if len(fields) != count:
        raise ValidationError(
            f"{path}:{number}: header must hold {count} integer(s), "
            f"got {len(fields)} field(s)"
        )
    values = []
    for field in fields:
        try:
            value = int(field)
        except ValueError:
            raise ValidationError(
                f"{path}:{number}: header field {field!r} is not an integer"
            ) from None
        if value < 1:
            raise ValidationError(f"{path}:{number}: header value must be >= 1")
        values.append(value)
    return values


def _floats(tokens):
    """The tokens as a float64 array, each parsed exactly as float() does."""
    return np.array(tokens, dtype=float)


@functools.lru_cache(maxsize=16)
def _mirror_plan(n):
    """Getters of an n x n row-major token list's strict lower triangle, its
    mirror and its upper triangle, and the index placing the upper
    triangle's values in the full table."""
    rows, cols = np.triu_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    upper, strict = rows * n + cols, rows != cols
    return (operator.itemgetter(*(cols * n + rows)[strict].tolist()),
            operator.itemgetter(*upper[strict].tolist()),
            operator.itemgetter(*upper.tolist()), position.ravel())


class _Table(NamedTuple):
    """The data rows of one table file, tokenized and not yet converted.

    `tokens` are the tokens to convert, `place` the index that spreads
    their values over the rows in row order (None: they are in row order),
    `numbers` the line number of each data row, and `fault` the message of
    a row fault found after those rows, or None.
    """

    path: str
    numbers: list
    cols: int
    tokens: Sequence[str]
    place: Optional[np.ndarray]
    fault: Optional[str]


def _tokenize(path, data, cols, rows=None):
    """The remaining data rows (`_data_rows`) as a `_Table` of `cols`
    fields per row and, when `rows` is given, exactly `rows` rows.

    Field and row counts are checked per line up to the first fault, which
    is kept, not raised, so that a non-numeric token before it is named
    first. A complete square table whose strict lower triangle repeats its
    mirror token for token keeps only its diagonal and upper triangle."""
    numbers, tokens, fault, place = [], [], None, None
    for number, fields in data:
        if len(numbers) == rows:
            fault = f"{path}:{number}: found more than {rows} data rows"
        elif len(fields) != cols:
            fault = f"{path}:{number}: expected {cols} values, got {len(fields)}"
        if fault:
            break
        numbers.append(number)
        tokens.extend(fields)
    if not fault and rows is not None and len(numbers) != rows:
        fault = f"{path}: expected {rows} data rows, found {len(numbers)}"
    if not fault and len(numbers) == cols == rows > 1:
        lower, mirror, upper, position = _mirror_plan(cols)
        if lower(tokens) == mirror(tokens):
            tokens, place = upper(tokens), position
    return _Table(path, numbers, cols, tokens, place, fault)


def _read_table(path, header_count):
    """A matrix (header_count 1: ``n``) or transform (2: ``n m``) file,
    tokenized as an n-row table."""
    data = iter(_data_rows(path))
    header = _parse_header_ints(path, data, header_count)
    return _tokenize(path, data, header[-1], header[0])


def _convert(tables, finite=True):
    """The values of the tables' tokens, converted in one call, as one flat
    array in the tables' order.

    Raises the first fault of the first faulty table, in the order one
    table alone would meet them: a non-numeric token (the first in row
    order, with its line), then the table's row fault, then, when `finite`
    is set, a non-finite value."""
    try:
        values = _floats(list(itertools.chain.from_iterable(
            table.tokens for table in tables)))
    except ValueError as exc:
        for table in tables[:-1]:
            _convert([table], finite)
        last = tables[-1]
        tokens = last.tokens if last.place is None else [
            last.tokens[k] for k in last.place]
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError as bad:
                raise ValidationError(
                    f"{last.path}:{last.numbers[k // last.cols]}: "
                    f"non-numeric value: {bad}"
                ) from bad
        raise ValidationError(f"{last.path}: non-numeric value: {exc}") from exc
    if any(table.fault for table in tables) or (
            finite and not np.isfinite(values).all()):
        end = 0
        for table in tables:
            start, end = end, end + len(table.tokens)
            if table.fault:
                raise ValidationError(table.fault)
            if finite and not np.isfinite(values[start:end]).all():
                raise ValidationError(f"{table.path}: file holds non-finite values")
    return values


def _stack(tables):
    """Tables of one shape, converted and checked in one call (`_convert`),
    as a (len(tables), rows, cols) stack."""
    values = _convert(tables)
    first = tables[0]
    shape = (len(tables), len(first.numbers), first.cols)
    if any(table.place is not first.place for table in tables):
        # mirrored and fully converted tables mixed: place each on its own
        ends = np.cumsum([len(table.tokens) for table in tables])
        return np.stack([
            part if table.place is None else part[table.place]
            for table, part in zip(tables, np.split(values, ends[:-1]))
        ]).reshape(shape)
    values = values.reshape(len(tables), -1)
    return (values if first.place is None else values[:, first.place]).reshape(shape)


def save_matrix(path, X):
    """Write a square matrix under the single-integer header format."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {X.shape}")
    n = X.shape[0]
    body = "\n".join(_float_row(row) for row in X)
    atomic_write(path, f"{n}\n{body}\n")


def load_matrix(path):
    return _stack([_read_table(path, 1)])[0]


def save_transform(path, W):
    """Write a tall transform matrix under the two-integer header format."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValidationError(f"transform must be 2-D, got shape {W.shape}")
    n, m = W.shape
    body = "\n".join(_float_row(row) for row in W)
    atomic_write(path, f"{n} {m}\n{body}\n")


def load_transform(path):
    return _stack([_read_table(path, 2)])[0]


def save_trace(path, result):
    """Write one `iter J grad_norm step` row per recorded iteration."""
    rows = ["# iter J grad_norm step"]
    for k in range(result.J_trace.size):
        rows.append(
            "%d %s %s %s"
            % (
                k,
                FLOAT_FMT % result.J_trace[k],
                FLOAT_FMT % result.grad_norm_trace[k],
                FLOAT_FMT % result.step_trace[k],
            )
        )
    atomic_write(path, "\n".join(rows) + "\n")


def load_trace(path):
    """Read a trace file back as a (rows, 4) float array."""
    table = _tokenize(path, _data_rows(path), 4)
    rows = _convert([table], finite=False).reshape(-1, 4)
    if not rows.size:
        raise ValidationError(f"{path}: trace file holds no data rows")
    return rows


def save_manifest(path, entries):
    """Write `sample_id class_label path` rows."""
    rows = ["# sample_id class_label path"]
    for sample_id, label, rel_path in entries:
        rows.append(f"{sample_id} {label} {rel_path}")
    atomic_write(path, "\n".join(rows) + "\n")


def parse_manifest(path):
    """Read manifest rows as (sample_id, class_label, path) string triples."""
    entries = []
    seen = set()
    for number, line in _data_lines(path):
        fields = line.split(None, 2)
        if len(fields) != 3:
            raise ValidationError(
                f"{path}:{number}: expected `sample_id class_label path`, "
                f"got {len(fields)} field(s)"
            )
        sample_id = fields[0]
        if sample_id in seen:
            raise ValidationError(
                f"{path}:{number}: duplicate sample id {sample_id!r}"
            )
        seen.add(sample_id)
        entries.append(tuple(fields))
    if not entries:
        raise ValidationError(f"{path}: manifest holds no entries")
    return entries


def load_dataset(manifest_path):
    """Load the dataset a manifest describes.

    Class labels are mapped to 0..c-1 in sorted order of their string form.
    Returns (dataset, sample_ids, label_names) where label_names[i] is the
    original label string for mapped class i.

    Each sample file is read once and tokenized in manifest order, and the
    tokens of consecutive files are converted in one call per about
    CHUNK_TOKENS tokens, straight into the stack. A fault is raised as
    loading the files one at a time would raise it: the first faulty
    file's, once the files before it are converted. A sample that is not
    symmetric positive definite raises ValidationError naming the manifest
    and the sample's position, id and file.
    """
    entries = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    label_names = sorted({label for _, label, _ in entries})
    label_index = {name: i for i, name in enumerate(label_names)}
    paths = [os.path.join(base, rel_path) for _, _, rel_path in entries]
    samples, pending, size, done = None, [], 0, 0
    for k, ((sample_id, _, _), path) in enumerate(zip(entries, paths)):
        try:
            table = _read_table(path, 1)
        except ValidationError:
            _convert(pending)  # a fault in an earlier file is named first
            raise
        if samples is None:
            samples = np.empty((len(entries), table.cols, table.cols))
        elif table.cols != samples.shape[-1]:
            _convert(pending + [table])  # a fault in any of these first
            raise ValidationError(
                f"{manifest_path}: sample {sample_id!r} has shape "
                f"{(table.cols, table.cols)}, expected {samples.shape[1:]}"
            )
        pending.append(table)
        size += len(table.tokens)
        if table.fault or size >= CHUNK_TOKENS or k == len(entries) - 1:
            samples[done:k + 1] = _stack(pending)
            pending, size, done = [], 0, k + 1
    labels = np.array([label_index[label] for _, label, _ in entries])
    try:
        dataset = LabeledDataset(samples, labels)
    except (NonSymmetricError, NotPositiveDefiniteError) as exc:
        # a sample file that is no SPD matrix is invalid input, like every
        # other malformed sample file; the check names it "sample <k>"
        k = int(str(exc).split()[1])
        raise ValidationError(
            f"{manifest_path}: {exc} (id {entries[k][0]}, file {paths[k]})"
        ) from exc
    return dataset, [sample_id for sample_id, _, _ in entries], label_names
