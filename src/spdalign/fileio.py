"""Plain-text file formats for matrices, transforms, traces, and datasets.

All floats are written with 17 significant digits so that a write/read
round trip reproduces the exact float64 values. Every file is written as a
header line, then one line per row, in one write through a temp file plus
atomic rename so readers never observe a partial file.

Every file is UTF-8; bytes that do not decode are bad input. Lines end
where text mode ends them, at ``\n``, ``\r\n`` or a lone ``\r``, and
fields are separated by any whitespace, ``\x0c`` and ``\x85`` included.
A file is read once and split into rows of fields, whose counts are
checked before any field is converted. A square table whose lower
triangle repeats its upper one token for token, as `save_matrix` writes a
symmetric matrix, is parsed from its n(n+1)/2 diagonal and upper tokens;
any other table is parsed in full. Each of a dataset's sample files is
read and converted on its own, in manifest order.

Formats:

* matrix file: first line ``n``, then ``n`` rows of ``n`` floats.
* transform file: first line ``n m``, then ``n`` rows of ``m`` floats.
* trace file: one ``iter J grad_norm step`` row per recorded iteration.
* manifest file: one ``sample_id class_label path`` row per sample, where
  the path is relative to the manifest's directory. Blank lines and lines
  starting with ``#`` are ignored in every format.
"""

import functools
import operator
import os

import numpy as np

from .errors import NonSymmetricError, NotPositiveDefiniteError, ValidationError
from .dataset import LabeledDataset

FLOAT_FMT = "%.17g"
# random temp-file names tried before a write gives up
TEMP_ATTEMPTS = 100


def _create_temp(directory):
    """(fd, path) of a new file under a random name in directory, opened for
    writing. It is created with mode 0o666, which the kernel reduces by the
    umask, as for `open(path, "w")`; a name that exists already is drawn
    again."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(TEMP_ATTEMPTS):
        tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            return os.open(tmp_path, flags, 0o666), tmp_path
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary file name in {directory}")


def atomic_write(path, text):
    """Write text to path via a same-directory temp file and atomic rename,
    with the mode `open(path, "w")` would give it: 0o666 less the umask.
    A file-system failure is a ValidationError naming path."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = _create_temp(directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _float_row(row):
    return " ".join(FLOAT_FMT % v for v in row)


def _write_rows(path, header, rows):
    """Write the header line, then one line per row, in one atomic write."""
    atomic_write(path, "\n".join([header, *rows]) + "\n")


def _read_lines(path):
    """The lines of a UTF-8 file, split where text mode splits them."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # decoded whole, so the message names the bad byte's offset in the file
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:
        # universal newlines: \r\n and a lone \r end a line as \n does,
        # and nothing else does (str.splitlines would also split at \x0c)
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _data_rows(path, split=str.split):
    """(line_number, fields) of each line that is neither blank nor a #
    comment, its fields as `split` cuts the line: at every whitespace run
    unless a caller passes its own split."""
    return [(number, fields)
            for number, fields in enumerate(map(split, _read_lines(path)), 1)
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


def _parse(path, data, cols, rows=None, finite=True):
    """The remaining data rows (`_data_rows`) as a (rows, cols) array: `cols`
    values per row and, when `rows` is given, exactly `rows` rows.

    Faults are raised as a row-by-row parse meets them: a non-numeric token
    (the first, with its line) ahead of the first bad field or row count,
    then a non-finite value when `finite` is set. A complete square table
    whose strict lower triangle repeats its mirror token for token converts
    only its diagonal and upper triangle."""
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
    try:
        values = _floats(tokens)
    except ValueError as exc:
        if place is not None:
            tokens = [tokens[k] for k in place]
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError as bad:
                raise ValidationError(
                    f"{path}:{numbers[k // cols]}: non-numeric value: {bad}"
                ) from bad
        raise ValidationError(f"{path}: non-numeric value: {exc}") from exc
    if fault:
        raise ValidationError(fault)
    if finite and not np.isfinite(values).all():
        raise ValidationError(f"{path}: file holds non-finite values")
    if place is not None:
        values = values[place]
    return values.reshape(len(numbers), cols)


def _read_table(path, header_count):
    """A matrix (header_count 1: ``n``) or transform (2: ``n m``) file as
    an n-row array (`_parse`)."""
    data = iter(_data_rows(path))
    header = _parse_header_ints(path, data, header_count)
    return _parse(path, data, header[-1], header[0])


def save_matrix(path, X):
    """Write a square matrix under the single-integer header format."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {X.shape}")
    if not X.size:  # a 0 header, which no reader accepts
        raise ValidationError(f"matrix must not be empty, got shape {X.shape}")
    _write_rows(path, str(X.shape[0]), map(_float_row, X))


def save_transform(path, W):
    """Write a tall transform matrix under the two-integer header format."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValidationError(f"transform must be 2-D, got shape {W.shape}")
    if not W.size:  # a 0 in the header, which no reader accepts
        raise ValidationError(f"transform must not be empty, got shape {W.shape}")
    _write_rows(path, "%d %d" % W.shape, map(_float_row, W))


def load_transform(path):
    return _read_table(path, 2)


def save_trace(path, result):
    """Write one `iter J grad_norm step` row per recorded iteration."""
    columns = result.J_trace, result.grad_norm_trace, result.step_trace
    _write_rows(path, "# iter J grad_norm step",
                (f"{k} {_float_row(row)}" for k, row in enumerate(zip(*columns))))


def load_trace(path):
    """Read a trace file back as a (rows, 4) float array."""
    rows = _parse(path, _data_rows(path), 4, finite=False)
    if not rows.size:
        raise ValidationError(f"{path}: trace file holds no data rows")
    return rows


def save_manifest(path, entries):
    """Write `sample_id class_label path` rows."""
    _write_rows(path, "# sample_id class_label path",
                (f"{sample_id} {label} {rel_path}"
                 for sample_id, label, rel_path in entries))


def parse_manifest(path):
    """Read manifest rows as (sample_id, class_label, path) string triples."""
    entries = []
    seen = set()
    for number, fields in _data_rows(path, lambda line: line.strip().split(None, 2)):
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

    Each sample file is read and converted on its own, in manifest order,
    so the first faulty file is named, and a file's own fault ahead of a
    shape that differs from the first file's. A sample that is not
    symmetric positive definite raises ValidationError naming the manifest
    and the sample's position, id and file.
    """
    entries = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    label_names = sorted({label for _, label, _ in entries})
    label_index = {name: i for i, name in enumerate(label_names)}
    paths = [os.path.join(base, rel_path) for _, _, rel_path in entries]
    samples = None
    for k, ((sample_id, _, _), path) in enumerate(zip(entries, paths)):
        X = _read_table(path, 1)
        if samples is None:
            samples = np.empty((len(entries),) + X.shape)
        elif X.shape != samples.shape[1:]:
            raise ValidationError(
                f"{manifest_path}: sample {sample_id!r} has shape "
                f"{X.shape}, expected {samples.shape[1:]}"
            )
        samples[k] = X
    labels = np.array([label_index[label] for _, label, _ in entries])
    try:
        dataset = LabeledDataset(samples, labels)
    except (NonSymmetricError, NotPositiveDefiniteError) as exc:
        # a sample file that is no SPD matrix is invalid input, like every
        # other malformed sample file
        k = exc.index
        raise ValidationError(
            f"{manifest_path}: {exc} (id {entries[k][0]}, file {paths[k]})"
        ) from exc
    return dataset, [sample_id for sample_id, _, _ in entries], label_names
