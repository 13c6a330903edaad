"""Round-trip and diagnostics tests for the plain-text file formats."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import load_matrix, rand_spd, rowwise_load
from spdalign import fileio
from spdalign.dataset import LabeledDataset
from spdalign.errors import NonSymmetricError, ValidationError
from spdalign.fileio import (
    FLOAT_FMT,
    atomic_write,
    load_dataset,
    load_trace,
    load_transform,
    parse_manifest,
    save_manifest,
    save_matrix,
    save_trace,
    save_transform,
)
from spdalign.matfun import SYM_RTOL
from spdalign.optimizer import StopReason, TrainResult


def awkward_matrix():
    return np.array(
        [
            [np.pi, 1.0 / 3.0, -1e-17],
            [1e17, -0.0, 2.0**-52],
            [123456789.123456789, -np.e, 1e300],
        ]
    )


class TestAtomicWrite:
    def test_writes_exact_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(str(target), "hello\nworld\n")
        assert target.read_text() == "hello\nworld\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, umask):
        target = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            atomic_write(str(target), "new")
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("new")
        finally:
            os.umask(previous)
        mode = target.stat().st_mode & 0o777
        assert mode == 0o666 & ~umask
        assert mode == (tmp_path / "plain.txt").stat().st_mode & 0o777

    def test_never_touches_the_umask(self, tmp_path, monkeypatch):
        # setting the umask, even to read it, races with every other thread
        # that creates a file meanwhile; the kernel applies it instead
        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        X = awkward_matrix()
        W = np.array([[1.0, 0.5], [0.25, -2.0], [1.0 / 3.0, 0.0]])
        result = TrainResult(
            W_final=W,
            J_trace=np.array([0.1, 0.25]),
            grad_norm_trace=np.array([1.0, 0.5]),
            step_trace=np.array([0.0, 0.125]),
            stop_reason=StopReason.MAX_ITERS,
        )
        save_matrix(str(tmp_path / "m.txt"), X)
        save_transform(str(tmp_path / "W.txt"), W)
        save_trace(str(tmp_path / "trace.txt"), result)
        assert np.array_equal(load_matrix(str(tmp_path / "m.txt")), X)
        assert np.array_equal(load_transform(str(tmp_path / "W.txt")), W)
        assert np.array_equal(load_trace(str(tmp_path / "trace.txt"))[:, 1],
                              result.J_trace)
        assert sorted(os.listdir(tmp_path)) == ["W.txt", "m.txt", "trace.txt"]

    def test_replaces_existing_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(str(target), "new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_gives_up_when_every_name_is_taken(self, tmp_path, monkeypatch):
        draws = []
        monkeypatch.setattr(fileio.os, "urandom",
                            lambda n: draws.append(n) or bytes(n))
        (tmp_path / f".tmp-{bytes(8).hex()}~").write_text("")
        target = tmp_path / "out.txt"
        with pytest.raises(ValidationError,
                           match="^cannot write .*: no free temporary file name"):
            atomic_write(str(target), "new")
        assert len(draws) == fileio.TEMP_ATTEMPTS
        assert not target.exists()

    def test_failed_replace_named_when_the_temp_cannot_be_removed(
        self, tmp_path, monkeypatch
    ):
        def refuse_replace(src, dst):
            raise PermissionError(13, "replace refused")

        def refuse_unlink(path):
            raise PermissionError(13, "unlink refused")

        monkeypatch.setattr(fileio.os, "replace", refuse_replace)
        monkeypatch.setattr(fileio.os, "unlink", refuse_unlink)
        target = tmp_path / "out.txt"
        with pytest.raises(ValidationError) as got:
            atomic_write(str(target), "new")
        assert str(got.value) == f"cannot write {target}: [Errno 13] replace refused"


class TestMatrixFormat:
    def test_round_trip_is_exact(self, tmp_path):
        X = awkward_matrix()
        path = str(tmp_path / "m.txt")
        save_matrix(path, X)
        assert np.array_equal(load_matrix(path), X)

    def test_header_and_layout(self, tmp_path):
        path = str(tmp_path / "m.txt")
        save_matrix(path, np.eye(2))
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines[0] == "2"
        assert lines[1].split() == ["1", "0"]
        assert len(lines) == 3

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# a comment\n\n2\n1 0\n\n# another\n0 1\n")
        assert np.array_equal(load_matrix(str(path)), np.eye(2))

    def test_rejects_non_square_save(self, tmp_path):
        with pytest.raises(ValidationError):
            save_matrix(str(tmp_path / "m.txt"), np.ones((2, 3)))

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("", "empty"),
            ("x\n1\n", "not an integer"),
            ("0\n", ">= 1"),
            ("2 2\n1 0\n0 1\n", "header"),
            ("2\n1 0\n", "expected 2 data rows"),
            ("2\n1 0\n0 1\n5 5\n", "more than 2"),
            ("2\n1 0 0\n0 1\n", "m.txt:2"),
            ("2\n1 zebra\n0 1\n", "non-numeric"),
            ("2\n1 inf\n0 1\n", "non-finite"),
        ],
    )
    def test_malformed_file_diagnostics(self, tmp_path, content, fragment):
        path = tmp_path / "m.txt"
        path.write_text(content)
        with pytest.raises(ValidationError, match=fragment):
            load_matrix(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_matrix(str(tmp_path / "absent.txt"))


# a valid 3 x 3 matrix file whose comments and blank lines put the data rows
# on lines 4, 6 and 7
MATRIX_LINES = ["# matrix", "3", "", "2 0.5 0", "# row 1", "0.5 3 1", "0 1 4"]
# a valid 4 x 2 transform file, data rows on lines 2, 3, 5 and 6
TRANSFORM_LINES = ["4 2", "1 0", "0 1", "", "0.5 0.25", "-1 2"]
# an exactly mirrored 4 x 4 matrix file, data rows on lines 3, 4, 6 and 7: a
# fault in a row's first field sits in the strict lower triangle with a
# valid mirror, one in row 1 to 3's last field in the strict upper triangle
SYMMETRIC_LINES = ["4", "# symmetric", "4 1 0.5 -0.25", "1 5 0.125 2", "",
                   "0.5 0.125 6 1e-3", "-0.25 2 1e-3 7"]


def single_faults(lines):
    """(name, lines) for every single-fault variant of a valid file: each
    data row made non-numeric, non-finite, short or long, a row dropped or
    added, and the header broken."""
    data = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
    header, rows = data[0], data[1:]
    variants = []
    for k in rows:
        fields = lines[k].split()
        for fault, row in [
            ("non-numeric", ["zebra"] + fields[1:]),
            ("inf", fields[:-1] + ["inf"]),
            ("nan", fields[:-1] + ["nan"]),
            ("overflow", fields[:-1] + ["1e999"]),
            ("short", fields[:-1]),
            ("long", fields + ["7"]),
        ]:
            variant = lines[:k] + [" ".join(row)] + lines[k + 1:]
            variants.append((f"{fault}@{k + 1}", variant))
        variants.append((f"dropped@{k + 1}", lines[:k] + lines[k + 1:]))
    variants.append(("extra row", lines + [lines[rows[-1]]]))
    variants.append(("header", lines[:header] + ["x y"] + lines[header + 1:]))
    return variants


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def reference_error(path, header_count):
    with pytest.raises(ValidationError) as expected:
        rowwise_load(path, header_count)
    return str(expected.value)


class TestRowDiagnostics:
    @pytest.mark.parametrize(
        "lines, header_count, loader",
        [(MATRIX_LINES, 1, load_matrix), (TRANSFORM_LINES, 2, load_transform),
         (SYMMETRIC_LINES, 1, load_matrix)],
        ids=["matrix", "transform", "symmetric"],
    )
    def test_every_single_fault_as_row_by_row(
        self, tmp_path, lines, header_count, loader
    ):
        valid = write_lines(tmp_path / "valid.txt", lines)
        assert np.array_equal(loader(valid), rowwise_load(valid, header_count))
        for name, variant in single_faults(lines):
            path = write_lines(tmp_path / "bad.txt", variant)
            message = reference_error(path, header_count)
            with pytest.raises(ValidationError) as got:
                loader(path)
            assert str(got.value) == message, name

    @pytest.mark.parametrize("token", ["zebra", "inf", "nan", "1e999", "0x1"])
    def test_fault_in_both_mirror_cells_as_row_by_row(self, tmp_path, token):
        # the mirrored tokens agree, so the fault reaches the parse of the
        # upper triangle; the first faulty cell in row order is still named
        rows = [line.split() for line in SYMMETRIC_LINES[2:] if line]
        rows[1][3] = rows[3][1] = token
        lines = SYMMETRIC_LINES[:2] + [" ".join(row) for row in rows]
        path = write_lines(tmp_path / "m.txt", lines)
        with pytest.raises(ValidationError) as got:
            load_matrix(path)
        assert str(got.value) == reference_error(path, 1)

    @pytest.mark.parametrize(
        "later, fragment",
        [("0 1", "expected 3 values"), ("0 1 2 3", "expected 3 values"),
         ("0 1 5\n2 2 2", "more than 3")],
        ids=["short", "long", "extra rows"],
    )
    def test_non_numeric_line_named_before_later_faults(
        self, tmp_path, later, fragment
    ):
        path = write_lines(tmp_path / "m.txt", ["3", "1 zebra 0", "0 1 0", later])
        with pytest.raises(ValidationError, match=r"m\.txt:2: non-numeric") as got:
            load_matrix(path)
        assert str(got.value) == reference_error(path, 1)
        # without the non-numeric line the later fault is named
        fixed = write_lines(tmp_path / "m.txt", ["3", "1 0 0", "0 1 0", later])
        with pytest.raises(ValidationError, match=fragment):
            load_matrix(fixed)

    @pytest.mark.parametrize(
        "token",
        ["1_0", "inf", "-inf", "nan", "-0", "0x10", "1.5d0", "1e999", "1__0",
         "+.5", "1e5_0", "\uff11", "--1", "1,0"],
    )
    def test_tokens_parse_as_float_does(self, tmp_path, token):
        matrix = write_lines(tmp_path / "m.txt", ["1", token])
        trace = write_lines(tmp_path / "t.txt", [f"0 {token} 1 1"])
        try:
            value = float(token)
        except ValueError as exc:
            for path, loader, line in [(matrix, load_matrix, 2),
                                       (trace, load_trace, 1)]:
                with pytest.raises(ValidationError) as got:
                    loader(path)
                assert str(got.value) == f"{path}:{line}: non-numeric value: {exc}"
            return
        # the trace format takes non-finite values; matrix files reject them
        assert repr(float(load_trace(trace)[0, 1])) == repr(value)
        if np.isfinite(value):
            assert repr(float(load_matrix(matrix)[0, 0])) == repr(value)
        else:
            with pytest.raises(ValidationError, match="non-finite"):
                load_matrix(matrix)

    def test_conversion_fault_with_no_bad_token_is_named(self, tmp_path,
                                                         monkeypatch):
        # every token parses alone, so the fault is the conversion's own
        def refuse(tokens):
            raise ValueError("conversion refused")

        monkeypatch.setattr(fileio, "_floats", refuse)
        path = write_lines(tmp_path / "m.txt", ["2", "1 0", "0 1"])
        with pytest.raises(ValidationError) as got:
            load_matrix(path)
        assert str(got.value) == f"{path}: non-numeric value: conversion refused"


def counted_conversions(monkeypatch):
    """Patch the float conversion of `fileio` to record how many tokens
    each call converts; returns the live list of counts."""
    counts = []
    original = fileio._floats

    def counted(tokens):
        counts.append(len(tokens))
        return original(tokens)

    monkeypatch.setattr(fileio, "_floats", counted)
    return counts


def mirrored_spd(n, seed):
    """A random SPD matrix made exactly symmetric, as `synth_dataset` and
    `cov_descriptor` write them."""
    X = rand_spd(np.random.default_rng(seed), n)
    return 0.5 * (X + X.T)


def write_table(path, rows, lower_fmt=FLOAT_FMT):
    """A matrix file of `rows`, written with FLOAT_FMT except for the
    strict lower triangle, which uses `lower_fmt`."""
    n = len(rows)
    body = [" ".join((lower_fmt if j < i else FLOAT_FMT) % rows[i][j]
                     for j in range(n)) for i in range(n)]
    return write_lines(path, [str(n)] + body)


def asymmetric(rtol):
    """A mirrored SPD matrix with entry (3, 1) off its mirror by `rtol`
    relative to the largest entry."""
    X = mirrored_spd(5, 11)
    X[3, 1] = X[1, 3] + rtol * np.abs(X).max()
    return X


class TestMirroredParse:
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_mirrored_file_converts_upper_triangle(self, tmp_path, monkeypatch, n):
        X = mirrored_spd(n, n)
        path = str(tmp_path / "m.txt")
        save_matrix(path, X)
        counts = counted_conversions(monkeypatch)
        got = load_matrix(path)
        assert counts == [n * (n + 1) // 2]
        assert got.tobytes() == X.tobytes()

    @pytest.mark.parametrize(
        "lower_fmt", ["%.17e", "%+.17g", "%.20g"], ids=["e", "plus", "20g"]
    )
    def test_other_spellings_take_the_full_parse(
        self, tmp_path, monkeypatch, lower_fmt
    ):
        X = mirrored_spd(6, 3)
        path = write_table(tmp_path / "m.txt", X, lower_fmt)
        counts = counted_conversions(monkeypatch)
        got = load_matrix(path)
        assert counts == [36]
        assert got.tobytes() == rowwise_load(path, 1).tobytes() == X.tobytes()

    @pytest.mark.parametrize(
        "lines",
        [
            ["3", "0.5 1 2", "1 3 0", "2 0 4"],
            ["3", "0.5 1 2", "+1 3 0", "2 0 4"],
            ["3", "5e-1 0.5 2", "+0.5 3 0", "2.0 0 4"],
            ["2", "1 -0", "0 1"],
            ["2", "1 0.1", "0.10000000000000001 1"],
        ],
        ids=["mirrored", "plus", "5e-1", "signed-zero", "decimal-spelling"],
    )
    def test_matches_row_by_row_bit_for_bit(self, tmp_path, lines):
        path = write_lines(tmp_path / "m.txt", lines)
        assert load_matrix(path).tobytes() == rowwise_load(path, 1).tobytes()

    def test_save_matrix_output_bit_for_bit(self, tmp_path):
        for n in range(1, 9):
            path = str(tmp_path / f"m{n}.txt")
            save_matrix(path, mirrored_spd(n, 20 + n))
            assert load_matrix(path).tobytes() == rowwise_load(path, 1).tobytes()

    def test_asymmetric_within_tolerance_loads_as_written(self, tmp_path):
        X = asymmetric(0.5 * SYM_RTOL)
        assert X[3, 1] != X[1, 3]
        path = str(tmp_path / "m.txt")
        save_matrix(path, X)
        got = load_matrix(path)
        assert got.tobytes() == rowwise_load(path, 1).tobytes() == X.tobytes()
        LabeledDataset(np.stack([got, got]), np.array([0, 1]))

    def test_asymmetric_beyond_tolerance_still_rejected(self, tmp_path):
        X = asymmetric(10 * SYM_RTOL)
        path = str(tmp_path / "m.txt")
        save_matrix(path, X)
        got = load_matrix(path)
        assert got.tobytes() == rowwise_load(path, 1).tobytes() == X.tobytes()
        with pytest.raises(NonSymmetricError):
            LabeledDataset(np.stack([got, got]), np.array([0, 1]))


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "loader, content",
        [
            (load_matrix, b"2\n1 0\n0 \xff1\n"),
            (load_transform, b"2 1\n1\n\xff\n"),
            (load_trace, b"# iter \xff J\n0 1 1 1\n"),
            (parse_manifest, b"s0 caf\xe9 s0.txt\n"),
            (load_dataset, b"s0 a \xff.txt\n"),
        ],
        ids=["matrix", "transform", "trace", "manifest", "dataset"],
    )
    def test_bad_byte_is_a_validation_error(self, tmp_path, loader, content):
        path = tmp_path / "f.txt"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=r"f\.txt: not UTF-8 text"):
            loader(str(path))

    def test_sample_with_bad_byte_names_the_sample(self, tmp_path):
        save_matrix(str(tmp_path / "s0.txt"), np.eye(2))
        (tmp_path / "s1.txt").write_bytes(b"2\n1 0\n0 1\xff\n")
        save_manifest(str(tmp_path / "manifest.txt"),
                      [("s0", "a", "s0.txt"), ("s1", "b", "s1.txt")])
        with pytest.raises(ValidationError, match=r"s1\.txt: not UTF-8 text"):
            load_dataset(str(tmp_path / "manifest.txt"))


ASCII_LOCALE_CHILD = r"""
import sys
import numpy as np
from spdalign.fileio import load_dataset, save_manifest, save_matrix

root = sys.argv[1]
for name in ("s0", "s1"):
    save_matrix(root + "/" + name + ".txt", np.eye(2))
save_manifest(root + "/manifest.txt",
              [("s0", "caf\u00e9", "s0.txt"), ("s1", "th\u00e9", "s1.txt")])
_, _, label_names = load_dataset(root + "/manifest.txt")
print(ascii(label_names))
"""


def test_utf8_manifest_under_ascii_locale(tmp_path):
    """Files are UTF-8 whatever the locale: a manifest with a non-ASCII
    label is written and read back under the C locale without UTF-8 mode."""
    src = Path(fileio.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUTF8="0", LC_ALL="C")
    child = subprocess.run(
        [sys.executable, "-c", ASCII_LOCALE_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == ascii(["caf\u00e9", "th\u00e9"])
    written = (tmp_path / "manifest.txt").read_bytes()
    assert b"s0 caf\xc3\xa9 s0.txt" in written


class TestTransformFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((5, 2))
        path = str(tmp_path / "w.txt")
        save_transform(path, W)
        assert np.array_equal(load_transform(path), W)

    def test_header_holds_both_dims(self, tmp_path):
        path = tmp_path / "w.txt"
        save_transform(str(path), np.ones((4, 3)))
        assert path.read_text().splitlines()[0] == "4 3"

    def test_rejects_one_dimensional(self, tmp_path):
        with pytest.raises(ValidationError):
            save_transform(str(tmp_path / "w.txt"), np.ones(4))

    def test_rejects_single_int_header(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n1 1 1\n")
        with pytest.raises(ValidationError, match="2 integer"):
            load_transform(str(path))


class TestEmptyTables:
    # a table with no rows or no columns has a header no reader accepts
    @pytest.mark.parametrize("writer", [save_matrix, save_transform])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_rejected_before_any_file(self, tmp_path, writer, shape):
        path = tmp_path / "t.txt"
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            writer(str(path), np.ones(shape))
        assert os.listdir(tmp_path) == []


class TestTraceFormat:
    def make_result(self):
        return TrainResult(
            W_final=np.eye(3, 2),
            J_trace=np.array([0.1, 0.25, 1.0 / 3.0]),
            grad_norm_trace=np.array([1.0, 0.5, 1e-7]),
            step_trace=np.array([0.0, 0.125, 0.0625]),
            stop_reason=StopReason.GRAD_TOL,
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        result = self.make_result()
        save_trace(path, result)
        table = load_trace(path)
        assert table.shape == (3, 4)
        assert np.array_equal(table[:, 0], [0, 1, 2])
        assert np.array_equal(table[:, 1], result.J_trace)
        assert np.array_equal(table[:, 2], result.grad_norm_trace)
        assert np.array_equal(table[:, 3], result.step_trace)

    def test_header_comment_present(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(str(path), self.make_result())
        assert path.read_text().splitlines()[0] == "# iter J grad_norm step"

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# iter J grad_norm step\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_trace(str(path))


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        entries = [("s0", "walk", "a/s0.txt"), ("s1", "run", "a/s1.txt")]
        save_manifest(path, entries)
        assert parse_manifest(path) == entries

    def test_path_may_hold_spaces(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("s0 walk my data/s0.txt\ns1 run b.txt\n")
        entries = parse_manifest(str(path))
        assert entries[0] == ("s0", "walk", "my data/s0.txt")

    def test_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("s0 a x.txt\ns0 b y.txt\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_manifest(str(path))

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("s0 walk\n")
        with pytest.raises(ValidationError, match="manifest.txt:1"):
            parse_manifest(str(path))

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValidationError, match="no entries"):
            parse_manifest(str(path))


class TestWrittenBytes:
    """The exact bytes each writer produces: a header line, then one line
    per row, each ending in \\n, floats as %.17g."""

    def test_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(str(path), [[0.1, 1.0 / 3.0], [-0.0, 1e-300]])
        assert path.read_bytes() == (
            b"2\n"
            b"0.10000000000000001 0.33333333333333331\n"
            b"-0 1e-300\n"
        )

    def test_transform(self, tmp_path):
        path = tmp_path / "W.txt"
        save_transform(str(path), [[1.7976931348623157e308, -0.0],
                                   [1.0 / 3.0, 0.1], [1e-300, -1.25]])
        assert path.read_bytes() == (
            b"3 2\n"
            b"1.7976931348623157e+308 -0\n"
            b"0.33333333333333331 0.10000000000000001\n"
            b"1e-300 -1.25\n"
        )

    def test_trace(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(str(path), TrainResult(
            W_final=np.eye(3, 2),
            J_trace=np.array([0.1, 1.0 / 3.0, 1.7976931348623157e308]),
            grad_norm_trace=np.array([1e-300, 0.5, -0.0]),
            step_trace=np.array([0.0, 0.1, 1.0 / 3.0]),
            stop_reason=StopReason.MAX_ITERS,
        ))
        assert path.read_bytes() == (
            b"# iter J grad_norm step\n"
            b"0 0.10000000000000001 1e-300 0\n"
            b"1 0.33333333333333331 0.5 0.10000000000000001\n"
            b"2 1.7976931348623157e+308 -0 0.33333333333333331\n"
        )

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.txt"
        save_manifest(str(path), [("s0", "walk", "my data/s0.txt"),
                                  ("s1", "run", "b.txt")])
        assert path.read_bytes() == (
            b"# sample_id class_label path\n"
            b"s0 walk my data/s0.txt\n"
            b"s1 run b.txt\n"
        )


class TestLoadDataset:
    def write_corpus(self, tmp_path):
        sub = tmp_path / "mats"
        sub.mkdir()
        matrices = {
            "s0": 2.0 * np.eye(2),
            "s1": np.array([[2.0, 1.0], [1.0, 2.0]]),
            "s2": np.eye(2),
            "s3": np.diag([3.0, 0.5]),
        }
        for name, X in matrices.items():
            save_matrix(str(sub / f"{name}.txt"), X)
        manifest = tmp_path / "manifest.txt"
        save_manifest(
            str(manifest),
            [
                ("s0", "walk", "mats/s0.txt"),
                ("s1", "run", "mats/s1.txt"),
                ("s2", "walk", "mats/s2.txt"),
                ("s3", "run", "mats/s3.txt"),
            ],
        )
        return str(manifest), matrices

    def test_loads_samples_and_maps_labels(self, tmp_path):
        manifest, matrices = self.write_corpus(tmp_path)
        data, ids, label_names = load_dataset(manifest)
        assert ids == ["s0", "s1", "s2", "s3"]
        assert label_names == ["run", "walk"]  # sorted label strings
        assert data.labels.tolist() == [1, 0, 1, 0]
        for i, name in enumerate(ids):
            assert np.array_equal(data.samples[i], matrices[name])

    def test_rejects_shape_mismatch(self, tmp_path):
        manifest, _ = self.write_corpus(tmp_path)
        save_matrix(str(tmp_path / "mats" / "s2.txt"), np.eye(3))
        with pytest.raises(ValidationError, match="shape"):
            load_dataset(manifest)

    def test_rejects_missing_sample_file(self, tmp_path):
        manifest, _ = self.write_corpus(tmp_path)
        os.unlink(str(tmp_path / "mats" / "s3.txt"))
        with pytest.raises(ValidationError, match="cannot read"):
            load_dataset(manifest)


# a valid 2 x 2 sample file and one faulty variant per kind of fault a
# sample file can hold; each is bad input on its own
VALID_SAMPLE = b"2\n2 0.5\n0.5 1\n"
FAULTY_SAMPLES = {
    "non-numeric": b"2\n2 zebra\n0.5 1\n",
    "non-finite": b"2\n2 inf\ninf 1\n",
    "field count": b"2\n2 0.5 7\n0.5 1\n",
    "extra row": b"2\n2 0.5\n0.5 1\n1 1\n",
    "shape": b"3\n2 0 0\n0 2 0\n0 0 2\n",
    # its own fault is named ahead of its shape
    "shape, non-finite": b"3\n2 0 0\n0 inf 0\n0 0 2\n",
    "undecodable": b"2\n2 0.5\n0.5 1\xff\n",
    "indefinite": b"2\n1 0\n0 -1\n",
}


def expected_fault(manifest, kind, position):
    """The message loading the manifest one file at a time gives for a
    fault of `kind` in sample `position`."""
    path = os.path.join(os.path.dirname(manifest), f"s{position}.txt")
    if kind == "shape":
        return f"{manifest}: sample 's{position}' has shape (3, 3), expected (2, 2)"
    if kind == "indefinite":
        return f"{manifest}: sample {position} has min eigenvalue -1.000e+00"
    return reference_error(path, 1)


FAULT_PAIRS = [(a, b) for a in FAULTY_SAMPLES for b in FAULTY_SAMPLES if a != b]


class TestCrossFileFaultOrder:
    # each sample file is read and converted on its own, in manifest order
    @pytest.mark.parametrize(
        "first, second", FAULT_PAIRS,
        ids=[f"{a}-{b}-per-file" for a, b in FAULT_PAIRS],
    )
    def test_first_faulty_file_is_named(self, tmp_path, first, second):
        contents = [VALID_SAMPLE, FAULTY_SAMPLES[first], VALID_SAMPLE,
                    FAULTY_SAMPLES[second], VALID_SAMPLE]
        entries = []
        for k, content in enumerate(contents):
            (tmp_path / f"s{k}.txt").write_bytes(content)
            entries.append((f"s{k}", "ab"[k % 2], f"s{k}.txt"))
        manifest = str(tmp_path / "manifest.txt")
        save_manifest(manifest, entries)
        # every file is read before the samples are checked for definiteness
        kind, position = (second, 3) if first == "indefinite" else (first, 1)
        expected = expected_fault(manifest, kind, position)
        with pytest.raises(ValidationError) as got:
            load_dataset(manifest)
        if kind == "indefinite":
            assert str(got.value).startswith(expected)
        else:
            assert str(got.value) == expected


MATRIX_3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 4.0]])


class TestLineEndings:
    @pytest.mark.parametrize(
        "content",
        [
            "3\r\n2 0.5 0\r\n0.5 3 1\r\n0 1 4\r\n",
            "3\r2 0.5 0\r0.5 3 1\r0 1 4\r",
            "# head\r\n3\r\r\n2 0.5 0\n0.5 3 1\r0 1 4",
            "3\n2\x0c0.5 0\n0.5\x853\x1c1\n0\x0b1\u20284\n",
            "3\n\t2\t0.5\t0\t\n0.5 \t3  1\n  0 1 4  \n",
            "\n# head\n3\n\n2 0.5 0\n  # mid\n0.5 3 1\n\x0c\n0 1 4\n\n\n   \n",
            "3\n2 0.5 0\r\n\r\n0.5 3 1\r\r0 1 4\n",
        ],
        ids=["crlf", "cr", "mixed", "whitespace-in-row", "tabs",
             "comments-blanks-trailing", "blank-crlf-and-cr"],
    )
    def test_loads_as_text_mode_reads(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("utf-8"))
        got = load_matrix(str(path))
        assert got.tobytes() == rowwise_load(str(path), 1).tobytes()
        assert got.tobytes() == MATRIX_3.tobytes()
        # the same file as a dataset sample, under a manifest with the same
        # line ending as its first line
        newline = "\r\n" if "\r\n" in content else "\r" if "\r" in content else "\n"
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(newline.join(["s0 a m.txt", "s1 b m.txt", ""]).encode())
        data, ids, _ = load_dataset(str(manifest))
        assert ids == ["s0", "s1"]
        assert data.samples.tobytes() == np.stack([MATRIX_3, MATRIX_3]).tobytes()

    @pytest.mark.parametrize(
        "content",
        [
            "3\n2 0.5 0\x0c0.5 3 1\n0 1 4\n",
            "3\n2 0.5 0\x850.5 3 1\n0 1 4\n",
            "3\n2 0.5 0\u20280.5 3 1\n0 1 4\n",
            "3\r2 0.5\r0.5 3 1\r0 1 4\r",
            "3\r\n2 0.5 0\r\n0.5 x 1\r\n0 1 4\r\n",
            "# c\r3\r2 0.5 0\r0.5 3 1\r0 1 4\r1 1 1\r",
            "3\r\n2 0.5 0\r\n0.5 3 1\r\n",
            "3\r\n2 0.5 0\r\r\n0.5 3 1\r\n0 1 inf\r\n",
        ],
        ids=["formfeed-is-no-line-end", "nel-is-no-line-end",
             "u2028-is-no-line-end", "cr-short-row", "crlf-non-numeric",
             "cr-extra-row", "crlf-missing-row", "cr-crlf-non-finite"],
    )
    def test_faults_named_as_text_mode_reads(self, tmp_path, content):
        path = tmp_path / "m.txt"
        path.write_bytes(content.encode("utf-8"))
        message = reference_error(str(path), 1)
        with pytest.raises(ValidationError) as got:
            load_matrix(str(path))
        assert str(got.value) == message
        save_matrix(str(tmp_path / "ok.txt"), MATRIX_3)
        save_manifest(str(tmp_path / "manifest.txt"),
                      [("s0", "a", "ok.txt"), ("s1", "b", "m.txt")])
        with pytest.raises(ValidationError) as got:
            load_dataset(str(tmp_path / "manifest.txt"))
        assert str(got.value) == message

    def test_bad_byte_named_by_its_offset_in_the_file(self, tmp_path):
        # past the 8 KB chunks text mode decodes in, which would give the
        # byte's offset in its chunk
        path = tmp_path / "m.txt"
        path.write_bytes(b"1\n" + b"# " + b"x" * 12000 + b"\xff\n1\n")
        message = reference_error(str(path), 1)
        assert "position 12004" in message
        with pytest.raises(ValidationError) as got:
            load_matrix(str(path))
        assert str(got.value) == message


class TestDatasetParse:
    def test_stack_as_one_file_at_a_time(self, tmp_path, monkeypatch):
        """Mirrored and fully written files mixed stack bit for bit as each
        file alone loads."""
        entries, paths = [], []
        for k in range(9):
            path = str(tmp_path / f"s{k}.txt")
            X = mirrored_spd(4, k)
            if k % 3 == 1:
                write_table(tmp_path / f"s{k}.txt", X, "%.17e")
            else:
                save_matrix(path, X)
            entries.append((f"s{k}", "ab"[k % 2], f"s{k}.txt"))
            paths.append(path)
        save_manifest(str(tmp_path / "manifest.txt"), entries)
        counts = counted_conversions(monkeypatch)
        data, _, _ = load_dataset(str(tmp_path / "manifest.txt"))
        expected = np.stack([rowwise_load(path, 1) for path in paths])
        assert data.samples.tobytes() == expected.tobytes()
        # one conversion per file in manifest order: a mirrored file's 10
        # tokens, a fully converted one's 16
        assert counts == [10, 16, 10, 10, 16, 10, 10, 16, 10]
