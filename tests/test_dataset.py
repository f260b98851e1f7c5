"""Labeled CSV datasets: loading, saving, stratified splits, synthetic generation."""

import io
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_rbm import dataset
from spectral_rbm.dataset import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from spectral_rbm.errors import FormatError, ValidationError


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# unsorted, negative and int64-extreme labels, each class with 2 or more rows
AWKWARD_LABELS = [
    [3, -1, 3, 0, -1, 0, 3],
    [-5, -7, -5, -7, -6, -6],
    [INT64_MAX, INT64_MIN, 0, INT64_MAX, INT64_MIN, 0, INT64_MIN],
    [INT64_MIN + 1, INT64_MAX - 1, INT64_MAX - 1, INT64_MIN + 1],
]


def tiny_dataset():
    features = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    return LabeledDataset(features, labels, ("f1", "f2"))


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\n0.25,0.125,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0], [0.25, 0.125]])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.feature_names == ("f1", "f2")

    def test_label_column_position_is_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\n1,0.5,1.0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0]])
        assert ds.labels[0] == 1

    def test_bad_float_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\nnope,0.5,1\n")
        with pytest.raises(FormatError, match="row 3, column 'f1': 'nope' is not a number"):
            load_csv(path)

    def test_bad_label_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n0.5,zero\n")
        message = "row 2, column 'label': label 'zero' is not an integer"
        with pytest.raises(FormatError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("text, line", [
        ('"f\n1",label\n0.5,x\n', 3),  # the header spans lines 1 and 2
        ('f1,label\n"0.5\n\n",1\n0.5,x\n', 5),  # the first record spans lines 2 to 4
    ], ids=["header", "data-row"])
    def test_quoted_newlines_keep_file_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"row {line}, column 'label'"):
            load_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("f1,label\n0.5,1\n0." + "0" * 200_000 + "1,3\n", 3),
        ("f" + "1" * 200_000 + ",label\n0.5,3\n", 1),
    ], ids=["data-row", "header"])
    def test_cell_over_the_field_limit_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"row {line}: field larger than field limit"):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n0.5,1.5\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n0.5,1.0\n")
        with pytest.raises(FormatError, match="label column 'label' not in header"):
            load_csv(path)

    def test_repeated_header_name_rejected(self, tmp_path):
        # a second "label" would otherwise be read as a feature column
        path = tmp_path / "d.csv"
        for header, name in (("a,label,label", "label"), ("a,b,a,label", "a")):
            path.write_text(f"{header}\n" + ",".join(["0"] * header.count(",")) + ",1\n")
            with pytest.raises(FormatError, match=f"column '{name}' more than once"):
                load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,label\n0.5,1.0,0\n0.25,1\n")
        with pytest.raises(FormatError, match="row 3 has 2 cells, expected 3"):
            load_csv(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\ninf,0\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n")
        with pytest.raises(FormatError):
            load_csv(path)

    @pytest.mark.parametrize("label", ["99999999999999999999", "9223372036854775808",
                                       "-9223372036854775809",
                                       pytest.param("9" * 5000, id="5000-nines"),
                                       pytest.param("-" + "9" * 5000, id="minus-5000-nines"),
                                       pytest.param("1_0" + "0" * 5000, id="underscored-5002-digits"),
                                       pytest.param("\u0663" * 5000, id="5000-arabic-indic-threes")])
    def test_label_outside_int64_names_line_and_column(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"f1,label\n0.5,1\n0.5,{label}\n", encoding="utf-8")
        message = "row 3, column 'label': label '.*' does not fit in int64"
        with pytest.raises(FormatError, match=message):
            load_csv(path)

    def test_int64_extreme_labels_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n0.5,9223372036854775807\n0.5,-9223372036854775808\n")
        labels = load_csv(path).labels
        assert labels.tolist() == [2**63 - 1, -(2**63)]

    @pytest.mark.parametrize("content", [b"f\xe9,label\n0.5,1\n", b"f1,label\n0.5,1\n0.\xff,1\n"])
    def test_non_utf8_bytes_are_a_format_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(FormatError, match="not UTF-8") as info:
            load_csv(path)
        assert str(path) in str(info.value)


def _outcome(path):
    """What load_csv makes of path: the arrays' bytes, or the exception's type and message."""
    try:
        ds = load_csv(path)
    except Exception as exc:  # noqa: BLE001 - the comparison is over any outcome
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.dtype, ds.labels.tobytes(),
            ds.feature_names)


# cells and lines the fast path must send to the csv.reader loop, or read
# as float() and int() do
_ODD_CELLS = ["1_0", "\u0663", "1.5\x1c", "\x1f2", "inf", "-inf", "nan", "3.0", "1e3", '"1"',
              '"1,5"', "", " ", " 2 ", "+7", "0003", "-0", "1.", ".5", ".", "1e", "--1", "1 2",
              "1e999", "99999999999999999999", "9223372036854775808", "-9223372036854775808",
              "1\t", "0x10", "\u00bd"]
_ODD_LINES = ["", " ", "\t", "1", "1,2", "1,2,3,4,5", ","]
_FEATURE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.integers(-(10**20), 10**20).map(str),
)
_LABEL_CELLS = st.integers(-(2**63), 2**63 - 1).map(str)
# short labels as save_csv writes them, and as a hand-edited file may hold them
_SHORT_LABEL_CELLS = st.one_of(st.text("0123456789", min_size=1, max_size=3),
                               st.text("0123456789", min_size=1, max_size=2).map("-".__add__))
# cells that end the fixed offsets of a 0/1 body, or read to other values
_ODD_BINARY_CELLS = ["2", "00", " 1", "", "-0", "+"]


def _text(draw, lines):
    """lines, with maybe an odd line among them, joined by \\n, \\r\\n or \\r line ends."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(_ODD_LINES)))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    end = draw(ends)
    mixed = draw(st.booleans())
    text = "".join(line + (draw(ends) if mixed else end) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _mutate(draw, rows, width, cells):
    """Set a few cells of rows to odd ones drawn from cells."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 3])) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(cells))


@st.composite
def _csv_texts(draw):
    """Labeled CSV text: well-formed rows, then a few odd cells, lines and line ends."""
    width = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, width - 1))
    rows = [[draw(_LABEL_CELLS if i == label_idx else _FEATURE_CELLS) for i in range(width)]
            for _ in range(draw(st.integers(0, 5)))]
    _mutate(draw, rows, width, _ODD_CELLS)
    lines = [",".join("label" if i == label_idx else f"f{i}" for i in range(width))]
    return _text(draw, lines + [",".join(row) for row in rows])


@st.composite
def _binary_texts(draw):
    """A 0/1 body with the label last, as save_csv writes one, then a few odd cells and lines."""
    width = draw(st.integers(1, 5))
    rows = [[*(draw(st.sampled_from("01")) for _ in range(width - 1)), draw(_SHORT_LABEL_CELLS)]
            for _ in range(draw(st.integers(0, 5)))]
    _mutate(draw, rows, width, _ODD_BINARY_CELLS)
    lines = [",".join([*(f"f{i}" for i in range(1, width)), "label"])]
    return _text(draw, lines + [",".join(row) for row in rows])


_SCAN_BODY = dataset._scan_body


def _without_digits(fh, label_idx, width):
    """_scan_body, but never offering feature digits: the body takes the np.loadtxt pass."""
    scanned = _SCAN_BODY(fh, label_idx, width)
    return scanned and (scanned[0], None)


class TestFastLoad:
    @settings(derandomize=True, deadline=None, max_examples=600, database=None)
    @given(text=st.one_of(_csv_texts(), _binary_texts()))
    @example(text="f1,label\n1.5\x1c,3\n")  # loadtxt skips U+001C as whitespace
    @example(text="label\n3\n\n4\n")  # loadtxt skips a blank line
    @example(text="f1,label\n1e999,3\n")  # loadtxt reads inf
    @example(text="label\n\n")  # loadtxt warns that there is no data
    @example(text="f1,label\n1,2,3\n4\n")  # a long row and a short one
    @example(text="f1,label\r\n0.5,1\r\r\n")  # a blank line after a lone \r
    @example(text="f1,label\n0." + "0" * 140000 + "1,3\n")  # over csv's cell size limit
    # a header over two physical lines before a real-valued body: the body starts
    # at one byte offset for the scan and the np.loadtxt pass alike
    @example(text='"f\n1",label\n0.5,3\n')
    @example(text='"f\r1",label\r0.5,3\r0.25,-4\r')
    @example(text='"f\r\n1",label\r\n0.5,3\r\n')
    @example(text="\ufefff1,label\n0.5,3\n")  # a byte-order mark is header bytes
    # csv.reader takes a cell of csv.field_size_limit() = 131072 bytes and refuses
    # one byte more: feature and label cells of 131071, 131072 and 131073 bytes
    @example(text="f1,label\n0." + "0" * 131068 + "1,3\n")
    @example(text="f1,label\n0." + "0" * 131069 + "1,3\n")
    @example(text="f1,label\n0." + "0" * 131070 + "1,3\n")
    @example(text="f1,label\n0.5," + " " * 131070 + "3\n")
    @example(text="f1,label\n0.5," + " " * 131071 + "3\n")
    @example(text="f1,label\n0.5," + " " * 131072 + "3\n")
    def test_fast_path_agrees_with_the_csv_reader_loop(self, text):
        # the 0/1 decode, a forced np.loadtxt pass and the csv.reader loop
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/d.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            fast = _outcome(path)
            with mock.patch.object(dataset, "_scan_body", _without_digits):
                forced = _outcome(path)
            with mock.patch.object(dataset, "_fast_body", return_value=None):
                slow = _outcome(path)
        assert fast == forced == slow

    @pytest.mark.parametrize("text, labels", [
        ("f1,label,f2\n0.5,3,-1e-3\n1,-4,2.5E+2\n", [3, -4]),
        ("f1,label\r\n0.5,3\r\n1,4", [3, 4]),
        ("f1,label\r0.5,3\r1,4\r", [3, 4]),
        ('"f\n1",label\n0.5,3\n', [3]),  # the header takes two physical lines
        ('"f\r1",label\r\n0.5,3\r\n', [3]),
        ("label\n3\n-4\n", [3, -4]),
        # cells of csv.field_size_limit() bytes
        pytest.param("f1,label\n0." + "0" * 131069 + "1,3\n", [3], id="feature-cell-at-limit"),
        pytest.param("f1,label\n0.5," + " " * 131071 + "3\n", [3], id="label-cell-at-limit"),
    ])
    def test_fast_path_reads_clean_files(self, tmp_path, text, labels):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataset, "_read_body", side_effect=AssertionError("slow path")):
            ds = load_csv(path)
        assert ds.labels.tolist() == labels

    @pytest.mark.parametrize("text, features", [
        ("label,f1,f2\n3,0.5,1.5\n4,0.25,2\n", [[0.5, 1.5], [0.25, 2.0]]),
        ("f1,f2,label\n0,1,3\n1,1,4\n", [[0.0, 1.0], [1.0, 1.0]]),
    ], ids=["label-first", "label-last"])
    @pytest.mark.parametrize("path_taken", ["fast", "csv-reader-loop"])
    def test_a_byte_order_mark_before_the_header_is_skipped(self, tmp_path, text, features,
                                                             path_taken):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        # on the fast path the mark's three bytes count towards the body's offset
        if path_taken == "fast":
            patch = mock.patch.object(dataset, "_read_body", side_effect=AssertionError("slow"))
        else:
            patch = mock.patch.object(dataset, "_fast_body", return_value=None)
        with patch:
            ds = load_csv(path)
        assert ds.feature_names == ("f1", "f2")
        assert ds.features.tolist() == features
        assert ds.labels.tolist() == [3, 4]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_binary_file_is_decoded_without_loadtxt(self, tmp_path, end):
        rng = np.random.default_rng(0)
        ds = LabeledDataset((rng.random((40, 7)) < 0.5).astype(float), rng.integers(-3, 300, 40))
        path = tmp_path / "b.csv"
        save_csv(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        with mock.patch.object(dataset.np, "loadtxt", side_effect=AssertionError("loadtxt")), \
                mock.patch.object(dataset, "_read_body", side_effect=AssertionError("slow path")):
            back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tolist() == ds.labels.tolist()

    @pytest.mark.parametrize("text", [
        "f1,f2,label\n0.5,1,3\n0.25,0,-4\n",  # real-valued
        "label,f1,f2\n3,0,1\n-4,1,0\n",  # 0/1 features, but the label is not last
    ], ids=["real-valued", "label-not-last"])
    def test_other_clean_files_take_one_loadtxt_pass(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with mock.patch.object(dataset.np, "loadtxt", wraps=dataset.np.loadtxt) as loadtxt, \
                mock.patch.object(dataset, "_read_body", side_effect=AssertionError("slow path")):
            ds = load_csv(path)
        assert loadtxt.call_count == 1
        assert ds.labels.tolist() == [3, -4]

    def test_scan_counts_physical_lines_across_read_chunks(self):
        # a read ends at a line end: the first read's _SCAN_READ bytes end in the
        # \r of a \r\n, and it goes on to take the \n
        read = dataset._SCAN_READ
        rows = b"0,1\n" * (read // 4 - 1) + b"0,1"
        assert len(rows) + 1 == read
        count = len(rows) // 4 + 1
        assert dataset._scan_body(io.BytesIO(rows + b"\r\n1,2\r0,-4"), 1, 2) == (
            [b"1"] * count + [b"2", b"-4"], b"0" * count + b"10")
        assert dataset._scan_body(io.BytesIO(rows + b"\r\n1,2\r3,4"), 1, 2) == (
            [b"1"] * count + [b"2", b"4"], None)
        # a blank line is a row of one empty cell
        assert dataset._scan_body(io.BytesIO(rows + b"\r\n\n"), 1, 2) is None
        assert dataset._scan_body(io.BytesIO(b"3\r\n\n4"), 0, 1) == ([b"3", b"", b"4"], b"")
        assert dataset._scan_body(io.BytesIO(b""), 1, 2) == ([], b"")
        assert dataset._scan_body(io.BytesIO(b"1,2\n\"x\"\n"), 1, 2) is None
        assert dataset._scan_body(io.BytesIO(b"0" * 140000 + b",1\n"), 1, 2) is None
        # the first _SCAN_READ bytes end inside a label cell, and then inside a
        # 0/1 line; the read goes on to the end of that line
        count = read // 6 - 1
        for line, cut in ((b"1,0,-123", 6), (b"1,1,7", 2)):
            lead = b"0,1,5\n" * (count - 1) + b"0,1," + b"5" * (11 - cut) + b"\n"
            assert len(lead) + cut == read
            body = lead + line + b"\n0,1,0\n"
            assert dataset._scan_body(io.BytesIO(body), 2, 3) == (
                [b"5"] * (count - 1) + [b"5" * (11 - cut), line[4:], b"0"],
                b"01" * count + line[:3:2] + b"01")
            assert dataset._scan_body(io.BytesIO(body), 0, 3) == (
                [b"0"] * count + [line[:1], b"0"], None)
        # a body whose only line ends are lone \r holds no \n for a read to stop at
        assert dataset._scan_body(io.BytesIO(b"0,1\r" * 300_000), 1, 2) == (
            [b"1"] * 300_000, b"0" * 300_000)


class TestSaveCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_binary_values_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        features = (rng.random((30, 10)) < 0.5).astype(np.float64)
        labels = rng.integers(0, 3, 30)
        ds = LabeledDataset(features, labels, tuple(f"f{i}" for i in range(1, 11)))
        path = tmp_path / "b.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, features)

    def test_awkward_floats_round_trip(self, tmp_path):
        features = np.array([[0.1 + 0.2, 1e-300], [5e-324, 1.0 / 3.0]])
        ds = LabeledDataset(features, np.array([0, 1]), ("a", "b"))
        path = tmp_path / "f.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == features.tobytes()

    def test_integral_floats_written_without_point(self, tmp_path):
        ds = LabeledDataset(np.array([[0.0, 1.0]]), np.array([0]), ("a", "b"))
        path = tmp_path / "i.csv"
        save_csv(ds, path)
        assert path.read_text() == "a,b,label\n0,1,0\n"

    @pytest.mark.parametrize("value, text", [
        (-0.0, "0"),
        (5e-324, "5e-324"),
        (1e16, "10000000000000000"),
        (2.0**60, "1152921504606846976"),
        (1.7976931348623157e308,
         "17976931348623157081452742373170435679807056752584499659891747680315726078002853876"
         "05895586327668781715404589535143824642343213268894641827684675467035375169860499105"
         "76551282076245490090389328944075868508455133942304583236903222948165808559332123348"
         "274797826204144723168738177180919299881250404026184124858368"),
        (0.1 + 0.2, "0.30000000000000004"),
    ])
    def test_golden_value_text(self, tmp_path, value, text):
        ds = LabeledDataset(np.array([[value], [0.5]]), np.array([1, 0]), ("a",))
        path = tmp_path / "v.csv"
        save_csv(ds, path)
        assert path.read_text() == f"a,label\n{text},1\n0.5,0\n"

    @pytest.mark.parametrize("write_path", ["binary", "real"])
    @pytest.mark.parametrize("features, labels, text", [
        ([[1.0, 0.0, -0.0, 1.0]], [7], "f1,f2,f3,f4,label\n1,0,0,1,7\n"),
        (np.empty((2, 0)), [0, -5], "label\n0\n-5\n"),
        ([[0.0, 1.0], [1.0, 1.0]], [2**63 - 1, -(2**63)],
         "f1,f2,label\n0,1,9223372036854775807\n1,1,-9223372036854775808\n"),
    ])
    def test_golden_binary_matrix_text(self, tmp_path, monkeypatch, write_path, features,
                                       labels, text):
        # both write paths give a 0/1 matrix the same bytes
        if write_path == "real":
            monkeypatch.setattr(dataset, "is_binary", lambda features: False)
        ds = LabeledDataset(np.array(features, dtype=float), np.array(labels, dtype=np.int64))
        path = tmp_path / "b.csv"
        save_csv(ds, path)
        assert path.read_text() == text
        back = load_csv(path)
        assert back.features.tobytes() == (ds.features + 0.0).tobytes()
        assert back.labels.tolist() == labels

    def test_label_name_collision_rejected(self, tmp_path):
        ds = LabeledDataset(np.array([[1.0]]), np.array([0]), ("label",))
        with pytest.raises(ValidationError):
            save_csv(ds, tmp_path / "c.csv")


class TestSplit:
    def test_even_halves(self):
        rng = np.random.default_rng(1)
        features = rng.random((208, 4))
        labels = np.repeat(np.array([0, 1], dtype=np.int64), 104)
        ds = LabeledDataset(features, labels, ("a", "b", "c", "d"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert train.sample_count == 104
        assert test.sample_count == 104

    def test_large_even_halves(self):
        rng = np.random.default_rng(2)
        counts = {0: 3410, 1: 3408}
        labels = np.repeat(np.array([0, 1], dtype=np.int64), [3410, 3408])
        features = rng.random((6818, 2))
        ds = LabeledDataset(features, labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=7))
        assert train.sample_count == 3409
        assert test.sample_count == 3409
        for part in (train, test):
            for c in (0, 1):
                assert int((part.labels == c).sum()) == counts[c] // 2

    def test_odd_class_count_remainder_goes_to_test(self):
        rng = np.random.default_rng(12)
        labels = np.repeat(np.array([0, 1], dtype=np.int64), [9, 5])
        ds = LabeledDataset(rng.random((14, 2)), labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert int((train.labels == 0).sum()) == 4
        assert int((test.labels == 0).sum()) == 5

    def test_floor_rule_per_class(self):
        rng = np.random.default_rng(3)
        labels = np.array([0] * 7 + [1] * 5 + [2] * 9, dtype=np.int64)
        features = rng.random((21, 3))
        ds = LabeledDataset(features, labels, ("a", "b", "c"))
        train, test = split(ds, SplitSpec(train_fraction=0.6, seed=1))
        for c, count in ((0, 7), (1, 5), (2, 9)):
            want = math.floor(count * 0.6)
            assert int((train.labels == c).sum()) == want
            assert int((test.labels == c).sum()) == count - want

    def test_partition_exact(self):
        rng = np.random.default_rng(4)
        features = rng.random((40, 2))
        labels = rng.integers(0, 3, 40)
        ds = LabeledDataset(features, labels, ("a", "b"))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=9))
        # every original row lands in exactly one half
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == 40
        original = {tuple(row) for row in features}
        assert {tuple(row) for row in combined} == original

    def test_original_row_order_preserved_within_parts(self):
        # encode the original index in the feature so order is checkable
        features = np.arange(20, dtype=np.float64).reshape(20, 1)
        labels = np.tile(np.array([0, 1], dtype=np.int64), 10)
        ds = LabeledDataset(features, labels, ("idx",))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=3))
        assert np.all(np.diff(train.features[:, 0]) > 0)
        assert np.all(np.diff(test.features[:, 0]) > 0)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(5)
        features = rng.random((60, 2))
        labels = rng.integers(0, 2, 60)
        ds = LabeledDataset(features, labels, ("a", "b"))
        t1, _ = split(ds, SplitSpec(train_fraction=0.5, seed=11))
        t2, _ = split(ds, SplitSpec(train_fraction=0.5, seed=11))
        np.testing.assert_array_equal(t1.features, t2.features)
        t3, _ = split(ds, SplitSpec(train_fraction=0.5, seed=12))
        assert not np.array_equal(t1.features, t3.features)

    def test_single_sample_class_rejected(self):
        ds = LabeledDataset(np.ones((3, 1)), np.array([0, 0, 1]), ("a",))
        with pytest.raises(ValidationError):
            split(ds, SplitSpec(train_fraction=0.5, seed=0))

    def test_class_with_no_training_rows_rejected(self):
        # floor(4 * 0.2) = 0: class 2 would be missing from the training side
        labels = np.repeat(np.array([0, 1, 2], dtype=np.int64), [10, 10, 4])
        ds = LabeledDataset(np.ones((24, 1)), labels, ("a",))
        with pytest.raises(ValidationError, match="class 2"):
            split(ds, SplitSpec(train_fraction=0.2, seed=0))
        train, _ = split(ds, SplitSpec(train_fraction=0.25, seed=0))
        assert train.class_ids() == [0, 1, 2]

    def test_every_class_keeps_a_test_row(self):
        # the largest fraction below 1 still floors to fewer rows than a class has
        ds = LabeledDataset(np.ones((10, 1)), np.tile(np.array([0, 1], dtype=np.int64), 5), ("a",))
        train, test = split(ds, SplitSpec(train_fraction=float(np.nextafter(1.0, 0.0)), seed=0))
        assert (train.sample_count, test.sample_count) == (8, 2)
        assert test.class_ids() == [0, 1]

    def test_bad_fraction_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                SplitSpec(train_fraction=bad, seed=0)

    @pytest.mark.parametrize("labels", AWKWARD_LABELS)
    def test_draws_are_np_unique_order_draws(self, monkeypatch, labels):
        # classes are visited in sorted order, as np.unique gave them, so the rng's
        # draws go to the same class and every split is the one np.unique's loop made
        labels = np.array(labels, dtype=np.int64)
        spec = SplitSpec(train_fraction=0.5, seed=4)
        got = dataset.split_indices(labels, spec)
        monkeypatch.setattr(dataset, "_distinct", np.unique)
        for part, want in zip(got, dataset.split_indices(labels, spec)):
            np.testing.assert_array_equal(part, want)

    @pytest.mark.parametrize("labels, fraction, message", [
        ([INT64_MAX, INT64_MIN, INT64_MAX], 0.5,
         f"stratified split needs >= 2 samples per class, class {INT64_MIN} has 1"),
        ([-3, 5, -3, 5, 5, 5], 0.3,
         "train_fraction 0.3 leaves class -3 no training rows (it has 2)"),
    ])
    def test_a_refused_class_is_named_by_its_label(self, labels, fraction, message):
        with pytest.raises(ValidationError) as got:
            dataset.split_indices(np.array(labels, dtype=np.int64),
                                  SplitSpec(train_fraction=fraction, seed=0))
        assert str(got.value) == message


class TestSynthGenerate:
    def test_zero_noise_reproduces_templates(self):
        spec = SynthSpec(classes=2, samples_per_class=5, dim=8, noise=0.0, seed=0)
        ds = synth_generate(spec)
        assert ds.sample_count == 10
        class0 = ds.features[ds.labels == 0]
        class1 = ds.features[ds.labels == 1]
        # every row matches its class template exactly
        for block in (class0, class1):
            assert np.all(block == block[0])
        np.testing.assert_array_equal(class0[0], [1, 1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(class1[0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_full_separation_templates_are_complementary(self):
        for dim in (6, 10, 17):
            spec = SynthSpec(classes=2, samples_per_class=1, dim=dim,
                             noise=0.0, seed=0)
            ds = synth_generate(spec)
            a = ds.features[ds.labels == 0][0]
            b = ds.features[ds.labels == 1][0]
            assert int(np.abs(a - b).sum()) == dim

    def test_noise_flip_rate_within_three_sigma(self):
        spec = SynthSpec(classes=2, samples_per_class=400, dim=50, noise=0.1, seed=42)
        ds = synth_generate(spec)
        clean = synth_generate(SynthSpec(classes=2, samples_per_class=1, dim=50,
                                         noise=0.0, seed=0))
        total_flips = 0
        for c in (0, 1):
            template = clean.features[clean.labels == c][0]
            rows = ds.features[ds.labels == c]
            total_flips += int(np.abs(rows - template).sum())
        n_entries = ds.sample_count * 50
        rate = total_flips / n_entries
        sigma = math.sqrt(0.1 * 0.9 / n_entries)
        assert abs(rate - 0.1) <= 3.0 * sigma

    def test_deterministic_per_seed(self):
        spec = SynthSpec(classes=3, samples_per_class=20, dim=15, noise=0.2, seed=17)
        a = synth_generate(spec)
        b = synth_generate(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_generate(SynthSpec(classes=3, samples_per_class=20, dim=15, noise=0.2,
                                     seed=18))
        assert not np.array_equal(a.features, c.features)

    def test_labels_class_major_and_names_sequential(self):
        spec = SynthSpec(classes=3, samples_per_class=2, dim=4, noise=0.0, seed=0)
        ds = synth_generate(spec)
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1, 2, 2])
        assert ds.feature_names == ("f1", "f2", "f3", "f4")

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(classes=1, samples_per_class=5, dim=4)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=0, dim=4)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=5, dim=0)
        with pytest.raises(ValidationError):
            SynthSpec(classes=2, samples_per_class=5, dim=4, noise=1.5)
        with pytest.raises(ValidationError) as got:
            SynthSpec(classes=5, samples_per_class=5, dim=3)
        assert str(got.value) == ("dim 3 is fewer than classes (5): "
                                  "every class needs a dimension of its own")


class TestLabeledDataset:
    def test_class_helpers(self):
        ds = tiny_dataset()
        np.testing.assert_array_equal(ds.class_ids(), [0, 1])
        np.testing.assert_array_equal(ds.class_matrices()[1],
                                      [[1.0, 0.0], [0.25, 0.75]])

    @pytest.mark.parametrize("labels", AWKWARD_LABELS + [[], [INT64_MIN]])
    def test_class_ids_are_sorted_distinct_python_ints(self, labels):
        ds = LabeledDataset(np.ones((len(labels), 1)), np.array(labels, dtype=np.int64))
        ids = ds.class_ids()
        assert ids == sorted(set(labels))
        assert all(type(c) is int for c in ids)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.ones((2, 2)), np.array([0]), ("a", "b"))
        with pytest.raises(ValidationError):
            LabeledDataset(np.ones((2, 2)), np.array([0, 1]), ("a",))
        with pytest.raises(ValidationError):
            LabeledDataset(np.full((2, 2), np.nan), np.array([0, 1]), ("a", "b"))
