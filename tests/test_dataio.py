"""CSV round trips, parse errors, and configuration validation."""

import json
import re
import sys
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evidencer import dataio
from evidencer.dataio import ResultTable, load_config, load_matrix, save_matrix
from evidencer.errors import ConfigError, ParseError
from evidencer.pipeline import STAGE_NAMES, RunOptions, run_pipeline

from helpers import build_toy_workspace, load_matrix_by_cells, save_matrix_by_cells


class TestLoadMatrix:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        mat = load_matrix(path)
        assert mat.shape == (3, 2)
        assert mat.columns is None
        np.testing.assert_array_equal(mat.values, [[1, 2], [3, 4], [5, 6]])

    def test_header_captured(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("v1,v2\n1.5,2.5\n")
        mat = load_matrix(path)
        assert mat.columns == ("v1", "v2")
        np.testing.assert_array_equal(mat.values, [[1.5, 2.5]])

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.25e-300,-3e10\n")
        mat = load_matrix(path)
        np.testing.assert_array_equal(mat.values, [[1.25e-300, -3e10]])

    def test_ragged_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no data"):
            load_matrix(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError, match="no data"):
            load_matrix(path)

    def test_trailing_blank_line_tolerated(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n\n")
        assert load_matrix(path).shape == (2, 2)

    def test_interior_blank_line_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n3,4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(path)


class TestCReader:
    """The C reader against the per-cell reference reader."""

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    @staticmethod
    def _outcome(reader, path):
        try:
            return "accept", reader(path)
        except ParseError as exc:
            named = re.search(r"\bline (\d+)", str(exc))
            return "reject", named and int(named.group(1))

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.sampled_from(
                list("0123456789.eE+-,\" #ax") + ["\n", "\r\n", "nan", "inf"]
            ),
            max_size=40,
        ).map("".join)
    )
    def test_agrees_with_reference_reader(self, tmp_path, text):
        path = self._write(tmp_path, text)
        verdict, new = self._outcome(load_matrix, path)
        ref_verdict, ref = self._outcome(load_matrix_by_cells, path)
        assert verdict == ref_verdict
        if verdict == "reject":
            assert new == ref  # the same line, or none for "no data rows"
        else:
            assert new.values.shape == ref.values.shape
            assert new.values.tobytes() == ref.values.tobytes()
            assert new.columns == ref.columns

    def test_hash_in_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3,#4\n")
        with pytest.raises(ParseError, match="m.csv, line 2, column 2"):
            load_matrix(path)

    def test_quoted_numeric_cell(self, tmp_path):
        mat = load_matrix(self._write(tmp_path, '1,"2.5"\n" 3 ",4\n'))
        np.testing.assert_array_equal(mat.values, [[1.0, 2.5], [3.0, 4.0]])

    def test_quoted_header_label_with_comma(self, tmp_path):
        mat = load_matrix(self._write(tmp_path, '"a,b",c\n1,2\n'))
        assert mat.columns == ("a,b", "c")
        np.testing.assert_array_equal(mat.values, [[1.0, 2.0]])

    def test_crlf_line_endings(self, tmp_path):
        mat = load_matrix(self._write(tmp_path, "v1,v2\r\n1,2\r\n3,4\r\n"))
        assert mat.columns == ("v1", "v2")
        np.testing.assert_array_equal(mat.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_trailing_comma_rows_tolerated(self, tmp_path):
        mat = load_matrix(self._write(tmp_path, "1,2,3\n4,5,6\n,,\n , ,\n"))
        np.testing.assert_array_equal(mat.values, [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("cell", ["1_000", "\u0663", "1\u0660"])
    def test_underscore_and_non_ascii_digits_rejected(self, tmp_path, cell):
        # float() reads these; the C reader does not, and neither does load_matrix
        path = self._write(tmp_path, f"1,2\n3,{cell}\n")
        assert load_matrix_by_cells(path).shape == (2, 2)
        with pytest.raises(ParseError, match="line 2, column 2: non-numeric"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("1,2\n3,\n", "line 2, column 2: empty cell"),
            ("1,2\n3,x\n", "line 2, column 2: non-numeric cell 'x'"),
            ("1,2\n3,4,5\n", "line 2: ragged row with 3 cells"),
            ("a,b,c\n1,2\n", "line 2: ragged row with 2 cells, expected 3"),
            ("1,2\n \n3,4\n", "line 2: blank row"),
            # a blank first line is a blank row, not an empty header
            ("\n1.0,2.0\n", "line 1: blank row inside the file"),
            (" \n1.0\n", "line 1: blank row inside the file"),
            (" \n1.0000000000000000e+00\n", "line 1: blank row inside the file"),
            ("1,2\n3,x\n5,6,7\n", "line 2, column 2"),
            ('1,2\n3,"4\n', "line 2: unterminated quoted cell"),
            ('"1', "line 1: unterminated quoted cell"),
            # lines count records: the header's quoted cell spans two
            ('"a\nb",c\n1,2\n3,"4', "line 3: unterminated quoted cell"),
        ],
    )
    def test_errors_name_file_line_and_column(self, tmp_path, text, named):
        path = self._write(tmp_path, text)
        with pytest.raises(ParseError, match=re.escape(f"{path}, {named}")):
            load_matrix(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("1.5,2x\n3,4\n", "line 1, column 2: non-numeric cell '2x'"),
            ("1,2\x00\n3,4\n", "line 1, column 2: non-numeric cell '2\\x00'"),
            (" ,7\n3,4\n", "line 1, column 1: empty cell"),
        ],
    )
    def test_malformed_first_row_is_not_a_header(self, tmp_path, text, named):
        # a first row is a header only when none of its cells is a number
        path = self._write(tmp_path, text)
        with pytest.raises(ParseError, match=re.escape(f"{path}, {named}")):
            load_matrix(path)
        with pytest.raises(ParseError, match="line 1"):
            load_matrix_by_cells(path)

    def test_writer_matches_reference_bytes(self, tmp_path):
        values = TestRoundTrip.values()
        columns = [f"v{i}" for i in range(values.shape[1])]
        save_matrix(tmp_path / "new.csv", values, columns=columns)
        save_matrix_by_cells(tmp_path / "ref.csv", values, columns=columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRoundTrip:
    @staticmethod
    def values():
        rng = np.random.default_rng(0)
        return np.concatenate(
            [
                rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40),
                [0.0, 1.0, -1.0, np.pi, 1e-308, -1e308],
            ]
        ).reshape(2, 23)

    def test_exact_double_round_trip(self, tmp_path):
        values = self.values()
        path = tmp_path / "rt.csv"
        save_matrix(path, values, columns=[f"v{i}" for i in range(23)])
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, values)
        assert back.columns == tuple(f"v{i}" for i in range(23))

    def test_written_format_is_scientific_17_digits(self, tmp_path):
        path = tmp_path / "fmt.csv"
        save_matrix(path, np.array([[np.pi]]))
        text = path.read_text().strip()
        assert text == "3.1415926535897931e+00"


def _canonical(value) -> str:
    """``value`` (a float or a Decimal) as ``%.16e`` with two or more
    exponent digits, rounded half to even."""
    mantissa, exponent = f"{value:.16e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


def _double(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


_FINITE_DOUBLE = st.integers(0, 2**64 - 1).map(_double).filter(np.isfinite)


@st.composite
def _midpoint_cells(draw):
    """The 17-digit rounding of the exact midpoint of two adjacent doubles."""
    low = abs(draw(_FINITE_DOUBLE))
    high = float(np.nextafter(low, np.inf))
    if not np.isfinite(high):
        low, high = float(np.nextafter(low, 0.0)), low
    with localcontext() as ctx:
        ctx.prec = 800  # exact: a double has at most 767 significant digits
        middle = (Decimal(low) + Decimal(high)) / 2
    return ("-" if draw(st.booleans()) else "") + _canonical(middle)


_CANONICAL_CELLS = st.one_of(
    # every finite double, subnormals, zeros and the largest ones included
    _FINITE_DOUBLE.map(_canonical),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max]).map(_canonical),
    # any 17 digits with any exponent of two or three digits
    st.builds(
        lambda sign, digits, exponent: f"{sign}{digits[0]}.{digits[1:]}e{exponent:+03d}",
        st.sampled_from(["", "-"]),
        st.integers(0, 10**17 - 1).map("{:017d}".format),
        st.integers(-99, 99) | st.integers(-999, 999),
    ),
    _midpoint_cells(),
)
_CANONICAL_CELL = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")


class TestCanonicalReader:
    """The exact reader of ``%.16e`` cells against ``float()`` per cell and
    against the reader it falls back to."""

    @staticmethod
    def _write(tmp_path, text, name="m.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return path

    @staticmethod
    def _result(path):
        """What load_matrix makes of ``path``: values and labels, or the error."""
        try:
            mat = load_matrix(path)
        except ParseError as exc:
            return str(exc)
        return mat.values.shape, mat.values.tobytes(), mat.columns

    def _fallback_result(self, path):
        with mock.patch.object(dataio, "_EXACT_LONGDOUBLE", False):
            return self._result(path)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.lists(_CANONICAL_CELLS, min_size=width, max_size=width),
                    min_size=1,
                    max_size=4,
                ),
            )
        ),
        st.booleans(),
        st.sampled_from([64, 1 << 18]),
    )
    def test_equals_float_per_cell(self, tmp_path, shape_rows, header, block_bytes):
        width, rows = shape_rows
        lines = [",".join(f"v{i + 1}" for i in range(width))] if header else []
        lines += [",".join(row) for row in rows]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        with mock.patch.object(dataio, "_BLOCK_BYTES", block_bytes):
            mat = load_matrix(path)
            fast = dataio._load_canonical(path)
        ref = load_matrix_by_cells(path)
        assert mat.values.tobytes() == ref.values.tobytes()
        assert mat.columns == ref.columns
        canonical = all(_CANONICAL_CELL.fullmatch(c) for row in rows for c in row)
        assert (fast is not None) == (canonical and dataio._EXACT_LONGDOUBLE)

    @pytest.mark.parametrize(
        "cell, value",
        [
            ("9.0071992547409930e+15", 2.0**53),  # 2**53 + 1, halfway: to even
            ("-0.0000000000000000e+00", -0.0),
            ("4.9406564584124654e-324", 5e-324),
            ("1.7976931348623157e+308", sys.float_info.max),
            # not halfway, but their long double is: rounding that to a
            # double would give the neighbour, so float() reads them
            ("6.0686851400424405e+06", 6068685.14004244),
            ("-9.9266242444890966e+04", -99266.24244489097),
            ("9.8721221468156704e-03", 0.00987212214681567),
            ("5.6080998138750278e+32", 5.608099813875028e32),
        ],
    )
    def test_named_cells(self, tmp_path, cell, value):
        path = self._write(tmp_path, f"v1,v2\n{cell},{cell}\n")
        mat = load_matrix(path)
        assert mat.values.tobytes() == np.array([[value, value]]).tobytes()
        assert mat.values.tobytes() == load_matrix_by_cells(path).values.tobytes()

    def test_near_midpoints_equal_float(self, tmp_path):
        # the 17-digit rounding of the midpoint of a double and the next one
        # up, within |q| <= 27; the long double of some lies exactly halfway
        rng = np.random.default_rng(7)
        cells = []
        for low in rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-11, 43, 4000):
            high = float(np.nextafter(low, np.inf))
            with localcontext() as ctx:
                ctx.prec = 800
                cells.append(_canonical((Decimal(low) + Decimal(high)) / 2))
        rows = map(",".join, zip(*[iter(cells)] * 40))
        header = ",".join(f"v{i + 1}" for i in range(40))
        path = self._write(tmp_path, "\n".join([header, *rows]) + "\n")
        halfway, real = [], dataio._halfway

        def spy(exact):
            found = real(exact)
            halfway.append(int(found.sum()))
            return found

        with mock.patch.object(dataio, "_halfway", spy):
            matrix = load_matrix(path)
        assert not matrix.declined
        assert matrix.values.tobytes() == np.array([float(c) for c in cells]).tobytes()
        assert sum(halfway) > 0 or not dataio._EXACT_LONGDOUBLE

    @pytest.mark.parametrize("wide_share, declined", [(0.7, True), (0.1, False)])
    def test_a_block_of_mostly_float_cells_is_declined(self, tmp_path, wide_share, declined):
        # cells with |q| > 27 go to float() one by one; where they are most
        # of a block, the general reader is faster and the file goes there
        rng = np.random.default_rng(11)
        wide = rng.random((40, 500)) < wide_share
        exponent = np.where(wide, rng.choice([-90, -60, 40, 90], wide.shape), 0)
        values = rng.uniform(-10, 10, wide.shape) * 10.0**exponent
        cells = [[_canonical(v) for v in row] for row in values.tolist()]
        path = self._write(tmp_path, "\n".join(map(",".join, cells)) + "\n")
        matrix = load_matrix(path)
        assert matrix.declined == (declined and dataio._EXACT_LONGDOUBLE)
        expected = np.array([[float(c) for c in row] for row in cells])
        assert matrix.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "nmant, bits", [(52, None), (63, (0x7FF, 0x400)), (112, (2**60 - 1, 2**59))]
    )
    def test_halfway_bits(self, nmant, bits):
        # 52 is a long double that is a double (macOS on arm64), 63 the x87
        # extended format, 112 IEEE binary128
        got = dataio._halfway_bits(nmant)
        assert got == bits
        assert got is None or all(type(b) is np.uint64 for b in got)

    def test_halfway(self):
        if not dataio._EXACT_LONGDOUBLE:
            pytest.skip("no long double wider than a double")
        one, ulp = np.longdouble(1), np.longdouble(2.0**-52)
        # 1 + ulp/2 lies halfway between the doubles 1 and 1 + ulp, in any
        # binade and of either sign; a little off it does not
        middle = one + ulp / 2
        exact = np.array(
            [middle, -middle * 2**40, middle / 2**40]
            + [middle + ulp / 2**10, one + ulp / 4, one]
        )
        assert dataio._halfway(exact).tolist() == [True] * 3 + [False] * 3

    def test_exact_powers_of_ten(self):
        for code, q in enumerate(dataio._Q):
            assert int(dataio._SCALE[code]) == 10 ** min(abs(int(q)), 27)

    @staticmethod
    def _canonical_text():
        values = np.array([[1.5, -2.25e-7], [3.0e12, -4.0e-11], [0.0, 6.02e23]])
        lines = ["v1,v2"] + [",".join(_canonical(v) for v in row) for row in values]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.replace("5", "x", 1),  # a digit turned into x
            lambda t: t.replace("e-07", "-07", 1),  # a missing e
            lambda t: t.replace(",", ";", 2),  # ; for , in a data row
            lambda t: t.replace("\n", "\r\n"),  # CRLF line ends
            lambda t: t[:-1],  # no final newline
            lambda t: t + "\n",  # a trailing blank line
            lambda t: t.replace("3.0", '"3.0', 1),  # a quote
            lambda t: t.replace("3.0", '"3.0', 1).replace("e+12", 'e+12"', 1),
            lambda t: t.replace("v1", '"v1"', 1),  # a quoted label
            lambda t: t.replace("e+23", "e+123", 1),  # a 3-digit exponent
            lambda t: t.replace("\n", "\n\n", 2),  # an interior blank line
            lambda t: t.replace("v1,v2", "v1,v2,v3", 1),  # a ragged header
            lambda t: t.replace("v1,v2\n", "", 1),  # no header
            lambda t: t.replace("v1,v2\n", "\n", 1),  # a blank first line
            lambda t: t.replace("1.5", "+1.5", 1),  # a sign the writer omits
            # one column under a blank first line, or under a lone \r
            lambda t: "\n1.0000000000000000e+00\n",
            lambda t: "a\rb\n1.0000000000000000e+00\n",
            # more exponents of three digits, and of other lengths
            lambda t: t.replace("e-07", "e-307", 1).replace("e+23", "e+308", 1),
            lambda t: t.replace("e+23", "e+999", 1),  # beyond the doubles
            lambda t: t.replace("e+23", "e+1234", 1),  # a 4-digit exponent
            lambda t: t.replace("e+23", "e+12x", 1),
            lambda t: t.replace("e-07", "e-7", 1),  # a 1-digit exponent
        ],
    )
    def test_mutation_gives_the_fallback_result(self, tmp_path, mutate):
        path = self._write(tmp_path, mutate(self._canonical_text()))
        result = self._result(path)
        assert result == self._fallback_result(path)
        try:
            ref = load_matrix_by_cells(path)
        except ParseError as exc:
            ref_line = re.search(r"\bline (\d+)", str(exc))
            assert isinstance(result, str)
            assert re.search(r"\bline (\d+)", result)[0] == ref_line[0]
        else:
            assert result == (ref.values.shape, ref.values.tobytes(), ref.columns)

    def test_every_one_byte_change(self, tmp_path):
        text = "v1,v2\n" + "1.2500000000000000e+00,-3.0000000000000000e-02\n" * 2
        # a cell's window starts 24 bytes before its e and ends 7 after: a
        # negative first cell reaches into the zero bytes before the block,
        # a three-digit exponent ending a line fills the window's last
        # separator byte, and the file's last cell reaches past the block
        edges = (
            "-1.2500000000000000e+00,3.0000000000000000e-102\n"
            "-2.5000000000000000e-03,4.0000000000000000e+101\n"
        )
        for text, block_bytes in ((text, 1 << 18), (edges, 1 << 18), (edges, 64)):
            for at in range(len(text)):
                for byte in ("", "x", "0", "-", "+", ",", "\n", '"', "e", ".", " "):
                    path = self._write(tmp_path, text[:at] + byte + text[at + 1 :])
                    with mock.patch.object(dataio, "_BLOCK_BYTES", block_bytes):
                        result = self._result(path)
                    assert result == self._fallback_result(path), (at, byte)

    def test_toy_workspace_results_identical_without_the_reader(self, tmp_path):
        config_path = build_toy_workspace(tmp_path / "ws")
        if dataio._EXACT_LONGDOUBLE:
            assert dataio._load_canonical(tmp_path / "ws" / "Y_s1.csv") is not None
        config = load_config(config_path)
        run_pipeline(config, STAGE_NAMES, RunOptions(out_dir=tmp_path / "fast"))
        with mock.patch.object(dataio, "_EXACT_LONGDOUBLE", False):
            run_pipeline(config, STAGE_NAMES, RunOptions(out_dir=tmp_path / "slow"))
        names = sorted(p.name for p in (tmp_path / "fast").iterdir())
        names.remove("timings.csv")
        assert "manifest.json" in names and "BMA_task.csv" in names
        assert names == sorted(
            p.name for p in (tmp_path / "slow").iterdir() if p.name != "timings.csv"
        )
        for name in names:
            fast = (tmp_path / "fast" / name).read_bytes()
            assert fast == (tmp_path / "slow" / name).read_bytes(), name


def _ulps_away(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.copysign(np.inf, steps)))
    return value


def _exact_tie(shift: int, k: int) -> float:
    """k / 2**(shift + 1) for an odd k < 2**53: a double whose product
    with 10**shift is an odd multiple of 1/2, a tie at 17 digits when
    that product is in [1e16, 1e17)."""
    return float(min(k, 2**53 - 1) | 1) / 2.0 ** (shift + 1)


_POSITIVE_WRITER_VALUES = st.one_of(
    # log-uniform over the encoder's range and a decade beyond it
    st.floats(-12.0, 45.0).map(lambda exponent: 10.0**exponent),
    # the nearest double to a 17-digit midpoint times 10**exponent
    st.builds(
        lambda digits, exponent: float(f"{digits}5e{exponent}"),
        st.integers(10**16, 10**17 - 1),
        st.integers(-30, 30),
    ),
    st.integers(1, 24).flatmap(
        lambda shift: st.integers(
            -(-2 * 10**16 // 5**shift), 2 * 10**17 // 5**shift
        ).map(lambda k: _exact_tie(shift, k))
    ),
    # powers of ten and their neighbours, where log10 may be one off
    st.builds(
        lambda exponent, steps: _ulps_away(10.0**exponent, steps),
        st.integers(-13, 46),
        st.integers(-2, 2),
    ),
    st.sampled_from(
        [5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e-11, 1e44]
        + [1e16, 1e17, 1e23, 9.999999999999999e22]
    ),
)
_WRITER_VALUES = st.one_of(
    # every double: NaNs, infinities, zeros and subnormals included
    st.integers(0, 2**64 - 1).map(_double),
    st.builds(
        lambda sign, value: sign * value,
        st.sampled_from([1.0, -1.0]),
        _POSITIVE_WRITER_VALUES,
    ),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]),
)


class TestWriter:
    """The exact ``%.16e`` encoder against the per-cell reference writer."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("cells", [3, dataio._WRITE_CELLS])
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(_WRITER_VALUES, min_size=width, max_size=4 * width).map(
                    lambda v: v[: len(v) // width * width]
                ),
            )
        ),
        st.booleans(),
    )
    def test_equals_format_per_cell(self, tmp_path, cells, exact, shape_values, header):
        width, flat = shape_values
        values = np.array(flat, dtype=float).reshape(-1, width)
        columns = [f"v{i + 1}" for i in range(width)] if header else None
        with mock.patch.object(dataio, "_WRITE_CELLS", cells), mock.patch.object(
            dataio, "_EXACT_LONGDOUBLE", exact and dataio._EXACT_LONGDOUBLE
        ):
            save_matrix(tmp_path / "new.csv", values, columns=columns)
        save_matrix_by_cells(tmp_path / "ref.csv", values, columns=columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def _assert_cells(self, tmp_path, values):
        save_matrix(tmp_path / "new.csv", values)
        save_matrix_by_cells(tmp_path / "ref.csv", values)
        new = (tmp_path / "new.csv").read_text().split()
        ref = (tmp_path / "ref.csv").read_text().split()
        assert [c for c, r in zip(new, ref) if c != r] == []

    def test_decade_edges(self, tmp_path):
        # log10 of a double next to a power of ten may round onto it; none
        # of them rounds up to 10**17 at 17 digits, so no cell carries
        values = [
            sign * _ulps_away(10.0**exponent, steps)
            for exponent in range(-13, 47)
            for steps in range(-3, 4)
            for sign in (1.0, -1.0)
        ]
        self._assert_cells(tmp_path, np.array(values)[:, None])

    def test_exact_ties_round_half_to_even(self, tmp_path):
        # halves above even and odd 17-digit integers in turn, which
        # rounding half to even sends down and up
        values = [
            _exact_tie(shift, -(-2 * 10**16 // 5**shift) + 2 * j)
            for shift in range(1, 25)
            for j in range(8)
        ]
        self._assert_cells(tmp_path, np.array(values)[:, None])

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(_WRITER_VALUES.filter(np.isfinite), min_size=1, max_size=12))
    def test_round_trip_on_the_fast_reader(self, tmp_path, flat):
        # three-digit exponents included: every finite file it writes reads
        # back bit for bit, on the fast path where the platform has one
        values = np.array(flat).reshape(1, -1)
        path = tmp_path / "rt.csv"
        save_matrix(path, values, columns=[f"v{i}" for i in range(values.size)])
        fast = dataio._load_canonical(path)
        assert (fast is not None) == dataio._EXACT_LONGDOUBLE
        assert load_matrix(path).values.tobytes() == values.tobytes()

    def test_no_runtime_warning_on_non_finite_cells(self, tmp_path):
        values = np.array([[np.nan, -np.inf, np.inf, 5e-324, -0.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_matrix(tmp_path / "m.csv", values)
        assert (tmp_path / "m.csv").read_text() == (
            "nan,-inf,inf,4.9406564584124654e-324,-0.0000000000000000e+00,"
            "1.0000000000000001e+300\n"
        )

    @pytest.mark.parametrize(
        "values, columns, named",
        [
            (np.ones((2, 3)), ["a", "b"], "one column label per column required"),
            (np.ones((2, 2, 2)), None, "a matrix has 1 or 2 dimensions, got 3"),
        ],
    )
    def test_bad_arguments_leave_the_file_alone(self, tmp_path, values, columns, named):
        path = tmp_path / "kept.csv"
        path.write_bytes(b"v1\n1.0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: {named}")):
            save_matrix(path, values, columns=columns)
        assert path.read_bytes() == b"v1\n1.0\n"


_UNICODE_SPACES = st.text(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0   　"),
    max_size=2,
)
_UNICODE_DIGITS = st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3)


@st.composite
def _float_like(draw):
    """Strings in and near ``float()``'s syntax, with Unicode digits and spaces."""
    body = draw(
        st.one_of(
            st.builds(
                "{}{}{}".format,
                _UNICODE_DIGITS | st.just(""),
                st.sampled_from(["", ".", "_"]),
                _UNICODE_DIGITS | st.just(""),
            ),
            st.sampled_from(["inf", "infinity", "nan"]).flatmap(
                lambda word: st.tuples(*(st.sampled_from([c, c.upper()]) for c in word))
            ).map("".join),
        )
    )
    exponent = draw(
        st.sampled_from(["", "e", "E"]).flatmap(
            lambda e: st.just("") if not e else st.builds(
                "{}{}{}".format, st.just(e), st.sampled_from(["", "+", "-"]), _UNICODE_DIGITS
            )
        )
    )
    sign = draw(st.sampled_from(["", "+", "-", "−"]))
    return draw(_UNICODE_SPACES) + sign + body + exponent + draw(_UNICODE_SPACES)


class TestHeaderRule:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_float_like(), st.text()))
    def test_regex_admits_every_string_float_reads(self, text):
        try:
            float(text)
        except ValueError:
            return
        assert dataio._NUMBER_START.match(text)

    @pytest.mark.parametrize(
        "cells, header",
        [
            (["v1", "v2"], ("v1", "v2")),
            ([" a ", "nanny"], ("a", "nanny")),
            (["x", " ١٢ "], None),  # Arabic-Indic digits read by float()
            (["x", "-Infinity"], None),
            (["x", "1_0"], None),
            (["x", ".5"], None),
            ([""], ("",)),
        ],
    )
    def test_header_rule(self, cells, header):
        assert dataio._header(cells) == header


class TestResultTable:
    def test_round_trip_with_labels(self, tmp_path):
        table = ResultTable(
            kind="cvLME",
            row_labels=("m1", "m2"),
            values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        path = tmp_path / "cvLME.csv"
        table.save(path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, table.values)
        assert back.columns == ("v1", "v2")

    def test_save_matches_reference_bytes(self, tmp_path):
        # width 1 twice: the second file takes the cached header row
        for width in (1, 2500, 1):
            table = ResultTable(kind="EP", row_labels=("a", "b"), values=np.ones((2, width)) / 3)
            table.save(tmp_path / "new.csv")
            columns = [f"v{i + 1}" for i in range(width)]
            save_matrix_by_cells(tmp_path / "ref.csv", table.values, columns=columns)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_label_count_enforced(self):
        with pytest.raises(ParseError):
            ResultTable(kind="EP", row_labels=("a",), values=np.zeros((2, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            ResultTable(kind="mystery", row_labels=("a",), values=np.zeros((1, 1)))

    def test_nonfinite_needs_flag(self):
        bad = np.array([[np.nan]])
        with pytest.raises(ParseError):
            ResultTable(kind="BMA", row_labels=("x",), values=bad)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_matrix(tmp_path / "does-not-exist.csv")

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1,2\n3,\xb5\n".encode("latin-1"))
        with pytest.raises(ParseError, match="cannot read"):
            load_matrix(path)


class TestLoadConfig:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_minimal_first_level(self, tmp_path):
        config = load_config(
            self._write(
                tmp_path,
                {
                    "models": [{"name": "m1", "design": ["x1.csv", "x2.csv"]}],
                    "data": ["y1.csv", "y2.csv"],
                },
            )
        )
        assert config.model_names == ("m1",)
        assert config.layout is None

    def test_group_only(self, tmp_path):
        config = load_config(
            self._write(
                tmp_path,
                {"subjects": [{"name": "s1", "cvlme": "a.csv"},
                              {"name": "s2", "cvlme": "b.csv"}]},
            )
        )
        assert len(config.subjects) == 2

    def test_rejects_duplicate_model_names(self, tmp_path):
        with pytest.raises(ConfigError, match="unique"):
            load_config(
                self._write(
                    tmp_path,
                    {
                        "models": [
                            {"name": "m", "design": ["a.csv"]},
                            {"name": "m", "design": ["b.csv"]},
                        ],
                        "data": ["y.csv"],
                    },
                )
            )

    def test_rejects_design_session_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="per session"):
            load_config(
                self._write(
                    tmp_path,
                    {
                        "models": [{"name": "m", "design": ["a.csv"]}],
                        "data": ["y1.csv", "y2.csv"],
                    },
                )
            )

    def test_rejects_partial_families(self, tmp_path):
        with pytest.raises(ConfigError, match="families"):
            load_config(
                self._write(
                    tmp_path,
                    {
                        "models": [
                            {"name": "a", "design": ["xa1.csv", "xa2.csv"]},
                            {"name": "b", "design": ["xb1.csv", "xb2.csv"]},
                        ],
                        "data": ["y1.csv", "y2.csv"],
                        "families": {"f": ["a"]},
                    },
                )
            )

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_single_session_requires_scans(self, tmp_path):
        with pytest.raises(ConfigError, match=r"sessions\.scans"):
            load_config(
                self._write(
                    tmp_path,
                    {
                        "models": [{"name": "m", "design": ["x.csv"]}],
                        "data": ["y.csv"],
                        "sessions": {"kind": "single"},
                    },
                )
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vb_max_iter", 10**30),
            ("vb_max_iter", [200]),
            ("alpha0", "one"),
            ("vb_tol", True),
            ("alpha0", "nan"),
        ],
    )
    def test_bad_numeric_field_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "models": [{"name": "m", "design": ["x1.csv", "x2.csv"]}],
                    "data": ["y1.csv", "y2.csv"],
                    key: value,
                }
            ).replace("Infinity", "1e999")
        )
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize(
        "patch, what",
        [
            ({"models": [{"name": "m", "design": "x.csv"}]}, "design"),
            ({"data": "y.csv"}, "data"),
            ({"precision": "p.csv"}, "precision"),
            ({"data": ["y.csv", 2]}, "data"),
        ],
    )
    def test_file_lists_must_be_lists(self, tmp_path, patch, what):
        payload = {
            "models": [{"name": "m", "design": ["x1.csv", "x2.csv"]}],
            "data": ["y1.csv", "y2.csv"],
        }
        payload.update(patch)
        with pytest.raises(ConfigError, match=f"{what} must be a JSON list"):
            load_config(self._write(tmp_path, payload))
