import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlift.data_model import (
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    boolean,
    integer,
    list_of,
    load_matrix,
    number,
    read_section,
    residual_matrix,
    save_matrix,
)
from kronlift.autoencoder import TrainConfig
from kronlift.errors import ConfigError, DimensionError, FormatError
from kronlift.rmt_detector import RmtDetectorConfig
from kronlift.synth import ScenarioConfig
from oracles import load_matrix_reference, save_matrix_reference


def make_stm(values, t0=1):
    values = np.asarray(values, dtype=float)
    ids = [f"c{i+1}" for i in range(values.shape[0])]
    return SpatioTemporalMatrix(values=values, channel_ids=ids, t0=t0)


class TestSpatioTemporalMatrix:
    def test_shape_accessors(self):
        m = make_stm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert m.channels == 2
        assert m.samples == 3

    def test_rejects_nan(self):
        with pytest.raises(ConfigError):
            make_stm([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ConfigError):
            make_stm([[np.inf, 1.0]])

    def test_rejects_duplicate_channel_ids(self):
        with pytest.raises(ConfigError):
            SpatioTemporalMatrix(
                values=np.ones((2, 3)), channel_ids=["a", "a"], t0=1
            )

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ConfigError):
            SpatioTemporalMatrix(values=np.ones((2, 3)), channel_ids=["a"], t0=1)

    def test_rejects_negative_t0(self):
        assert make_stm([[1.0, 2.0]], t0=0).t0 == 0
        with pytest.raises(ConfigError, match="t0 must be >= 0, got -1"):
            make_stm([[1.0, 2.0]], t0=-1)


class TestLiftConfig:
    def test_lifted_dim(self):
        cfg = LiftConfig(k=2, n=14)
        assert cfg.channels == 28
        assert cfg.lifted_dim == 196

    def test_identity_lift(self):
        cfg = LiftConfig(k=1, n=28)
        assert cfg.lifted_dim == 28

    def test_rejects_dim_above_cap(self):
        # 9^4 = 6561 > default cap 4096
        with pytest.raises(ConfigError):
            LiftConfig(k=4, n=9)

    def test_cap_is_configurable(self):
        cfg = LiftConfig(k=4, n=9, dim_cap=10000)
        assert cfg.lifted_dim == 6561

    def test_rejects_k_above_four(self):
        with pytest.raises(ConfigError):
            LiftConfig(k=5, n=2)

    def test_rejects_short_segment(self):
        with pytest.raises(ConfigError):
            LiftConfig(k=2, n=1)


class TestWindowSpec:
    def test_defaults(self):
        w = WindowSpec()
        assert w.width == 200
        assert w.stride == 1

    def test_rejects_tiny_width(self):
        with pytest.raises(ConfigError):
            WindowSpec(width=1)


class TestResidualMatrix:
    def test_single_channel_differences(self):
        m = make_stm([[1.0, 2.0, 4.0]])
        r = residual_matrix(m)
        np.testing.assert_array_equal(r.values, [[1.0, 2.0]])

    def test_constant_channel_gives_zeros(self):
        m = make_stm([[5.0, 5.0, 5.0]])
        r = residual_matrix(m)
        np.testing.assert_array_equal(r.values, [[0.0, 0.0]])

    def test_two_channel_case(self):
        m = make_stm([[1.0, 3.0], [2.0, 2.0]])
        r = residual_matrix(m)
        np.testing.assert_array_equal(r.values, [[2.0], [0.0]])

    def test_t0_shift_and_ids_preserved(self):
        m = make_stm([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]], t0=7)
        r = residual_matrix(m)
        assert r.t0 == 8
        assert r.samples == 2
        assert r.channel_ids == m.channel_ids

    def test_rejects_single_sample(self):
        m = make_stm([[1.0]])
        with pytest.raises(DimensionError):
            residual_matrix(m)

    def test_constant_matrix_gives_zero_matrix(self):
        m = make_stm(np.full((4, 6), 2.5))
        r = residual_matrix(m)
        assert np.all(r.values == 0.0)


class TestCsvRoundTrip:
    def test_load_documented_layout(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c1,c2\n1,2\n3,4\n5,6\n")
        m = load_matrix(p)
        assert m.channels == 2
        assert m.samples == 3
        np.testing.assert_array_equal(m.values[:, 0], [1.0, 2.0])
        assert m.channel_ids == ["c1", "c2"]

    def test_time_column_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,c1,c2\n5,1,2\n6,3,4\n")
        m = load_matrix(p)
        assert m.t0 == 5
        assert m.channels == 2
        np.testing.assert_array_equal(m.values, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("times,line,message", [
        (("1", "5", "xx"), 3, "time index 5 does not follow 1"),
        (("1", "2", "xx"), 4, "bad time index 'xx'"),
        (("3", "2", "3"), 3, "time index 2 does not follow 3"),
        (("1", "2", "2.5"), 4, "bad time index '2.5'"),
        (("-999", "-998", "-997"), 2, "time index -999 is negative"),
        (("-1", "0", "1"), 2, "time index -1 is negative"),
    ])
    def test_time_column_must_count_up_by_one(self, tmp_path, times, line,
                                              message):
        p = tmp_path / "d.csv"
        p.write_text("t,c1,c2\n" + "".join(f"{t},1,2\n" for t in times))
        with pytest.raises(FormatError) as info:
            load_matrix(p)
        assert str(info.value) == f"{p}: line {line}: {message}"

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c1,c2\n")
        with pytest.raises(FormatError, match="no samples"):
            load_matrix(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c1,c2\n1,2\n1,2,3\n")
        with pytest.raises(FormatError, match="line 3"):
            load_matrix(p)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c1,c2\n1,x\n")
        with pytest.raises(FormatError) as info:
            load_matrix(p)
        assert str(info.value) == (
            f"{p}: line 2: could not convert string to float: 'x'")

    @pytest.mark.parametrize("text,message", [
        ("c1,c2\n1,2\n \n3,4\n", "line 3 has 1 fields, expected 2"),
        ("c1,c2\n1,2,\n3,4\n", "line 2 has 3 fields, expected 2"),
        ('c1,c2\n"1\n",2\n1,x\n',
         "line 4: could not convert string to float: 'x'"),
        ('"c\n1",c2\n1,2\n1,2,3\n', "line 4 has 3 fields, expected 2"),
        ('t,c1,c2\r\n1,"2\r\n\r\n",3\r\n3,4,5\r\n',
         "line 5: time index 3 does not follow 1"),
    ], ids=["whitespace-only line", "trailing comma", "line break in a cell",
            "line break in the header", "CRLF breaks in a cell"])
    def test_ragged_layouts_report_line(self, tmp_path, text, message):
        p = tmp_path / "d.csv"
        p.write_text(text, newline="")
        with pytest.raises(FormatError) as info:
            load_matrix(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize("text", [
        "t,c1,c2\n5,1,2\n\n6,3,4\n",
        "t,c1,c2\r\n5,1,2\r\n6,3,4\r\n",
        "t,c1,c2\r5,1,2\r6,3,4",
        't,"c1",c2\n"5","1",2\n6,3,"4"\n',
        "t , c1,c2 \n 5 ,1 , 2\n6,3,4\n",
    ], ids=["blank line", "CRLF", "CR without final newline",
            "quoted cells", "padded cells"])
    def test_layout_variants_read_the_same_values(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text, newline="")
        m = load_matrix(p)
        assert (m.t0, m.channel_ids) == (5, ["c1", "c2"])
        np.testing.assert_array_equal(m.values, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("text,cell", [
        ("c1,c2\n1_000,2\n", "'1_000'"),
        ("t,c1,c2\n99999999999999999999,1,2\n", "'99999999999999999999'"),
        ("c1,c2\n\u0661,2\n", "line 2: '\u0661' is not ASCII text"),
        ("t,c1,c2\n\u0661,1,2\n", "line 2: '\u0661' is not ASCII text"),
        ("c1,c2\n1,2\xa0\n", r"line 2: '2\xa0' is not ASCII text"),
    ], ids=["underscore", "t beyond int64", "Arabic-Indic digit",
            "Arabic-Indic time", "no-break space"])
    def test_c_only_cells_name_the_file(self, tmp_path, text, cell):
        """Cells float() and int() read but the C parsers do not."""
        p = tmp_path / "d.csv"
        p.write_text(text, encoding="utf-8")
        load_matrix_reference(p)  # the per-cell reader took these
        with pytest.raises(FormatError) as info:
            load_matrix(p)
        assert str(info.value).startswith(f"{p}: ")
        assert cell in str(info.value)

    def test_non_utf8_file_names_it(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"t,c1,c2\n1,\xff,2\n")
        with pytest.raises(FormatError) as info:
            load_matrix(p)
        assert str(info.value) == f"{p}: not UTF-8 text (invalid start byte)"

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,c1,c2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="no samples"):
                load_matrix(p)

    def test_values_are_channel_major(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,c1,c2,c3\n0,1,2,3\n1,4,5,6\n")
        m = load_matrix(p)
        assert m.values.flags.f_contiguous and m.values.shape == (3, 2)
        assert m.t0 == 0 and type(m.t0) is int

    def test_single_channel_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c1\n1\n2\n")
        with pytest.raises(DimensionError):
            load_matrix(p)

    def test_save_load_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        m = make_stm(rng.standard_normal((5, 17)) * 1e-3 + 1.0, t0=4)
        p = tmp_path / "d.csv"
        save_matrix(m, p)
        m2 = load_matrix(p)
        assert m2.t0 == 4
        assert m2.channel_ids == m.channel_ids
        # 17-significant-digit rendering must round-trip float64 exactly
        np.testing.assert_array_equal(m2.values, m.values)


class TestReadSection:
    SCHEMA = {
        "width": (integer, 200),
        "rate": (number, 0.5),
        "on": (boolean, True),
        "times": (list_of(integer), ()),
        "end": (integer, None),
    }

    def test_defaults_fill_in(self):
        assert read_section({}, self.SCHEMA, "s") == {
            "width": 200, "rate": 0.5, "on": True, "times": (), "end": None}

    def test_values_converted(self):
        got = read_section({"width": 30.0, "rate": 2, "on": False,
                            "times": [4, 5], "end": 9}, self.SCHEMA, "s")
        assert got == {"width": 30, "rate": 2.0, "on": False,
                       "times": (4, 5), "end": 9}
        assert type(got["width"]) is int and type(got["rate"]) is float

    def test_null_only_where_default_is_null(self):
        assert read_section({"end": None}, self.SCHEMA, "s")["end"] is None
        with pytest.raises(ConfigError, match=r"^s\.rate: bad value None"):
            read_section({"rate": None}, self.SCHEMA, "s")

    @pytest.mark.parametrize("key,value", [
        ("width", "30"), ("width", 30.5), ("width", True), ("rate", "1e-4"),
        ("on", "no"), ("on", 0), ("on", 1), ("times", 5), ("times", [1, "b"]),
        ("rate", float("nan")), ("rate", float("inf")), ("rate", -float("inf")),
    ])
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^s\.{key}: bad value "):
            read_section({key: value}, self.SCHEMA, "s")

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match=r"s\.widht, s\.zzz$"):
            read_section({"zzz": 1, "widht": 3}, self.SCHEMA, "s")

    @pytest.mark.parametrize("section", [5, [1], None, "x"])
    def test_section_must_be_object(self, section):
        with pytest.raises(ConfigError, match="^s must be a JSON object"):
            read_section(section, self.SCHEMA, "s")


@pytest.mark.parametrize("make", [
    lambda seed: TrainConfig(seed=seed),
    lambda seed: RmtDetectorConfig(lift=LiftConfig(k=1, n=2), seed=seed),
    lambda seed: ScenarioConfig(seed=seed),
], ids=["TrainConfig", "RmtDetectorConfig", "ScenarioConfig"])
@pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
def test_library_configs_reject_bad_seeds(make, seed):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got"):
        make(seed)
    make(7)  # a valid seed still constructs


# Special values spread over the generated matrices below.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                  1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                  0.1, 1 / 3]


@settings(max_examples=40, deadline=None)
@given(channels=st.integers(2, 40), samples=st.integers(1, 300),
       t0=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 12_000),
                                   st.sampled_from(SPECIAL_VALUES)),
                         max_size=30))
def test_csv_io_matches_the_reference(tmp_path_factory, channels, samples,
                                      t0, seed, specials):
    """save_matrix writes the per-row writer's bytes, and load_matrix
    reads back every bit, as the per-cell reader does."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((channels, samples))
    values *= 10.0 ** rng.integers(-300, 301, values.shape)
    for pos, x in specials:
        values.flat[pos % values.size] = x
    ids = ['bus 1, "V"'] + [f"c{i}" for i in range(2, channels + 1)]
    M = SpatioTemporalMatrix(values=values, channel_ids=ids, t0=t0)
    d = tmp_path_factory.mktemp("csv")
    save_matrix(M, d / "new.csv")
    save_matrix_reference(M, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
    for back in (load_matrix(d / "new.csv"),
                 load_matrix_reference(d / "new.csv")):
        assert (back.t0, back.channel_ids) == (t0, ids)
        assert back.values.tobytes() == M.values.tobytes()


# Files the per-cell reader rejects; load_matrix must raise the same.
MALFORMED_CSV = {
    "empty file": "",
    "header only": "t,c1,c2\n",
    "blank lines only": "c1,c2\n\n\r\n",
    "one channel": "c1\n1\n2\n",
    "t and one channel": "t,c1\n1,5\n",
    "ragged": "c1,c2\n1,2\n1,2,3\n",
    "whitespace-only line": "c1,c2\n1,2\n \n3,4\n",
    "trailing comma": "c1,c2\n1,2,\n",
    "short line": "c1,c2\n1\n",
    "non-numeric": "c1,c2\n1,x\n",
    "empty cell": "c1,c2\n1,\n",
    "quoted comma": 'c1,c2\n"1,5",2\n',
    "space before quote": 'c1,c2\n1, "2"\n',
    "hex": "c1,c2\n0x10,2\n",
    "separator 0x1c": "c1,c2\n1\x1c,2\n",
    "bad time": "t,c1,c2\n1,1,2\nxx,1,2\n",
    "letter time": "t,c1,c2\n\u01fe1,1,2\n",  # numpy's int64 parser: 4621
    "fractional time": "t,c1,c2\n1,1,2\n2.0,1,2\n",
    "time gap": "t,c1,c2\n1,1,2\n5,1,2\n",
    "negative time": "t,c1,c2\n-1,1,2\n0,1,2\n",
    "time gap then bad cell": "t,c1,c2\n1,1,2\n3,x,2\n",
    "bad cell after one channel": "c1\nx\n",
    "NaN": "c1,c2\n1,2\nnan,1\n",
    "infinity": "t,c1,c2\n1,-Infinity,2\n",
    "overflow": "c1,c2\n1e999,2\n",
    "underscore then ragged": "c1,c2\n1_000,2\n1,2,3\n",
    "non-ASCII digit then time gap": "t,c1,c2\n1,\u0661,2\n3,1,2\n",
    "line break in a cell": 'c1,c2\n"1\n",2\n1,x\n',
}


@pytest.mark.parametrize("text", MALFORMED_CSV.values(), ids=MALFORMED_CSV)
def test_malformed_csv_raises_as_the_reference(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(Exception) as expected:
        load_matrix_reference(p)
    with pytest.raises(type(expected.value)) as info:
        load_matrix(p)
    assert type(info.value) is type(expected.value)
    assert str(info.value) == str(expected.value)
