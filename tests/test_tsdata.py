import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landscaper.errors import DegenerateDataError, IngestError, PreconditionError
from landscaper.tsdata import (
    TimeSeries,
    TimeSeriesCollection,
    TransitionSet,
    apply_pseudocount,
    characteristic_timescale,
    clr_transform,
    dump_json,
    filter_by_timestep,
    integer,
    list_of,
    number,
    read_document,
    read_observations_csv,
    text,
    to_transitions,
    write_observations_csv,
)


def make_collection(*series):
    return TimeSeriesCollection(tuple(TimeSeries(f"u{i}", t, v) for i, (t, v) in enumerate(series)))


class TestTimeSeriesValidation:
    def test_rejects_short_series(self):
        with pytest.raises(IngestError):
            TimeSeries("a", [0.0], [1.0])

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(IngestError):
            TimeSeries("a", [0.0, 0.0], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(IngestError):
            TimeSeries("a", [0.0, 1.0], [1.0, float("nan")])

    def test_rejects_empty_collection(self):
        with pytest.raises(IngestError):
            TimeSeriesCollection(())

    def test_value_range_cached(self):
        c = make_collection(([0, 1], [3.0, -2.0]), ([0, 1], [0.5, 7.0]))
        assert c.value_range == (-2.0, 7.0)


class TestEquality:
    def test_series_compare_by_id_and_arrays(self):
        a = TimeSeries("a", [0, 1, 2], [0.0, 1.0, 3.0])
        assert (a == TimeSeries("a", [0.0, 1.0, 2.0], [0, 1, 3])) is True
        assert (a == TimeSeries("b", [0, 1, 2], [0.0, 1.0, 3.0])) is False
        assert (a == TimeSeries("a", [0, 1, 5], [0.0, 1.0, 3.0])) is False
        assert (a == TimeSeries("a", [0, 1, 2], [0.0, 1.0, 4.0])) is False
        assert (a == TimeSeries("a", [0, 1], [0.0, 1.0])) is False
        assert a != "a"
        with pytest.raises(TypeError):
            hash(a)

    def test_transition_sets_compare_by_arrays(self):
        c = make_collection(([0, 1, 2], [0, 1, 3]), ([0, 2], [10, 11]))
        t = to_transitions(c)
        assert (t == to_transitions(c)) is True
        assert (t == TransitionSet([0, 1, 10], [1, 2, 1], [1, 1, 2])) is True
        assert (t == TransitionSet([0, 1, 10], [1, 2, 1], [1, 1, 3])) is False
        assert (t == TransitionSet([0, 1, 10], [1, 5, 1], [1, 1, 2])) is False
        assert (t == TransitionSet([0, 1], [1, 2], [1, 1])) is False
        assert t != (t.x, t.dx, t.dt)
        with pytest.raises(TypeError):
            hash(t)

    def test_collections_compare_series_by_series(self):
        c = make_collection(([0, 1, 2], [0, 1, 3]), ([0, 2], [10, 11]))
        assert (c == make_collection(([0, 1, 2], [0, 1, 3]), ([0, 2], [10, 11]))) is True
        assert (c == make_collection(([0, 1, 2], [0, 1, 3]), ([0, 2], [10, 12]))) is False
        assert (c == make_collection(([0, 1, 2], [0, 1, 3]))) is False
        with pytest.raises(TypeError):
            hash(c)


class TestToTransitions:
    def test_direct_differencing(self):
        c = make_collection(([0, 1, 2], [0, 1, 3]))
        x, dx, dt = to_transitions(c).arrays()
        np.testing.assert_array_equal(x, [0.0, 1.0])
        np.testing.assert_array_equal(dx, [1.0, 2.0])
        np.testing.assert_array_equal(dt, [1.0, 1.0])

    def test_no_transition_crosses_series(self):
        c = make_collection(([0, 1], [0, 1]), ([0, 2], [10, 11]))
        trans = to_transitions(c)
        assert len(trans) == 2
        x, dx, dt = trans.arrays()
        np.testing.assert_array_equal(x, [0.0, 10.0])
        np.testing.assert_array_equal(dx, [1.0, 1.0])
        np.testing.assert_array_equal(dt, [1.0, 2.0])

    def test_zero_increment_retained(self):
        c = make_collection(([0, 1], [2.0, 2.0]))
        trans = to_transitions(c)
        assert len(trans) == 1
        assert trans.arrays()[1][0] == 0.0

    def test_arrays_are_read_only(self):
        for a in to_transitions(make_collection(([0, 1, 2], [0, 1, 3]))).arrays():
            assert a.dtype == float and not a.flags.writeable

    def test_overflowing_increment_rejected(self):
        # both values are finite, but their difference overflows to inf
        c = make_collection(([0, 1], [-1e308, 1e308]))
        with pytest.raises(PreconditionError, match="finite"), np.errstate(over="ignore"):
            to_transitions(c)

    @pytest.mark.parametrize("x, dx, dt", [
        ([0.0, math.nan], [1.0, 1.0], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, -math.inf], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]),
        ([0.0, 1.0], [1.0, 1.0], [1.0]),
    ])
    def test_invalid_transitions_rejected(self, x, dx, dt):
        with pytest.raises(PreconditionError):
            TransitionSet(x, dx, dt)

    def test_cumulative_reconstruction(self, rng):
        series = []
        for _ in range(5):
            n = rng.integers(2, 12)
            times = np.cumsum(rng.uniform(0.1, 2.0, n))
            series.append((times, rng.normal(size=n)))
        c = make_collection(*series)
        x, dx, dt = to_transitions(c).arrays()
        i = 0
        for s in c.series:
            k = len(s) - 1
            rebuilt = np.concatenate([[s.values[0]], s.values[0] + np.cumsum(dx[i : i + k])])
            np.testing.assert_allclose(rebuilt, s.values, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.diff(s.times), dt[i : i + k])
            i += k


class TestCharacteristicTimescale:
    def test_unit_step(self):
        c = make_collection(([0, 1], [0.0, 1.0]))
        ts = characteristic_timescale(c)
        assert ts.d == 1.0 and ts.mean_sq_rate == 1.0 and ts.t_c == 1.0

    def test_double_step(self):
        c = make_collection(([0, 1], [0.0, 2.0]))
        ts = characteristic_timescale(c)
        assert ts.d == 2.0 and ts.mean_sq_rate == 4.0 and ts.t_c == 1.0

    def test_all_constant_is_degenerate(self):
        c = make_collection(([0, 1, 2], [1.0, 1.0, 1.0]))
        with pytest.raises(DegenerateDataError):
            characteristic_timescale(c)

    @given(shift=st.floats(-50, 50), scale=st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_shift_and_scale_invariance(self, shift, scale):
        times = np.array([0.0, 0.7, 1.9, 3.0])
        values = np.array([0.0, 1.2, -0.5, 0.8])
        base = characteristic_timescale(make_collection((times, values)))
        moved = characteristic_timescale(make_collection((times, scale * values + shift)))
        assert math.isclose(base.t_c, moved.t_c, rel_tol=1e-9)

    def test_time_rescaling_matches_45_day_labeling(self, bistable_cusp):
        # A 45-unit step plays the role of 0.02*t_c once the time axis is
        # rescaled so that t_c = 45/0.02; dt/t_c is preserved by the scaling.
        from landscaper.sim import generate_short_series

        ds = generate_short_series(bistable_cusp, 30, 4, 0.3, seed=5)
        base = characteristic_timescale(ds.collection)
        k = (45.0 / 0.02) / base.t_c
        rescaled = TimeSeriesCollection(tuple(
            TimeSeries(s.unit_id, s.times * k, s.values) for s in ds.collection.series
        ))
        ts = characteristic_timescale(rescaled)
        assert math.isclose(ts.t_c, 45.0 / 0.02, rel_tol=1e-9)
        assert math.isclose(45.0 / ts.t_c, 0.02, rel_tol=1e-9)


class TestFilterByTimestep:
    def test_split_at_gap(self):
        c = make_collection(([0, 1, 101, 102], [1.0, 2.0, 3.0, 4.0]))
        out = filter_by_timestep(c, 45.0)
        assert [s.unit_id for s in out.series] == ["u0#0", "u0#1"]
        assert [len(s) for s in out.series] == [2, 2]

    def test_identity_when_no_gap(self):
        c = make_collection(([0, 1, 2], [1.0, 2.0, 3.0]))
        out = filter_by_timestep(c, 45.0)
        assert [s.unit_id for s in out.series] == ["u0"]
        np.testing.assert_array_equal(out.series[0].times, c.series[0].times)
        np.testing.assert_array_equal(out.series[0].values, c.series[0].values)

    def test_drops_series_when_all_gaps_too_large(self):
        c = make_collection(([0, 100, 200], [1.0, 2.0, 3.0]), ([0, 1], [0.0, 1.0]))
        out = filter_by_timestep(c, 45.0)
        assert [s.unit_id for s in out.series] == ["u1"]

    def test_boundary_gap_kept(self):
        c = make_collection(([0.0, 45.0], [1.0, 2.0]))
        assert len(filter_by_timestep(c, 45.0).series) == 1

    def test_idempotent(self):
        c = make_collection(([0, 1, 101, 102, 300], [1.0, 2.0, 3.0, 4.0, 5.0]))
        once = filter_by_timestep(c, 45.0)
        twice = filter_by_timestep(once, 45.0)
        assert [s.unit_id for s in once.series] == [s.unit_id for s in twice.series]
        for a, b in zip(once.series, twice.series):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_result_is_error(self):
        c = make_collection(([0, 100], [1.0, 2.0]))
        with pytest.raises(DegenerateDataError):
            filter_by_timestep(c, 45.0)

    def test_nonpositive_max_dt_rejected(self):
        c = make_collection(([0, 1], [1.0, 2.0]))
        for max_dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(PreconditionError, match="max_dt"):
                filter_by_timestep(c, max_dt)


class TestClr:
    def test_constant_row_maps_to_zero(self):
        np.testing.assert_allclose(clr_transform([[1.0, 1.0, 1.0, 1.0]]), 0.0, atol=1e-15)

    def test_two_element_row(self):
        # log(1) - mean = -1, log(e^2) - mean = +1 with natural logs
        out = clr_transform([[1.0, math.e**2]])
        np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)

    def test_rows_sum_to_zero(self, rng):
        m = rng.uniform(0.1, 50.0, size=(20, 7))
        out = clr_transform(m)
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-9)

    @given(factor=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, factor):
        row = np.array([[0.5, 2.0, 9.0]])
        np.testing.assert_allclose(clr_transform(row), clr_transform(factor * row), atol=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            clr_transform([[1.0, 0.0]])

    def test_pseudocount_half_min(self):
        out = apply_pseudocount(np.array([[0.0, 2.0], [4.0, 8.0]]))
        assert out[0, 0] == 1.0  # half of the smallest positive entry
        clr_transform(out)  # now valid


class TestCsvAndJson:
    def test_round_trip(self, tmp_path, rng):
        c = make_collection(
            (np.array([0.0, 1.5, 2.25]), rng.normal(size=3)),
            (np.array([0.5, 0.75]), rng.normal(size=2)),
        )
        path = tmp_path / "obs.csv"
        write_observations_csv(c, path)
        back = read_observations_csv(path)
        assert len(back.series) == 2
        for a, b in zip(c.series, back.series):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.values, b.values)

    def test_duplicate_time_is_error(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,time,value\na,1.0,2.0\na,1.0,3.0\n")
        with pytest.raises(IngestError,
                           match=f"{path}: line 3: duplicate .* pair for unit 'a'"):
            read_observations_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,time,value\na,1.0,2.0\na,oops,3.0\n")
        with pytest.raises(IngestError, match="line 3"):
            read_observations_csv(path)

    def test_blank_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,time,value\nb,1.0,2.0\n\na,0.0,1.0\na,1.0,oops\n")
        with pytest.raises(IngestError, match="line 5"):
            read_observations_csv(path)
        path.write_text("unit_id,time,value\nb,1.0,2.0\n\nb,0.0,1.0\na,0.0,5.0\na,1.0,6.0\n")
        back = read_observations_csv(path)
        assert [s.unit_id for s in back.series] == ["b", "a"]
        np.testing.assert_array_equal(back.series[0].values, [1.0, 2.0])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        for text, read in (
            ("unit_id,time,value\na,0.0,1.0\na,1.0,2.0\n", read_observations_csv),
            ("unit_id,time,x,y\na,0.0,1.0,3.0\na,1.0,2.0,4.0\n",
             lambda path: read_observations_csv(path, "y")),
        ):
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert read(marked) == read(plain)

    @pytest.mark.parametrize("read", [read_observations_csv,
                                      lambda path: read_observations_csv(path, "value", False)],
                             ids=["long", "wide"])
    @pytest.mark.parametrize("body, problem", [
        # A Latin-1 spreadsheet export with an accented site name.
        ("café,0.0,1.0\ncafé,1.0,2.0\n".encode("latin-1"),
         "line 2: 'utf-8' codec can't decode byte 0xe9 in position 22"),
        (b"a,0.0," + b"1" * 200_000 + b"\na,1.0,2.0\n", "line 2: field larger than field limit"),
        # Past the decoder's first chunk, the position is still the file offset.
        (b"a,0.0,1.0\n" * 3000 + "café,0.0,1.0\n".encode("latin-1"),
         "line 3002: 'utf-8' codec can't decode byte 0xe9 in position 30022"),
    ], ids=["latin-1", "oversized-field", "latin-1-past-8KiB"])
    def test_unreadable_text_is_refused_naming_the_file(self, tmp_path, read, body, problem):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"unit_id,time,value\n" + body)
        with pytest.raises(IngestError, match=f"{path}: {problem}"):
            read(path)

    @pytest.mark.parametrize("clr", [False, True])
    def test_variable_named_twice_is_refused(self, tmp_path, clr):
        # Either column could be the one meant, so neither is read, even
        # when another variable is fitted.
        path = tmp_path / "wide.csv"
        path.write_text("unit_id,time,b,a,a\nu,0.0,1.0,1.0,5.0\nu,1.0,1.0,2.0,6.0\n")
        with pytest.raises(IngestError, match="line 1: variable 'a' is named more than once"):
            read_observations_csv(path, "b", clr)

    @pytest.mark.parametrize("clr", [False, True])
    def test_wide_file_without_data_rows_is_refused(self, tmp_path, clr):
        path = tmp_path / "wide.csv"
        path.write_text("unit_id,time,a\n\n")
        with pytest.raises(IngestError, match=f"{path}: no data rows"):
            read_observations_csv(path, "a", clr)

    def test_long_layout_is_the_wide_layouts_value_column(self, tmp_path):
        # Unit c has one point and so no transition: both layouts drop it.
        obs = [("b", 1.0, 2.5), ("a", 0.5, -1.0), ("c", 0.0, 4.0), ("b", 0.0, 3.0),
               ("a", 0.0, 7.25)]
        long, wide = tmp_path / "long.csv", tmp_path / "wide.csv"
        long.write_text("unit_id,time,value\n" + "".join(f"{u},{t},{v}\n" for u, t, v in obs))
        wide.write_text("unit_id,time,other,value\n"
                        + "".join(f"{u},{t},{-t},{v}\n" for u, t, v in obs))
        expected = TimeSeriesCollection((TimeSeries("b", [0.0, 1.0], [3.0, 2.5]),
                                         TimeSeries("a", [0.0, 0.5], [7.25, -1.0])))
        assert read_observations_csv(long) == read_observations_csv(wide) == expected
        for path, columns in ((long, 3), (wide, 4)):
            with open(path, "a") as fh:
                fh.write("a,2.0" + ",1.0" * (columns - 2) + ",\n")
            problem = f"line 7: expected {columns} columns, got {columns + 1}"
            with pytest.raises(IngestError, match=f"{path}: {problem}"):
                read_observations_csv(path)

    @pytest.mark.parametrize("text, clr, problem", [
        ("unit_id,time,value\na,0.0,1.0\nb,0.0,1.0\n", False, "no unit has two or more points"),
        ("unit_id,time,other,value\na,0.0,1.0,1.0\nb,0.0,1.0,1.0\n", False,
         "no unit has two or more points"),
        ("unit_id,time,other,value\na,0.0,0.0,0.0\na,1.0,0.0,0.0\n", True,
         "abundance matrix has no positive entries"),
    ], ids=["long", "wide", "clr-all-zero"])
    def test_degenerate_file_is_refused_naming_it(self, tmp_path, text, clr, problem):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(DegenerateDataError, match=f"{path}: {problem}"):
            read_observations_csv(path, clr=clr)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,1.0,2.0\n")
        with pytest.raises(IngestError, match="header"):
            read_observations_csv(path)

    def test_dump_json_refuses_non_finite_floats(self, tmp_path):
        # Refused before the file is opened: no file, not a truncated one.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                dump_json({"a": 1, "x": bad}, tmp_path / "doc.json")
            assert not (tmp_path / "doc.json").exists()


class TestReadDocument:
    CONVERTERS = {"n": integer, "x": number, "name": text, "ns": list_of(integer)}

    def test_returns_present_keys_converted(self):
        doc = read_document({"n": 3, "x": 2, "ns": [1, 2]}, self.CONVERTERS, "doc")
        assert doc == {"n": 3, "x": 2.0, "ns": [1, 2]}
        assert type(doc["x"]) is float
        assert read_document({}, self.CONVERTERS, "doc") == {}

    def test_rejects_a_document_that_is_not_an_object(self):
        with pytest.raises(IngestError, match="doc must be a JSON object, not list"):
            read_document([1, 2], self.CONVERTERS, "doc")

    def test_rejects_an_unknown_key(self):
        with pytest.raises(IngestError, match=r"doc: unknown keys \['m'\]"):
            read_document({"n": 1, "m": 2}, self.CONVERTERS, "doc")

    def test_rejects_a_missing_required_key_with_the_hint(self):
        # Unknown and missing keys are one layout error, which ends with the
        # hint; a wrong-typed value is not a layout error and has no hint.
        with pytest.raises(IngestError, match=r"doc: unknown keys \['m'\], missing keys "
                                              r"\['x'\]; it takes n, x, name, ns; remake it$"):
            read_document({"n": 1, "m": 2}, self.CONVERTERS, "doc", required=("n", "x"),
                          hint="remake it")
        with pytest.raises(IngestError, match=r"doc: n: expected an integer, got '1'$"):
            read_document({"n": "1", "x": 2}, self.CONVERTERS, "doc", required=("n", "x"),
                          hint="remake it")

    @pytest.mark.parametrize("key, value", [
        ("n", 2.5), ("n", True), ("n", "3"), ("n", None),
        ("x", "x"), ("x", False), ("x", [1.0]), ("x", None),
        ("name", None), ("name", 3),
        ("ns", ["a"]), ("ns", [1.0]), ("ns", 3), ("ns", "12"),
        # json.load reads NaN and Infinity tokens, and integers past the float range
        ("x", math.nan), ("x", math.inf), ("x", -math.inf),
        pytest.param("x", 10**400, id="x-1e400"),
    ])
    def test_rejects_a_wrong_typed_value(self, key, value):
        with pytest.raises(IngestError, match=f"doc: {key}: expected"):
            read_document({key: value}, self.CONVERTERS, "doc")

    def test_nested_document_errors_name_both_levels(self):
        inner = {"n": integer}
        outer = {"sub": lambda d: read_document(d, inner, "inner")}
        assert read_document({"sub": {"n": 1}}, outer, "outer") == {"sub": {"n": 1}}
        with pytest.raises(IngestError, match="outer: sub: inner: n: expected an integer"):
            read_document({"sub": {"n": "x"}}, outer, "outer")
