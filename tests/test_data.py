import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcure import (
    CsvSchema,
    DegenerateCovariateError,
    ParseError,
    SchemaError,
    destandardize_gamma,
    load_csv,
    standardize_continuous,
    write_csv,
)
from smoothcure.data import CovariateMeta, SurvivalDataset
from smoothcure.incidence import expit

from conftest import build_dataset


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_shared_column(self, tmp_path):
        path = write_file(tmp_path, "time,status,age\n1.0,1,50\n2.5,0,61\n0.5,1,47\n")
        ds = load_csv(path, CsvSchema(time="time", status="status", x_continuous=("age",), z=("age",)))
        assert (ds.n, ds.p, ds.q) == (3, 2, 1)
        assert np.all(ds.x[:, 0] == 1.0)
        assert np.array_equal(ds.x[:, 1], ds.z[:, 0])
        assert list(ds.y) == [1.0, 2.5, 0.5]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet tools write UTF-8 with a leading byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbftime,status,age\n1.0,1,50\n2.5,0,61\n")
        ds = load_csv(path, CsvSchema(time="time", status="status", x_continuous=("age",)))
        assert list(ds.y) == [1.0, 2.5]
        assert list(ds.x[:, 1]) == [50.0, 61.0]

    def test_bad_status_names_row(self, tmp_path):
        rows = "\n".join(f"{i}.0,1,3" for i in range(1, 5))
        path = write_file(tmp_path, f"time,status,age\n{rows}\n9.0,2,4\n")
        with pytest.raises(ParseError, match="row 5"):
            load_csv(path, CsvSchema(time="time", status="status", x_continuous=("age",)))

    def test_ecog_style_schema(self, tmp_path):
        lines = ["time,status,age,gender,treatment"]
        rng = np.random.default_rng(0)
        for i in range(8):
            lines.append(f"{rng.exponential():.3f},{i % 2},{40 + i},{i % 2},{(i // 2) % 2}")
        path = write_file(tmp_path, "\n".join(lines) + "\n")
        schema = CsvSchema(
            time="time",
            status="status",
            x_continuous=("age",),
            x_discrete=("gender", "treatment"),
            z=("age", "gender", "treatment"),
        )
        ds = load_csv(path, schema)
        assert (ds.p, ds.q) == (4, 3)
        assert ds.meta.discrete == (False, True, True)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_file(tmp_path, "time,status\n1,1\n2,0\n")
        with pytest.raises(SchemaError, match="age"):
            load_csv(path, CsvSchema(time="time", status="status", x_continuous=("age",)))

    def test_repeated_column_is_schema_error(self, tmp_path):
        # Two x1 columns: neither may be read silently in place of the other.
        path = write_file(tmp_path, "time,status,x1,x1\n1,1,0.5,9\n2,0,0.7,8\n")
        with pytest.raises(SchemaError, match="x1"):
            load_csv(path, CsvSchema(time="time", status="status", x_continuous=("x1",)))

    def test_repeated_unused_column_is_ignored(self, tmp_path):
        path = write_file(tmp_path, "time,status,note,x1,note\n1,1,a,0.5,b\n2,0,c,0.7,d\n")
        ds = load_csv(path, CsvSchema(time="time", status="status", x_continuous=("x1",)))
        assert list(ds.x[:, 1]) == [0.5, 0.7]

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = write_file(tmp_path, "time,status,age\n1,1,50\n2,0,fifty\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, CsvSchema(time="time", status="status", x_continuous=("age",)))

    def test_negative_time_rejected(self, tmp_path):
        path = write_file(tmp_path, "time,status\n1,1\n-2,0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, CsvSchema(time="time", status="status"))

    def test_round_trip_preserves_numbers(self, tmp_path, rng):
        n = 17
        lines = ["time,status,age,grp"]
        for _ in range(n):
            lines.append(
                f"{rng.exponential():.17g},{int(rng.random() < 0.6)},{rng.normal():.17g},{int(rng.random() < 0.5)}"
            )
        path = write_file(tmp_path, "\n".join(lines) + "\n")
        schema = CsvSchema(time="time", status="status", x_continuous=("age",),
                           x_discrete=("grp",), z=("age",))
        ds = load_csv(path, schema)
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        ds2 = load_csv(out, schema)
        assert np.allclose(ds.y, ds2.y, rtol=0, atol=1e-12)
        assert np.array_equal(ds.delta, ds2.delta)
        assert np.allclose(ds.x, ds2.x, rtol=0, atol=1e-12)
        assert np.allclose(ds.z, ds2.z, rtol=0, atol=1e-12)


class TestWriteCsv:
    """No column of a three-row dataset is dropped on the way out."""

    @staticmethod
    def dataset(z, z_names):
        meta = CovariateMeta(names=("x1",), discrete=(False,))
        x = np.column_stack([np.ones(3), [0.1, 0.2, 0.3]])
        return SurvivalDataset(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), x, z, meta, z_names=z_names)

    def test_unnamed_latency_column_rejected(self, tmp_path):
        ds = self.dataset(np.array([[5.0], [6.0], [7.0]]), ())
        with pytest.raises(SchemaError, match="latency covariate column 0"):
            write_csv(ds, tmp_path / "out.csv")

    def test_same_name_other_values_rejected(self, tmp_path):
        ds = self.dataset(np.array([[5.0], [6.0], [7.0]]), ("x1",))
        with pytest.raises(SchemaError, match="'x1'"):
            write_csv(ds, tmp_path / "out.csv")

    def test_shared_column_written_once(self, tmp_path):
        ds = self.dataset(np.array([[0.1, 5.0], [0.2, 6.0], [0.3, 7.0]]), ("x1", "z2"))
        write_csv(ds, tmp_path / "out.csv")
        header = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "time,status,x1,z2"


class TestStandardize:
    def test_known_column(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 2.0, 4.0]])
        out = standardize_continuous(ds)
        assert np.allclose(out.x[:, 1], [-1.0, 0.0, 1.0])
        assert out.meta.means == (2.0,)
        assert out.meta.sds == (2.0,)

    def test_discrete_column_untouched(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 1.0, 1.0]], discrete=[True])
        out = standardize_continuous(ds)
        assert np.array_equal(out.x[:, 1], [0.0, 1.0, 1.0])
        assert out.meta.sds == (1.0,)

    def test_constant_column_rejected(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[5.0, 5.0, 5.0]])
        with pytest.raises(DegenerateCovariateError):
            standardize_continuous(ds)

    def test_destandardization_recovers_values(self, rng):
        col = rng.normal(3.0, 4.0, 25)
        ds = build_dataset(rng.exponential(1, 25), np.ones(25, int), x_cols=[col])
        out = standardize_continuous(ds)
        back = out.x[:, 1] * out.meta.sds[0] + out.meta.means[0]
        assert np.allclose(back, col, rtol=0, atol=1e-12)

    def test_destandardize_gamma_preserves_linear_predictor(self, rng):
        col = rng.normal(10.0, 2.5, 30)
        ds = build_dataset(rng.exponential(1, 30), np.ones(30, int), x_cols=[col])
        out = standardize_continuous(ds)
        gamma_std = np.array([0.4, -1.3])
        gamma = destandardize_gamma(gamma_std, out.meta)
        assert np.allclose(expit(ds.x @ gamma), expit(out.x @ gamma_std), atol=1e-12)


class TestDatasetInvariants:
    def test_rejects_negative_time(self):
        with pytest.raises(ParseError):
            build_dataset([1.0, -0.5], [1, 0])

    def test_rejects_bad_delta(self):
        with pytest.raises(ParseError):
            build_dataset([1.0, 2.0], [1, 2])

    def test_rejects_no_events(self):
        with pytest.raises(ParseError):
            build_dataset([1.0, 2.0], [0, 0])

    def test_rejects_broken_intercept(self):
        meta = CovariateMeta(names=(), discrete=())
        with pytest.raises(ParseError):
            SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 0]),
                            np.array([[2.0], [1.0]]), np.empty((2, 0)), meta)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("block,column", [("x", 1), ("x", 2), ("z", 0)],
                             ids=["continuous-x", "discrete-x", "z"])
    def test_rejects_non_finite_covariate(self, block, column, value):
        ds = build_dataset([1.0, 2.0, 3.0], [1, 0, 1], x_cols=[[0.5, 1.5, 2.5], [0.0, 1.0, 1.0]],
                           z_cols=[[0.1, 0.2, 0.3]], discrete=[False, True])
        arrays = {"x": np.array(ds.x), "z": np.array(ds.z)}
        arrays[block][1, column] = value
        with pytest.raises(ParseError, match=f"covariate block {block} "):
            SurvivalDataset(ds.y, ds.delta, arrays["x"], arrays["z"], ds.meta, ds.z_names)

    def test_arrays_immutable(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.y[0] = 9.0

    def test_caller_arrays_stay_writeable(self):
        # The dataset keeps private copies: the caller may go on writing to
        # its own arrays, and the writes do not reach the dataset.
        y, delta = np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0])
        x, z = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.array([[0.5], [0.1], [0.2]])
        meta = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 1.0, 2.0]]).meta
        ds = SurvivalDataset(y, delta, x, z, meta)
        for name, a in (("y", y), ("delta", delta), ("x", x), ("z", z)):
            assert a.flags.writeable, name
            before = np.array(getattr(ds, name))
            a[0] = 0
            assert np.array_equal(getattr(ds, name), before), name
        # Arrays that are already read-only, such as another dataset's, are shared.
        again = SurvivalDataset(ds.y, ds.delta, ds.x, ds.z, meta)
        assert all(getattr(again, k) is getattr(ds, k) for k in ("y", "delta", "x", "z"))

    def test_take_preserves_rows(self, rng):
        ds = build_dataset(rng.exponential(1, 10), np.ones(10, int),
                           x_cols=[rng.normal(size=10)], z_cols=[rng.normal(size=10)])
        sub = ds.take([3, 3, 5])
        assert sub.n == 3
        assert sub.y[0] == sub.y[1] == ds.y[3]
        assert not sub.meta.standardized

    def test_param_names(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 1.0, 2.0]], z_cols=[[0.5, 0.1, 0.2]])
        assert ds.param_names == ("gamma_intercept", "gamma_x1", "beta_z1")
        unnamed = SurvivalDataset(ds.y, ds.delta, ds.x, np.column_stack([ds.z, ds.z**2]), ds.meta)
        assert unnamed.param_names == ("gamma_intercept", "gamma_x1", "beta_0", "beta_1")
        assert ds.take([2, 0]).param_names == ds.param_names

    def test_meta_requires_positive_sd(self):
        with pytest.raises(DegenerateCovariateError):
            CovariateMeta(names=("a",), discrete=(False,), means=(0.0,), sds=(0.0,))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=12, unique=True).filter(
        lambda vs: max(vs) - min(vs) > 1e-6
    )
)
def test_standardize_round_trip_property(values):
    n = len(values)
    ds = build_dataset(np.arange(1, n + 1), np.ones(n, int), x_cols=[np.asarray(values)])
    out = standardize_continuous(ds)
    back = out.x[:, 1] * out.meta.sds[0] + out.meta.means[0]
    assert np.allclose(back, values, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(values))))
