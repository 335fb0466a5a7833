import os
import subprocess
import sys

import numpy as np
import pytest

from warpbench import _util, curves as cv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def oracle_bytes(tmp_path, header, table):
    """The bytes numpy's text writer gives for the same table."""
    path = tmp_path / "oracle.csv"
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    return path.read_bytes()


def written_bytes(tmp_path, header, table):
    path = tmp_path / "written.csv"
    _util.write_csv(path, header, table)
    return path.read_bytes()


class TestWriteCsv:
    @pytest.mark.parametrize("table", [
        np.array([[np.nan, np.inf, -np.inf],
                  [-0.0, 5e-324, -1e-310],
                  [1e308, 0.0, -1.0 / 3.0]]),
        np.empty((0, 4)),
        np.linspace(-2.0, 3.0, 17).reshape(17, 1),
        np.random.default_rng(0).standard_normal(
            (2 * _util._CSV_BLOCK_ROWS + 808, 4)) * 1e3,
    ], ids=["special-values", "empty", "one-column", "three-blocks"])
    def test_bytes_match_numpy(self, tmp_path, table):
        header = ",".join(["t"] + [f"c{k}" for k in range(table.shape[1] - 1)])
        assert (written_bytes(tmp_path, header, table)
                == oracle_bytes(tmp_path, header, table))

    def test_non_contiguous_table(self, tmp_path):
        table = np.arange(60.0).reshape(5, 12)[:, ::3].T
        assert (written_bytes(tmp_path, "a,b,c,d,e", table)
                == oracle_bytes(tmp_path, "a,b,c,d,e", table))

    def test_node_backed_curve_matches_numpy(self, tmp_path):
        h0, _ = cv.integrate_transfer_odes(0.1, t_max=2.0, step_budget=2048)
        path = tmp_path / "curve.csv"
        h0.write_csv(path)
        assert path.read_bytes() == oracle_bytes(
            tmp_path, "t,v0,v1,v2,v3", h0.node_table())

    def test_grid_curve_matches_numpy(self, tmp_path):
        s = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        assert s.nodes is None
        path = tmp_path / "curve.csv"
        s.write_csv(path, per_unit=16)
        assert path.read_bytes() == oracle_bytes(
            tmp_path, "t,v0,v1,v2,v3", s.node_table(16))


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [-0.0, 0.0, -1.0, -0.0],
        [-0.0] * 5 + [0.0] * 5,
        [],
        [2.5],
    ])
    def test_equals_np_unique_bitwise(self, values):
        a = np.array(values, dtype=float)
        got, want = _util.sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_equals_np_unique_on_a_merged_grid(self):
        rng = np.random.default_rng(1)
        base = np.round(rng.uniform(-1.0, 1.0, 4000), 3)
        a = np.concatenate([base, -base, np.zeros(3), -np.zeros(3)])
        assert _util.sorted_unique(a).tobytes() == np.unique(a).tobytes()


def test_handle1_build_leaves_numpy_ma_unloaded():
    code = (
        "import sys\n"
        "from warpbench import blocks\n"
        "loaded_by_import = 'numpy.ma' in sys.modules\n"
        "blocks.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99,\n"
        "                     eps1=0.01, eps2=0.1, delta=0.05)\n"
        "print(loaded_by_import, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out == ["False", "False"]
