import csv
import io
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinlevels import export, fields, geometry as geo, levelset as ls


def reference_svg_path(points, sx, sy, tx, ty):
    """The per-point SVG path writer replaced by the array one."""
    cmds = []
    for k, (x, y) in enumerate(points):
        cmds.append(f"{'M' if k == 0 else 'L'} {sx * x + tx:.3f} {ty - sy * y:.3f}")
    return " ".join(cmds)


def csv_module_bytes(header, rows):
    """What the csv module writes, as the CSV writer did before it joined rows as text."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def test_write_csv_matches_the_csv_module(tmp_path):
    rows = [(0, 0.5, -0.0, 1e-300), (17, 1e22, float("nan"), float("inf")),
            (-3, -float("inf"), 5e-324, 0.1), (10 ** 20, 1.0, 2.0, -1e-7)]
    rng = np.random.default_rng(9)
    rows += [(k, *map(float, rng.standard_normal(3) * 10.0 ** rng.integers(-12, 12)))
             for k in range(200)]
    export.write_csv(tmp_path / "t.csv", ["curve", "level", "x", "y"],
                     (",".join(map(str, row)) for row in rows))
    assert (tmp_path / "t.csv").read_bytes() == csv_module_bytes(["curve", "level", "x", "y"],
                                                                 rows)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


special_floats = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                                  5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                                  1.7976931348623157e308, 1e16, 1e-7, 0.1])
floats = st.one_of(st.floats(), special_floats, st.floats().map(np.float64),
                   special_floats.map(np.float64))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text())
float_pairs = st.lists(st.one_of(st.tuples(floats, floats),
                                 st.lists(floats, min_size=2, max_size=2)), max_size=8)
json_like = st.recursive(
    st.one_of(scalars, st.lists(floats, max_size=8), float_pairs),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


class TestCanonicalJson:
    @settings(max_examples=500, deadline=None)
    @given(json_like)
    def test_matches_json_dumps(self, obj):
        assert export.canonical_json(obj) == dumps(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": []}, {"a": {}}, [[]], [{}],
        [1.0, 2.5, -0.0], [[1.0, 2.0], [3.0, -4.5]], [(1.0, 2.0)],
        [1.0, float("nan")], [[1.0, float("inf")], [2.0, 3.0]], [[1.0, 2.0, 3.0]],
        [[1.0, 2.0], [3.0]], [[1.0, 2.0], 3.0], [[1, 2.0]], [1.0, 2], [True, 1.0],
        {"b": "é☃\x00\x1f\"\\", "a": [np.float64(0.1), np.float64(-np.inf)]},
    ])
    def test_examples(self, obj):
        assert export.canonical_json(obj) == dumps(obj)

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_non_str_keys_rejected(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            export.canonical_json({"ok": {key: 1.0}})

    @pytest.mark.parametrize("obj", [np.int64(3), np.array([1.0]), {1.0, 2.0}, object()])
    def test_unserializable_values_rejected(self, obj):
        with pytest.raises(TypeError):
            export.canonical_json({"x": obj})


class TestSvgPath:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_point_writer(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(2, 300)), 2)) * 10 ** rng.uniform(-4, 3)
        pts[::7] = 0.0                                # -0.000 after scaling and shifting
        args = (rng.uniform(1, 200), rng.uniform(1, 200), rng.uniform(-50, 50),
                rng.uniform(-50, 50))
        assert export._svg_path(pts, *args) == reference_svg_path(pts, *args)

    def test_level_curves(self):
        s = fields.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2))
        for curve in ls.extract_level_curve(s, 1.0, w, 0.01):
            assert export._svg_path(curve.vertices, 160.0, 160.0, 0.0, 251.3) \
                == reference_svg_path(curve.vertices, 160.0, 160.0, 0.0, 251.3)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_reports_get_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    # each writer renames a temp file to the report, which keeps the temp's mode
    old = os.umask(umask)
    try:
        export.write_json(tmp_path / "r.json", {"a": 1.0})
        export.write_csv(tmp_path / "r.csv", ["x"], ["1.0"])
        export.write_svg_levels(tmp_path / "r.svg", [], geo.WindowBox((0.0, 0.0), (1.0, 1.0)))
        open(tmp_path / "plain", "w").close()
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["r.json", "r.csv", "r.svg", "plain"], mode)


def test_a_failed_write_removes_its_temp_file(tmp_path):
    # the temp file exists when the write raises: a text file takes no int
    with pytest.raises(TypeError):
        export._atomic_write(str(tmp_path / "r.json"), 3)
    assert not list(tmp_path.iterdir())
