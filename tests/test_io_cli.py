"""CLI subcommands, file formats, round trips, exit codes."""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest as data
import rmfspline
from rmfspline import io_cli
from rmfspline.checks import validate_spline
from rmfspline.io_cli import (
    CURVES,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    read_spline_file,
    read_stream_file,
    sample_curve,
    write_spline_file,
    write_stream_file,
)
from rmfspline.errors import StreamFormatError, ValidationError
from rmfspline.quat import angle_between
from rmfspline.spline import (MAX_COORDINATE, PointStream, build, chord_knots,
                              default_initial_frame, minaj2_tangents)

BAD = "0,0,0\n-5,5,2\n2,2,0\n"
FIXED = "0,0,0\n-5,5,2\n-4,6,-2\n2,2,0\n"
GENERIC1 = "0,0,0\n-5,5,2\n0,10,-2\n8,12,5\n15,2,3\n2,0,7\n"


class TestSample:
    def test_helix_is_unit_speed(self):
        fn, dfn, domain = CURVES["helix"]
        us = np.linspace(0.0, domain, 57)
        speeds = np.linalg.norm(dfn(us), axis=1)
        assert np.allclose(speeds, 1.0, atol=1e-14)

    def test_helix_six_points_match_direct_evaluation(self):
        params, pts, tans = sample_curve("helix", 5)
        uh = 2.0 * math.sqrt(29.0)
        assert len(pts) == 6
        assert params[-1] == pytest.approx(3.6 * math.pi * uh)
        for k, u in enumerate(params):
            direct = np.array([10 * math.sin(u / uh), 10 * math.cos(u / uh),
                               -4 * u / uh])
            assert np.allclose(pts[k], direct, atol=1e-12)

    def test_torus_start_point(self):
        _, pts, _ = sample_curve("torus", 2)
        assert np.allclose(pts[0], [30.0, 0.0, 0.0], atol=1e-14)

    def test_unknown_curve(self):
        with pytest.raises(StreamFormatError):
            sample_curve("clothoid", 4)

    def test_cli_writes_stream(self, tmp_path):
        out = tmp_path / "helix.json"
        assert main(["sample", "--curve", "helix", "--n", "5",
                     "--out", str(out)]) == EXIT_OK
        doc = read_stream_file(str(out))
        assert doc["points"].shape == (6, 3)
        assert doc["reference_tangents"].shape == (6, 3)
        assert "initial_frame" in doc and doc["params"].shape == (6,)

    def test_cli_rejects_one_span(self, tmp_path, capsys):
        out = tmp_path / "helix.json"
        assert main(["sample", "--curve", "helix", "--n", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "need at least two spans" in capsys.readouterr().err
        assert not out.exists()


TWO_POINTS = "[[0, 0, 0], [1, 2, 3]]"
FRAME_UV = '"u": [1, 0, 0], "v": [0, 1, 0]'
MALFORMED_STREAMS = [
    ("invalid JSON", '{"points": [[0, 0, 0]', "invalid JSON"),
    ("no points", '{"pts": %s}' % TWO_POINTS, "missing required key 'points'"),
    ("2-vector points", '{"points": [[0, 0], [1, 2]]}', "'points' must be an array of 3-vectors"),
    ("reference count", '{"points": %s, "reference_tangents": [[1, 0, 0]]}' % TWO_POINTS,
     "one reference tangent per point required"),
    ("parameter count", '{"points": %s, "params": [0, 1, 2]}' % TWO_POINTS,
     "one parameter per point required"),
    ("non-numeric CSV", "0,0,0\n1,x,2\n", ":2: could not convert string to float"),
    ("empty", "", "no points found"),
    ("comments only", "# no points\n\n", "no points found"),
    ("frame key missing", '{"points": %s, "initial_frame": {%s}}' % (TWO_POINTS, FRAME_UV),
     "frame object is missing key 'w'"),
    ("frame 2-vector",
     '{"points": %s, "initial_frame": {%s, "w": [0, 1]}}' % (TWO_POINTS, FRAME_UV),
     r"frame\.w must be a 3-vector"),
    ("ragged points", '{"points": [[0, 0, 0], [1, 1]]}', "'points' must be an array of 3-vectors"),
    ("points an object", '{"points": {"p0": [0, 0, 0], "p1": [1, 2, 3]}}',
     "'points' must be an array of 3-vectors"),
    ("ragged reference tangents",
     '{"points": %s, "reference_tangents": [[1, 0, 0], [0, 1]]}' % TWO_POINTS,
     "one reference tangent per point required"),
    ("non-numeric params", '{"points": [[0, 0, 0], [1, 2, 3], [2, 0, 1]], "params": ["x", 1, 2]}',
     "one parameter per point required"),
    ("non-numeric frame",
     '{"points": %s, "initial_frame": {"u": [1, 0, 0], "v": ["a", 1, 0], "w": [0, 0, 1]}}'
     % TWO_POINTS, r"frame\.v must be a 3-vector"),
    ("frame a list", '{"points": %s, "initial_frame": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
     % TWO_POINTS, "frame must be a JSON object"),
    ("points as numeral strings", '{"points": [["0", "0", "0"], ["1", "2", "3"]]}',
     "'points' must be an array of 3-vectors"),
    ("boolean params", '{"points": %s, "params": [false, true]}' % TWO_POINTS,
     "one parameter per point required"),
    ("frame of numeral strings",
     '{"points": %s, "initial_frame": {%s, "w": ["0", "0", "1"]}}' % (TWO_POINTS, FRAME_UV),
     r"frame\.w must be a 3-vector"),
    ("boolean among points", '{"points": [[0, 0, 0], [1, 2, true], [3, 1, 2]]}',
     "'points' must be an array of 3-vectors"),
    ("null in points", '{"points": [[0, 0, null], [1, 2, 3]]}',
     "'points' must be an array of 3-vectors"),
    ("boolean among params", '{"points": [[0, 0, 0], [1, 2, 3], [2, 0, 1]], "params": [0, true, 2]}',
     "one parameter per point required"),
    ("numeral string beside a huge integer",
     '{"points": %s, "params": ["1.5", %d]}' % (TWO_POINTS, 10**30),
     "one parameter per point required"),
]


class TestStreamFiles:
    def test_csv_round_trip(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("# comment\n0,0,0\n1.5 2.5 -3.5\n\n2,2,2\n")
        doc = read_stream_file(str(f))
        assert np.allclose(doc["points"], [[0, 0, 0], [1.5, 2.5, -3.5], [2, 2, 2]])

    def test_csv_bad_line_reports_number(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("0,0,0\n1,2\n")
        with pytest.raises(StreamFormatError) as err:
            read_stream_file(str(f))
        assert err.value.line_no == 2

    def test_json_round_trip(self, tmp_path):
        f = tmp_path / "stream.json"
        pts = np.array([[0.1234567890123456, 0, 0], [1, 1, 1]])
        frame = default_initial_frame(np.array([1.0, 0.0, 0.0]))
        write_stream_file(str(f), pts, initial_frame=frame)
        doc = read_stream_file(str(f))
        assert np.array_equal(doc["points"], pts)
        assert np.array_equal(doc["initial_frame"], frame)

    def test_missing_file(self):
        with pytest.raises(StreamFormatError):
            read_stream_file("/nonexistent/stream.csv")

    @pytest.mark.parametrize("text, message", [(t, m) for _, t, m in MALFORMED_STREAMS],
                             ids=[name for name, _, _ in MALFORMED_STREAMS])
    def test_malformed_stream_rejected(self, tmp_path, capsys, text, message):
        f = tmp_path / "stream.txt"
        f.write_text(text)
        with pytest.raises(StreamFormatError, match=message):
            read_stream_file(str(f))
        out = tmp_path / "spline.json"
        assert main(["interpolate", "--in", str(f), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestInterpolateCommand:
    def test_generic_stream_succeeds(self, tmp_path, capsys):
        src = tmp_path / "g1.csv"
        src.write_text(GENERIC1)
        out = tmp_path / "g1_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "chord",
                   "--out", str(out)])
        assert rc == EXIT_OK
        path = read_spline_file(str(out))
        assert path.n_segments == 5
        assert "built 5 segments" in capsys.readouterr().out

    def test_bad_stream_exit_code_and_message(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(BAD)
        out = tmp_path / "bad_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "chord",
                   "--out", str(out)])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "0.860" in err  # turning angle in units of pi
        assert "insert a middle point" in err

    def test_inserted_midpoint_recovers(self, tmp_path):
        src = tmp_path / "fixed.csv"
        src.write_text(FIXED)
        out = tmp_path / "fixed_spline.json"
        assert main(["interpolate", "--in", str(src), "--mode", "chord",
                     "--out", str(out)]) == EXIT_OK

    def test_parse_error_exit_code(self, tmp_path):
        src = tmp_path / "broken.csv"
        src.write_text("1,2\n")
        rc = main(["interpolate", "--in", str(src), "--mode", "chord",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_stream_exit_code(self, tmp_path, capsys, bad):
        src = tmp_path / "bad.csv"
        src.write_text(GENERIC1.replace("8,12,5", f"8,{bad},5"))
        out = tmp_path / "bad_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "chord", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "stream point 3 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_params_exit_code(self, tmp_path, capsys):
        params, points, tangents = sample_curve("helix", 5)
        params[2] = math.nan
        src = tmp_path / "helix.json"
        write_stream_file(str(src), points, initial_frame=default_initial_frame(tangents[0]),
                          params=params)
        out = tmp_path / "helix_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "uniform", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "knots must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_reference_tangent_exit_code(self, tmp_path, capsys):
        # No initial frame: the default one would be derived from tangent 0.
        _, points, tangents = sample_curve("helix", 5)
        tangents[0, 1] = math.nan
        src = tmp_path / "helix.json"
        write_stream_file(str(src), points, reference_tangents=tangents)
        out = tmp_path / "helix_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "chord", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "reference tangent 0 is zero or not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["chord", "uniform"])
    def test_one_point_stream_exit_code(self, tmp_path, capsys, mode):
        # No initial frame: the default one would be derived from the stream.
        _, points, _ = sample_curve("helix", 5)
        src = tmp_path / "one.json"
        write_stream_file(str(src), points[:1])
        out = tmp_path / "one_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", mode, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "a stream needs at least two 3D points" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys):
        # It reads as inf, as the literal 1e400 does, not as an OverflowError.
        src = tmp_path / "huge_int.json"
        src.write_text('{"points": [[0, 0, 0], [1, 2, %d], [3, 1, 2]]}' % 10**400)
        assert read_stream_file(str(src))["points"][1, 2] == math.inf
        out = tmp_path / "huge_int_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "chord", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "stream point 1 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_coordinate_exit_code(self, tmp_path, capsys):
        _, points, _ = sample_curve("helix", 5)
        src = tmp_path / "huge.json"
        write_stream_file(str(src), points * 1e200)
        out = tmp_path / "huge_spline.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["interpolate", "--in", str(src), "--mode", "chord", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "stream point 0 has a coordinate beyond" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_frame_file_exit_code(self, tmp_path, capsys):
        # A --frame file that cannot be read is an I/O error naming the file.
        src = tmp_path / "g1.csv"
        src.write_text(GENERIC1)
        out = tmp_path / "g1_spline.json"
        rc = main(["interpolate", "--in", str(src), "--frame", str(tmp_path / "none.json"),
                   "--out", str(out)])
        assert rc == EXIT_IO
        assert "none.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"u": [1, 0, 0]', "invalid JSON"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "frame must be a JSON object"),
    ], ids=["invalid JSON", "list"])
    def test_malformed_frame_file_exit_code(self, tmp_path, capsys, text, message):
        src = tmp_path / "g1.csv"
        src.write_text(GENERIC1)
        ff = tmp_path / "frame.json"
        ff.write_text(text)
        out = tmp_path / "g1_spline.json"
        rc = main(["interpolate", "--in", str(src), "--frame", str(ff), "--out", str(out)])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_degenerate_reference_tangent_exit_code(self, tmp_path, capsys):
        # On uniform knots with p2 - p1 = 4 (p1 - p0) the local rule's first
        # tangent vanishes: a GeometryError before any segment is built.
        src = tmp_path / "line.csv"
        src.write_text("0,0,0\n1,0,0\n5,0,0\n6,1,0\n")
        out = tmp_path / "line_spline.json"
        rc = main(["interpolate", "--in", str(src), "--mode", "uniform", "--out", str(out)])
        assert rc == EXIT_INFEASIBLE
        assert "reference tangent at point 0 degenerates to zero" in capsys.readouterr().err
        assert not out.exists()

    def test_frameless_two_point_stream_exit_code(self, tmp_path, capsys):
        # The default frame starts along the chord, which leaves no
        # admissible end tangent: such a stream needs --frame.
        src = tmp_path / "two.json"
        src.write_text('{"points": [[0, 0, 0], [1, 2, 3]]}')
        out = tmp_path / "two_spline.json"
        rc = main(["interpolate", "--in", str(src), "--out", str(out)])
        assert rc == EXIT_INFEASIBLE
        assert "chord is aligned with the start tangent" in capsys.readouterr().err
        assert not out.exists()

    def test_frameless_csv_stream_is_the_default_frame_build(self, tmp_path):
        src = tmp_path / "g1.csv"
        src.write_text(GENERIC1)
        out = tmp_path / "g1_spline.json"
        assert main(["interpolate", "--in", str(src), "--out", str(out)]) == EXIT_OK
        points = read_stream_file(str(src))["points"]
        u0 = minaj2_tangents(points, chord_knots(points))[0]
        want = tmp_path / "want.json"
        write_spline_file(str(want), build(PointStream(points, default_initial_frame(u0))))
        assert out.read_bytes() == want.read_bytes()

    def test_explicit_frame_file(self, tmp_path):
        src = tmp_path / "g1.csv"
        src.write_text(GENERIC1)
        frame = default_initial_frame(np.array([-0.7, 0.6, 0.3]))
        ff = tmp_path / "frame.json"
        ff.write_text(json.dumps({"u": list(frame[0]), "v": list(frame[1]),
                                  "w": list(frame[2])}))
        out = tmp_path / "g1_spline.json"
        assert main(["interpolate", "--in", str(src), "--frame", str(ff),
                     "--out", str(out)]) == EXIT_OK
        path = read_spline_file(str(out))
        assert np.allclose(path.frames[0], frame, atol=1e-9)

    def test_default_frame_on_the_knots_build_uses(self, tmp_path):
        # Uniform mode on a stream with a params grid and no frame: the
        # default frame starts from build's first reference tangent, which
        # is on the grid, not on integer knots.
        params, points, _ = sample_curve("spiral", 6)
        knots = params ** 1.5
        u0 = minaj2_tangents(points, knots)[0]
        assert angle_between(u0, minaj2_tangents(points, np.arange(7.0))[0]) > 0.05
        src = tmp_path / "spiral.json"
        write_stream_file(str(src), points, params=knots)
        out = tmp_path / "spiral_spline.json"
        assert main(["interpolate", "--in", str(src), "--mode", "uniform",
                     "--out", str(out)]) == EXIT_OK
        want = tmp_path / "want.json"
        write_spline_file(str(want), build(PointStream(points, default_initial_frame(u0)),
                                           mode="uniform", knots=knots))
        assert out.read_bytes() == want.read_bytes()


@pytest.fixture
def helix_spline(tmp_path):
    stream = tmp_path / "helix.json"
    out = tmp_path / "helix_spline.json"
    assert main(["sample", "--curve", "helix", "--n", "5", "--out", str(stream)]) == 0
    assert main(["interpolate", "--in", str(stream), "--mode", "uniform",
                 "--out", str(out)]) == 0
    return out


class TestEvalCommand:
    def test_two_endpoint_samples(self, tmp_path, helix_spline):
        out = tmp_path / "table.csv"
        assert main(["eval", "--in", str(helix_spline), "--samples", "1",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,x,y,z,f1x,f1y,f1z,f2x,f2y,f2z,f3x,f3y,f3z"
        assert len(lines) == 3
        path = read_spline_file(str(helix_spline))
        first = np.array([float(c) for c in lines[1].split(",")])
        assert first[0] == path.knots[0]
        p, f = path.eval(float(path.knots[0]))
        assert np.array_equal(first[1:4], p)

    def test_round_trip_bit_for_bit(self, tmp_path, helix_spline):
        path = read_spline_file(str(helix_spline))
        us = np.linspace(path.knots[0], path.knots[-1], 21)
        pts, frames = path.eval_many(us)
        out = tmp_path / "table.csv"
        assert main(["eval", "--in", str(helix_spline), "--samples", "20",
                     "--out", str(out)]) == EXIT_OK
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in out.read_text().strip().splitlines()[1:]])
        assert np.array_equal(rows[:, 1:4], pts)
        assert np.array_equal(rows[:, 4:13].reshape(-1, 3, 3), frames)

    @pytest.mark.parametrize("samples", ["-3", "-1", "0"])
    def test_sample_count_below_one_rejected(self, tmp_path, helix_spline, capsys, samples):
        out = tmp_path / "table.csv"
        assert main(["eval", "--in", str(helix_spline), "--samples", samples,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"--samples must be at least 1, got {samples}" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_rows_orthonormal(self, tmp_path, helix_spline):
        out = tmp_path / "table.csv"
        assert main(["eval", "--in", str(helix_spline), "--samples", "40",
                     "--out", str(out)]) == EXIT_OK
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in out.read_text().strip().splitlines()[1:]])
        for row in rows:
            f = row[4:13].reshape(3, 3)
            assert np.max(np.abs(f @ f.T - np.eye(3))) <= 1e-9


def _reloaded_walk(torus_path, tmp_path):
    saved = tmp_path / "walk_spline.json"
    write_spline_file(str(saved), data.walk_paths(1, 5)[0])
    return read_spline_file(str(saved))


# Floats whose shortest repr is short, subnormal, signed or in exponent form.
REPR_EDGE_CASES = [-0.0, 5e-324, 1e-07, 1e16, 1e22, 2.0]


def _repr_edge_cases(torus_path, tmp_path):
    values = np.resize(REPR_EDGE_CASES, torus_path.n_segments)
    r0 = torus_path.r0.copy()
    r0[1] = [MAX_COORDINATE, -np.nextafter(MAX_COORDINATE, 0.0), 5e-324]
    return dataclasses.replace(torus_path, r0=r0, mu=values, phi2=-values, theta1=values[::-1])


# The paths whose spline files are compared with json.dump's bytes.
BYTE_TEST_PATHS = {
    "torus": lambda torus_path, tmp_path: torus_path,
    "one-segment": lambda torus_path, tmp_path: build(PointStream(
        points=[[0, 0, 0], [-5, 5, 2]], initial_frame=default_initial_frame([0.0, 1.0, 0.0]))),
    "reloaded-walk": _reloaded_walk,
    "repr-edge-cases": _repr_edge_cases,
}


class TestSplineFiles:
    def test_reload_reproduces_evaluations_exactly(self, tmp_path):
        params, pts, tans = sample_curve("torus", 7)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        built = build(stream, reference_tangents=tans, knots=params)
        f = tmp_path / "torus_spline.json"
        write_spline_file(str(f), built)
        reloaded = read_spline_file(str(f))
        us = np.linspace(built.knots[0], built.knots[-1], 29)
        p1, f1 = built.eval_many(us)
        p2, f2 = reloaded.eval_many(us)
        assert np.array_equal(p1, p2)
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("curve", ["helix", "torus", "spiral"])
    def test_save_load_save_byte_identical(self, tmp_path, curve):
        _, pts, tans = sample_curve(curve, 12)
        built = build(PointStream(points=pts, initial_frame=default_initial_frame(tans[0])))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_spline_file(str(first), built)
        loaded = read_spline_file(str(first))
        write_spline_file(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.frames, built.frames)

    @pytest.mark.parametrize("case", list(BYTE_TEST_PATHS))
    def test_written_bytes_are_json_dump_bytes(self, tmp_path, torus_path, case):
        # The spline writer formats a template, the stream writer makes its
        # text in one json.dumps call: the bytes are those of json.dump's
        # token-by-token writes.
        def dumped(doc) -> bytes:
            buf = io.StringIO()
            json.dump(doc, buf, indent=1)
            buf.write("\n")
            return buf.getvalue().encode("utf-8")

        path = BYTE_TEST_PATHS[case](torus_path, tmp_path)
        spline_file = tmp_path / "spline.json"
        write_spline_file(str(spline_file), path)
        assert spline_file.read_bytes() == dumped(io_cli.spline_to_dict(path))
        params, pts, tans = sample_curve("spiral", 30)
        frame = default_initial_frame(tans[0])
        stream_file = tmp_path / "stream.json"
        write_stream_file(str(stream_file), pts, initial_frame=frame, reference_tangents=tans,
                          params=params)
        assert stream_file.read_bytes() == dumped({
            "points": pts.tolist(), "initial_frame": dict(zip("uvw", frame.tolist())),
            "reference_tangents": tans.tolist(), "params": params.tolist()})

    def test_empty_file_is_schema_error(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("")
        with pytest.raises(StreamFormatError):
            read_spline_file(str(f))
        assert main(["validate", "--in", str(f)]) == EXIT_IO

    def test_non_object_file_is_schema_error(self, tmp_path):
        f = tmp_path / "array.json"
        f.write_text("[0, 1]")
        with pytest.raises(StreamFormatError, match="expected a JSON object"):
            read_spline_file(str(f))
        assert main(["validate", "--in", str(f)]) == EXIT_IO

    def test_wrong_version_rejected(self, tmp_path):
        f = tmp_path / "v2.json"
        f.write_text(json.dumps({"version": "2", "knots": [0, 1], "segments": []}))
        with pytest.raises(StreamFormatError):
            read_spline_file(str(f))

    @pytest.mark.parametrize("path", [
        pytest.param(lambda: data.rigid_torus_path(1), id="torus"),
        pytest.param(lambda: data.walk_paths(1, 12)[-1], id="walk"),
    ])
    def test_reload_assembles_the_built_arrays(self, tmp_path, path):
        built = path()
        f = tmp_path / "spline.json"
        write_spline_file(str(f), built)
        loaded = read_spline_file(str(f))
        for got, ref in zip(loaded.segments, built.segments):
            for name in ("r", "h", "sigma"):
                assert getattr(got.segment, name).tobytes() == getattr(ref.segment, name).tobytes()
            assert got.frame.b_bezier.tobytes() == ref.frame.b_bezier.tobytes()


def _set(seg: int, key: str, value):
    def corrupt(doc):
        doc["segments"][seg][key] = value
    return corrupt


def _drop(path: str):
    """Delete the key at path, such as "axes.i", from segment 1."""
    *within, key = path.split(".")

    def corrupt(doc):
        obj = doc["segments"][1]
        for name in within:
            obj = obj[name]
        obj.pop(key)
    return corrupt


# Every key of a segment, each of them required.
SEGMENT_KEYS = ["r0", "A0", "A1", "A2", "axes", "axes.i", "axes.j", "axes.k", "W_a", "W_b", "mu",
                "phi2", "theta1"]


def _reverse_knots(doc):
    doc["knots"] = doc["knots"][::-1]


MALFORMED = [
    ("A0 with five entries", lambda doc: doc["segments"][1]["A0"].append(0.5), "segment 1: A0"),
    ("A0 with three entries", lambda doc: doc["segments"][0]["A0"].pop(), "segment 0: A0"),
    ("A1 all NaN", _set(2, "A1", [math.nan] * 4), "segment 2: A1"),
    ("reversed knots", _reverse_knots, "knots"),
    ("W_a with two entries", _set(3, "W_a", [1.0, 0.0]), "segment 3: W_a"),
    ("W_b of strings", _set(0, "W_b", ["x", "y", "z"]), "segment 0: W_b"),
    ("mu a string", _set(4, "mu", "abc"), "segment 4: mu"),
    ("mu a numeral string", _set(4, "mu", "1.5"), "segment 4: mu"),
    ("r0 of numeral strings", _set(1, "r0", ["0", "0", "0"]), "segment 1: r0"),
    ("knots of booleans", lambda doc: doc.update(knots=[False] + [True] * (len(doc["knots"]) - 1)),
     "knots are not numeric"),
    ("knots of strings", lambda doc: doc.update(knots=["a"] * len(doc["knots"])),
     "knots are not numeric"),
    ("one segment short", lambda doc: doc["segments"].pop(),
     "segment count must match the knot vector"),
    *[(f"{path} missing", _drop(path),
       rf"malformed spline file: KeyError\('{path.split('.')[-1]}'\)") for path in SEGMENT_KEYS],
    ("mu a boolean among numbers", _set(4, "mu", True), "segment 4: mu"),
    ("mu an integer beyond float range", _set(4, "mu", 10**400), "segment 4: mu is not finite"),
    ("W_a of a numeral string and a huge integer", _set(3, "W_a", ["1.5", 10**30, 0.0]),
     "segment 3: W_a"),
    ("r0 with a null", _set(1, "r0", [0.0, None, 0.0]), "segment 1: r0"),
]


class TestMalformedSplineFiles:
    @pytest.mark.parametrize("corrupt, message", [(c, m) for _, c, m in MALFORMED],
                             ids=[name for name, _, _ in MALFORMED])
    def test_rejected_with_field_and_segment(self, tmp_path, helix_spline, corrupt, message):
        doc = json.loads(helix_spline.read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(StreamFormatError, match=message):
            read_spline_file(str(bad))
        assert main(["eval", "--in", str(bad), "--samples", "4",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_IO


    def test_non_unit_axis_rejected_with_segment(self, tmp_path, helix_spline):
        doc = json.loads(helix_spline.read_text())
        doc["segments"][2]["axes"]["i"] = [2.0 * x for x in doc["segments"][2]["axes"]["i"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="segment 2: .*unit vector"):
            read_spline_file(str(bad))
        assert main(["eval", "--in", str(bad), "--samples", "4",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_VALIDATION

    def test_vanishing_generator_rejected_with_segment(self, tmp_path, helix_spline, capsys):
        doc = json.loads(helix_spline.read_text())
        doc["segments"][3].update(A0=[0.0] * 4, A1=[0.0] * 4, A2=[0.0] * 4)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="segment 3: generator vanishes"):
            read_spline_file(str(bad))
        out, report = tmp_path / "out.csv", tmp_path / "report.json"
        assert main(["eval", "--in", str(bad), "--samples", "4", "--out", str(out)]) \
            == EXIT_VALIDATION
        assert main(["validate", "--in", str(bad), "--report", str(report)]) == EXIT_VALIDATION
        assert "segment 3: generator vanishes" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_vanishing_frame_polynomials_rejected_with_segment(self, tmp_path, helix_spline,
                                                               capsys):
        doc = json.loads(helix_spline.read_text())
        doc["segments"][3].update(W_a=[0.0] * 3, W_b=[0.0] * 3)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="segment 3: frame polynomials vanish"):
            read_spline_file(str(bad))
        out, report = tmp_path / "out.csv", tmp_path / "report.json"
        assert main(["eval", "--in", str(bad), "--samples", "100", "--out", str(out)]) \
            == EXIT_VALIDATION
        assert main(["validate", "--in", str(bad), "--report", str(report)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("segment 3: frame polynomials vanish") == 2
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("fields, factor, message", [
        (("r0",), 1e200, "r0 has a coordinate beyond 1e\\+60"),
        (("A0", "A1", "A2"), 1e160, "speed too large to square"),
        (("A0", "A1", "A2"), 1e100, "speed too large to square"),
        (("W_a", "W_b"), 1e200, "frame quaternion too large to square"),
    ], ids=["r0", "generator-1e160", "generator-1e100", "frame-polynomials"])
    def test_huge_fields_rejected_with_segment(self, tmp_path, helix_spline, capsys, fields,
                                               factor, message):
        doc = json.loads(helix_spline.read_text())
        for key in fields:
            doc["segments"][3][key] = [factor * x for x in doc["segments"][3][key]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out, report = tmp_path / "out.csv", tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"segment 3: {message}"):
                read_spline_file(str(bad))
            assert main(["eval", "--in", str(bad), "--samples", "100", "--out", str(out)]) \
                == EXIT_VALIDATION
            assert main(["validate", "--in", str(bad), "--report", str(report)]) \
                == EXIT_VALIDATION
        assert len(re.findall(f"segment 3: {message}", capsys.readouterr().err)) == 2
        assert not out.exists() and not report.exists()

    def test_spline_at_the_coordinate_bound_round_trips(self, tmp_path):
        _, pts, tans = sample_curve("torus", 20)
        pts = pts * (MAX_COORDINATE / np.max(np.abs(pts)))
        path = build(PointStream(pts, default_initial_frame(tans[0])))
        saved = tmp_path / "huge.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_spline_file(str(saved), path)
            loaded = read_spline_file(str(saved))
            assert validate_spline(loaded)["pass"]
            us = np.linspace(path.knots[0], path.knots[-1], 41)
            for got, want in zip(loaded.eval_many(us), path.eval_many(us)):
                assert got.tobytes() == want.tobytes()


class TestValidateCommand:
    def test_fresh_spline_passes(self, tmp_path, helix_spline):
        report = tmp_path / "report.json"
        rc = main(["validate", "--in", str(helix_spline), "--report", str(report)])
        assert rc == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["pass"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"ph_identity", "class_one_residual", "frame_vs_transport",
                "g1_continuity", "frame_continuity"} <= names

    def test_corrupted_generator_fails_class_one(self, tmp_path, helix_spline):
        doc = json.loads(helix_spline.read_text())
        doc["segments"][0]["A1"][1] += 2e-2
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main(["validate", "--in", str(bad), "--report", str(report)]) \
            == EXIT_VALIDATION
        rep = json.loads(report.read_text())
        failing = {c["name"] for c in rep["checks"] if not c["pass"]}
        assert "class_one_residual" in failing

    def test_moved_segment_start_fails_position_continuity(self, tmp_path):
        stream = tmp_path / "torus.json"
        saved = tmp_path / "torus_spline.json"
        assert main(["sample", "--curve", "torus", "--n", "20", "--out", str(stream)]) == 0
        assert main(["interpolate", "--in", str(stream), "--out", str(saved)]) == 0
        assert validate_spline(read_spline_file(str(saved)))["pass"]
        doc = json.loads(saved.read_text())
        doc["segments"][7]["r0"][1] += 1e-3
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(doc))
        report = validate_spline(read_spline_file(str(moved)))
        failing = [c for c in report["checks"] if not c["pass"]]
        assert [(c["name"], c["segment"]) for c in failing] == [("position_continuity", None)]
        assert failing[0]["value"] > 1e-4

    def test_validate_spline_reports_every_segment(self, tmp_path, helix_spline):
        path = read_spline_file(str(helix_spline))
        report = validate_spline(path)
        per_segment = [c for c in report["checks"] if c["name"] == "ph_identity"]
        assert len(per_segment) == path.n_segments


CLI_RUN = """
import sys
from rmfspline.io_cli import main
for argv in (["sample", "--curve", "helix", "--n", "4", "--out", "s.csv"],
             ["interpolate", "--in", "s.csv", "--out", "p.json"],
             ["eval", "--in", "p.json", "--samples", "5", "--out", "e.csv"],
             ["validate", "--in", "p.json", "--report", "r.json"]):
    assert main(argv) == 0, argv
from rmfspline import oracle
from rmfspline.io_cli import read_spline_file
sol = read_spline_file("p.json").segments[0]
oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0), n_samples=50)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_leaves_scipy_integrate_unimported(tmp_path):
    # The package needs numpy alone: neither a command nor the RK45 oracle
    # imports any part of scipy.  A fresh interpreter shows what a
    # command-line start and one oracle call import.
    env = dict(os.environ)
    package_root = str(Path(rmfspline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CLI_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
