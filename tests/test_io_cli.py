"""CLI subcommands, file formats, round trips, exit codes."""

import json
import math

import numpy as np
import pytest

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
    validate_spline,
    write_spline_file,
    write_stream_file,
)
from rmfspline.errors import StreamFormatError
from rmfspline.spline import PointStream, build, default_initial_frame

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

    def test_frame_rows_orthonormal(self, tmp_path, helix_spline):
        out = tmp_path / "table.csv"
        assert main(["eval", "--in", str(helix_spline), "--samples", "40",
                     "--out", str(out)]) == EXIT_OK
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in out.read_text().strip().splitlines()[1:]])
        for row in rows:
            f = row[4:13].reshape(3, 3)
            assert np.max(np.abs(f @ f.T - np.eye(3))) <= 1e-9


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

    def test_empty_file_is_schema_error(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("")
        with pytest.raises(StreamFormatError):
            read_spline_file(str(f))
        assert main(["validate", "--in", str(f)]) == EXIT_IO

    def test_wrong_version_rejected(self, tmp_path):
        f = tmp_path / "v2.json"
        f.write_text(json.dumps({"version": "2", "knots": [0, 1], "segments": []}))
        with pytest.raises(StreamFormatError):
            read_spline_file(str(f))


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

    def test_validate_spline_reports_every_segment(self, tmp_path, helix_spline):
        path = read_spline_file(str(helix_spline))
        report = validate_spline(path, ode_samples=120)
        per_segment = [c for c in report["checks"] if c["name"] == "ph_identity"]
        assert len(per_segment) == path.n_segments
