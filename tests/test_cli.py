import json

import pytest

from triscribe import Curve, equilateral_shape, load_curve, residuals
from triscribe.cli import (
    EXIT_ERROR,
    EXIT_NO_INPUT,
    EXIT_NO_RESULT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    run,
)
from triscribe.curve import MAX_SAMPLES, SIZE_CAPS

from conftest import unbuilt_generator


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolveSimilar:
    def test_circle_equilateral(self, capsys):
        code, report = run_json(
            capsys,
            ["solve-similar", "--curve", "gen:circle", "--angles", "60,60,60",
             "--base", "0", "--no-timing"],
        )
        assert code == EXIT_OK
        assert len(report["triangles"]) == 1
        tri = report["triangles"][0]
        found = sorted([tri["t_p"], tri["t_q"]])
        assert abs(found[0] - 1 / 3) < 1e-6 and abs(found[1] - 2 / 3) < 1e-6
        assert report["hypothesis"]["satisfied"] is True
        assert "timing" not in report

    def test_grid_two_no_bracket(self, capsys):
        code, report = run_json(
            capsys,
            ["solve-similar", "--curve", "gen:circle", "--angles", "60,60,60", "--grid", "2"],
        )
        assert code == EXIT_NO_RESULT
        assert report["result"] == "no-bracket"
        assert report["grid"]

    def test_round_trip_residuals(self, capsys, tmp_path):
        curve_file = tmp_path / "circle.json"
        curve_file.write_text(json.dumps({"generator": "circle", "samples": 2048}))
        code, report = run_json(
            capsys,
            ["solve-similar", "--curve", str(curve_file), "--angles", "60,60,60", "--no-timing"],
        )
        assert code == EXIT_OK
        curve = load_curve(curve_file)
        shape = equilateral_shape()
        for tri in report["triangles"]:
            again = residuals(shape, curve.origin, curve.eval(tri["t_p"]), curve.eval(tri["t_q"]))
            assert abs(again[0] - tri["residual_oq"]) < 1e-12
            assert abs(again[1] - tri["residual_pq"]) < 1e-12

    def test_determinism(self, capsys):
        argv = ["solve-similar", "--curve", "gen:circle,samples=1024", "--angles", "60,60,60",
                "--no-timing"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_timing_present_by_default(self, capsys):
        code, report = run_json(
            capsys,
            ["solve-similar", "--curve", "gen:circle,samples=1024", "--angles", "60,60,60"],
        )
        assert code == EXIT_OK
        assert report["timing"]["seconds"] > 0


class TestSolveEquilateral:
    def test_circle(self, capsys):
        code, report = run_json(
            capsys,
            ["solve-equilateral", "--curve", "gen:circle", "--no-timing"],
        )
        assert code == EXIT_OK
        tri = report["triangles"][0]
        found = sorted([tri["t_p"], tri["t_q"]])
        assert abs(found[0] - 1 / 3) < 1e-6 and abs(found[1] - 2 / 3) < 1e-6
        assert report["monotone"]["strongly_monotone"] is True
        assert report["monotone"]["loop_winding"] == 1

    def test_scaled_u_turn_refinement_fails(self, capsys):
        # The residuals are scale-free: a 1e9-times larger fold fails as the unit one does.
        code = run(["solve-equilateral", "--curve", "gen:u_turn,leg=1e9,samples=1024",
                    "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_RESULT
        assert captured.out == ""
        assert captured.err.startswith("refinement failed: refinement stalled at residual")


class TestCheckCommands:
    def test_check_hypothesis_ellipse(self, capsys):
        code, report = run_json(
            capsys,
            ["check-hypothesis", "--curve", "gen:ellipse,a=2,b=1", "--angles", "60,60,60",
             "--base", "0"],
        )
        assert code == EXIT_OK
        assert report["satisfied"] is True
        assert report["hypothesis"]["satisfied"] is True

    def test_check_monotone_circle_vs_u_turn(self, capsys):
        code, report = run_json(
            capsys, ["check-monotone", "--curve", "gen:circle", "--epsilon", "0.05"]
        )
        assert code == EXIT_OK and report["strongly_monotone"] is True
        code, report = run_json(
            capsys, ["check-monotone", "--curve", "gen:u_turn"]
        )
        assert code == EXIT_OK and report["strongly_monotone"] is False

    def test_sweep_reports_bracket(self, capsys):
        code, report = run_json(
            capsys,
            ["sweep", "--curve", "gen:circle,samples=1024", "--angles", "60,60,60",
             "--grid", "128"],
        )
        assert code == EXIT_OK
        assert report["sweep"]["bracket"] is not None
        values = {w for _, w, status in report["sweep"]["windings"] if status == "ok"}
        assert values == {-1, 0}

    @pytest.mark.parametrize("curve, angles, base", [
        ("gen:circle,samples=256", "60,60,60", "0"),
        ("gen:trefoil,samples=1024", "60,60,60", "0"),
        ("gen:ellipse,a=2,b=1,samples=512", "90,45,45", "0.3"),
    ])
    def test_sweep_block_is_solve_similar_s(self, capsys, curve, angles, base):
        """``sweep`` sweeps at the window ``solve-similar`` takes from the
        angle ladder, so both report the same sweep of one input."""
        argv = ["--curve", curve, "--angles", angles, "--base", base, "--no-timing"]
        _, swept = run_json(capsys, ["sweep", *argv])
        _, solved = run_json(capsys, ["solve-similar", *argv])
        assert swept["sweep"] == solved["sweep"]

    @pytest.mark.parametrize("curve, angles, base", [
        ("gen:ellipse,a=2,b=1,samples=512", "60,60,60", "0"),
        ("gen:trefoil,samples=1024", "110,35,35", "0.25"),
        ("gen:tilted_circle_nd,n=3,samples=1024", "110,35,35", "0"),
        ("gen:corner_wedge,samples=512", "90,45,45", "0"),  # no rung certifies
    ])
    def test_check_hypothesis_block_is_solve_similar_s(self, capsys, curve, angles, base):
        """``check-hypothesis`` without ``--delta`` runs the angle check
        ``solve-similar`` runs, so both report the same hypothesis block."""
        argv = ["--curve", curve, "--angles", angles, "--base", base, "--no-timing"]
        _, checked = run_json(capsys, ["check-hypothesis", *argv])
        _, solved = run_json(capsys, ["solve-similar", *argv])
        assert checked["hypothesis"] == solved["hypothesis"]

    @pytest.mark.parametrize("curve, base", [
        ("gen:ellipse,a=2,b=1,samples=512", "0"),
        ("gen:trefoil,samples=1024", "0.25"),
        ("gen:tilted_circle_nd,n=3,samples=1024", "0"),
        ("gen:corner_wedge,samples=512", "0.25"),
    ])
    def test_check_monotone_epsilon_is_solve_equilateral_s(self, capsys, curve, base):
        """``check-monotone`` runs the monotone check ``solve-equilateral``
        runs, so a rung that passes is the window both report."""
        argv = ["--curve", curve, "--base", base, "--no-timing"]
        _, checked = run_json(capsys, ["check-monotone", *argv])
        _, solved = run_json(capsys, ["solve-equilateral", *argv])
        assert checked["epsilon"] is not None
        assert checked["epsilon"] == solved["monotone"]["epsilon"]


class TestErrorPaths:
    def test_bad_flags(self, capsys):
        assert run(["solve-similar", "--curve", "gen:circle"]) == EXIT_USAGE

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_bad_angles(self, capsys):
        code = run(["solve-similar", "--curve", "gen:circle", "--angles", "60,60"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("angles", ["nan,60,60", "60,nan,60", "inf,60,60", "0,90,90"])
    def test_angles_outside_open_interval(self, capsys, angles):
        code = run(["solve-similar", "--curve", "gen:circle,samples=256", "--angles", angles])
        assert code == EXIT_ERROR
        assert "vertex angles must lie strictly inside (0, pi)" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", ["179.9999999,0.00000005,0.00000005",
                                        "0.00000005,179.9999999,0.00000005"])
    def test_angles_breaking_the_triangle_inequality(self, capsys, monkeypatch, angles):
        """An angle within 1e-7 of 180 degrees gives side ratios that round
        past the triangle inequality: refused as the other bad angles are,
        with one line, before the curve is rebased or solved."""
        monkeypatch.setattr(Curve, "with_base_param", lambda *_: pytest.fail("curve rebased"))
        code = run(["solve-similar", "--curve", "gen:circle,samples=256", "--angles", angles])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == "error: side ratios break the strict triangle inequality\n"

    @pytest.mark.parametrize("angles", ["1e-7,90,89.9999999", "1e-7,89.9999999,90"])
    def test_angles_admitting_no_third_vertex(self, capsys, monkeypatch, angles):
        """The side ratios obey the triangle inequality, but the squared
        radius of the sphere of third vertices cancels to 0: refused with one
        line, before the curve is rebased or solved."""
        monkeypatch.setattr(Curve, "with_base_param", lambda *_: pytest.fail("curve rebased"))
        code = run(["solve-similar", "--curve", "gen:circle,samples=256", "--angles", angles])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == "error: side ratios admit no third vertex off the o-p line\n"

    def test_unreadable_file(self, capsys):
        code = run(["solve-similar", "--curve", "/no/such/file.json", "--angles", "60,60,60"])
        assert code == EXIT_NO_INPUT

    @pytest.mark.parametrize("command", ["solve-similar", "sweep"])
    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two(self, capsys, command, grid):
        code = run([command, "--curve", "gen:circle", "--angles", "60,60,60", "--grid", grid])
        assert code == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve-similar", "solve-equilateral", "sweep"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tolerance_not_positive(self, capsys, command, tol):
        argv = [command, "--curve", "gen:circle", "--tol", tol]
        if command != "solve-equilateral":
            argv += ["--angles", "60,60,60"]
        assert run(argv) == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve-similar", "--angles", "60,60,60", "--base", "nan"], "--base"),
            (["solve-equilateral", "--base", "inf"], "--base"),
            (["sweep", "--angles", "60,60,60", "--base=-inf"], "--base"),
            (["check-hypothesis", "--angles", "60,60,60", "--delta", "0"], "--delta"),
            (["check-hypothesis", "--angles", "60,60,60", "--delta", "0.7"], "--delta"),
            (["check-monotone", "--epsilon", "0"], "--epsilon"),
            (["check-monotone", "--epsilon", "0.5"], "--epsilon"),
            (["solve-equilateral", "--grid", "7"], "--grid"),
            (["sweep", "--angles", "60,60,60", "--tol", "1e-6"], "--tol"),
            (["solve-similar", "--angles", "60,60,60", "--plot-ratio-path", "abc"],
             "--plot-ratio-path"),
            (["solve-equilateral", "--plot-ratio-path", "1.5,f.svg"], "--plot-ratio-path"),
            (["solve-similar", "--angles", "60,60,60", "--plot-ratio-path", "0.5"],
             "--plot-ratio-path"),
            (["plot", "--plot-ratio-path", "1.5,f.svg"], "--plot-ratio-path"),
        ],
    )
    def test_flag_rejected_at_boundary(self, capsys, argv, flag):
        code = run([argv[0], "--curve", "gen:circle,samples=256", *argv[1:], "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and flag in captured.err

    @pytest.mark.parametrize("command", ["check-hypothesis", "check-monotone"])
    def test_check_commands_take_no_samples(self, capsys, command):
        """The check commands run the solvers' fixed grids: ``--samples`` is
        not one of their flags."""
        argv = [command, "--curve", "gen:circle,samples=256", "--samples", "64"]
        if command == "check-hypothesis":
            argv += ["--angles", "60,60,60"]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --samples 64\n"

    @pytest.mark.parametrize(
        "spec, word",
        [
            ("gen:circle,foo=1", "foo"),
            ("gen:circle,samples=abc", "samples"),
            ("gen:circle,samples=nan", "samples"),
            ("gen:circle,samples=16.9", "samples"),
            ("gen:ellipse,a=abc", "parameter a must be a number"),
            ("gen:polygon,sides=abc", "parameter sides must be a number"),
            ("gen:u_turn,half_angle_deg=10,leg=1e", "parameter leg must be a number"),
            ("gen:circle,foo=abc", "unknown parameter(s) foo"),
            ("gen:nosuch,a=abc", "unknown generator 'nosuch'"),
            ("gen:nosuch,samples=16.9", "unknown generator 'nosuch'"),
            # Values that leave no usable curve: one line, and no numpy
            # warning before it (the suite turns RuntimeWarning into an
            # error); a NaN length is refused before the chain's count loop.
            ("gen:corner_wedge,leg=0", "pieces must total a positive finite length, got 0.0"),
            ("gen:corner_wedge,leg=nan", "pieces must total a positive finite length, got nan"),
            ("gen:corner_wedge,leg=nan,samples=4194304", "positive finite length, got nan"),
            ("gen:corner_wedge,leg=inf", "pieces must total a positive finite length, got inf"),
            ("gen:corner_wedge,leg=1e308", "pieces must total a positive finite length, got inf"),
            ("gen:corner_wedge,leg=-1", "pieces must total a positive finite length, got -"),
            ("gen:u_turn,leg=inf", "pieces must total a positive finite length, got nan"),
            ("gen:u_turn,leg=-1", "pieces must total a positive finite length, got -"),
            ("gen:u_turn,half_angle_deg=nan", "half_angle_deg must lie in (0, 180), got nan"),
            ("gen:circle,radius=inf", "radius must be positive and finite, got inf"),
            # Legs that lie on one segment or cross, and radii that collapse
            # or mirror the curve.
            ("gen:u_turn,half_angle_deg=0", "half_angle_deg must lie in (0, 180), got 0.0"),
            ("gen:u_turn,half_angle_deg=-5", "half_angle_deg must lie in (0, 180), got -5.0"),
            ("gen:u_turn,half_angle_deg=180", "half_angle_deg must lie in (0, 180), got 180.0"),
            ("gen:polygon,radius=0", "radius must be positive and finite, got 0.0"),
            ("gen:circle,radius=-1", "radius must be positive and finite, got -1.0"),
            ("gen:tilted_circle_nd,radius=nan", "radius must be positive and finite, got nan"),
            ("gen:fourier,amp=inf", "vertex coordinates must be finite"),
        ],
    )
    def test_unknown_generator_parameter(self, capsys, spec, word):
        code = run(["solve-similar", "--curve", spec, "--angles", "60,60,60"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and word in captured.err

    @pytest.mark.parametrize("command", ["check-monotone", "solve-equilateral"])
    def test_non_numeric_generator_parameter_before_solving(self, capsys, command):
        code = run([command, "--curve", "gen:ellipse,a=abc"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "usage error: generator parameter a must be a number, got abc\n"

    @pytest.mark.parametrize("samples", [16.9, 256.5])
    def test_fractional_samples_in_curve_file(self, capsys, tmp_path, samples):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": "circle", "samples": samples}))
        code = run(["check-monotone", "--curve", str(spec), "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == f"error: samples must be an integer, got {samples}\n"

    def test_whole_float_samples_in_curve_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": "circle", "samples": 64.0}))
        code, report = run_json(capsys, ["check-monotone", "--curve", str(spec), "--no-timing"])
        assert code == EXIT_OK and report["input"]["vertices"] == 64

    def test_overflowing_generator_length(self, capsys):
        """A ``gen:`` curve whose length overflows is refused before the
        solve, as a usage error."""
        code = run(["solve-similar", "--curve", "gen:circle,radius=1e200", "--angles", "60,60,60"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "usage error: curve length overflows a float\n"

    def test_overflowing_curve_file_length(self, capsys, tmp_path):
        """A curve file whose length overflows is an invalid curve: exit 1."""
        curve_file = tmp_path / "big.json"
        big = [[0.0, 0.0], [1e200, 0.0], [1e200, 1e200], [0.0, 1e200]]
        curve_file.write_text(json.dumps({"points": big}))
        code = run(["solve-equilateral", "--curve", str(curve_file)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == "error: curve length overflows a float\n"

    def test_too_many_generator_samples(self, monkeypatch, capsys):
        """A ``gen:`` curve over the sample cap is a usage error, refused
        before the generator runs."""
        calls = unbuilt_generator(monkeypatch)
        code = run(["check-monotone", "--curve", f"gen:circle,samples={MAX_SAMPLES + 1}",
                    "--epsilon", "0.2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "" and calls == []
        assert captured.err == (f"usage error: sample count must lie in [16, {MAX_SAMPLES}], "
                                f"got {MAX_SAMPLES + 1}\n")

    @pytest.mark.parametrize("samples", [1e9, 10 ** 400], ids=["float", "huge-int"])
    def test_too_many_curve_file_samples(self, monkeypatch, capsys, tmp_path, samples):
        """A curve file over the sample cap is an invalid curve: exit 1, also
        for a count too large for a float."""
        calls = unbuilt_generator(monkeypatch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": "circle", "samples": samples}))
        code = run(["check-monotone", "--curve", str(spec), "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == "" and calls == []
        assert captured.err == (f"error: sample count must lie in [16, {MAX_SAMPLES}], "
                                f"got {int(samples)}\n")

    @pytest.mark.parametrize("generator, key", [
        ("tilted_circle_nd", "n"), ("polygon", "sides"), ("fourier", "terms"),
    ])
    def test_generator_size_over_its_cap(self, monkeypatch, capsys, generator, key):
        """A ``gen:`` size parameter over its cap is a usage error, refused
        before the generator runs."""
        calls = unbuilt_generator(monkeypatch, generator)
        over = SIZE_CAPS[key] + 1
        code = run(["check-monotone", "--curve", f"gen:{generator},{key}={over}"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "" and calls == []
        assert captured.err == (f"usage error: generator parameter {key} must be at most "
                                f"{SIZE_CAPS[key]}, got {over}\n")

    @pytest.mark.parametrize("spec, key", [
        ("gen:tilted_circle_nd,n=3.7", "n"), ("gen:polygon,sides=4.5", "sides"),
        ("gen:fourier,terms=2.9", "terms"), ("gen:tilted_circle_nd,n=nan", "n"),
        ("gen:fourier,seed=1.5", "seed"),
    ])
    def test_fractional_generator_size(self, monkeypatch, capsys, spec, key):
        """A ``gen:`` size parameter or fourier seed that is not a whole
        number is a usage error, refused before the generator runs."""
        calls = unbuilt_generator(monkeypatch, spec[4:].split(",")[0])
        code = run(["check-monotone", "--curve", spec])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "" and calls == []
        value = spec.split("=")[1]
        assert captured.err == (f"usage error: generator parameter {key} must be an integer, "
                                f"got {value}\n")

    @pytest.mark.parametrize("generator, key, value", [
        ("tilted_circle_nd", "n", 3.7), ("polygon", "sides", 4.5), ("fourier", "terms", 2.9),
        ("fourier", "seed", 1.5),
    ])
    def test_fractional_curve_file_size(self, monkeypatch, capsys, tmp_path, generator, key,
                                        value):
        """A curve file whose size parameter or fourier seed is not a whole
        number is an invalid curve: exit 1, before the generator runs."""
        calls = unbuilt_generator(monkeypatch, generator)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": generator, "params": {key: value}}))
        code = run(["check-monotone", "--curve", str(spec), "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == "" and calls == []
        assert captured.err == f"error: generator parameter {key} must be an integer, got {value}\n"

    def test_whole_float_size_in_curve_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": "tilted_circle_nd", "params": {"n": 4.0},
                                    "samples": 64}))
        code, report = run_json(capsys, ["check-monotone", "--curve", str(spec), "--no-timing"])
        assert code == EXIT_OK and report["input"]["dimension"] == 4

    @pytest.mark.parametrize("key, value", [("sides", 1e300), ("sides", 10 ** 400),
                                            ("sides", "4194305"), ("n", 17), ("terms", 257.5)],
                             ids=["float", "huge-int", "string", "n", "fraction"])
    def test_curve_file_size_over_its_cap(self, monkeypatch, capsys, tmp_path, key, value):
        """A curve file whose size parameter is over its cap (a number or a
        numeric string) is an invalid curve: exit 1, before the generator runs."""
        generator = {"n": "tilted_circle_nd", "sides": "polygon", "terms": "fourier"}[key]
        calls = unbuilt_generator(monkeypatch, generator)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"generator": generator, "params": {key: value}}))
        code = run(["check-monotone", "--curve", str(spec), "--no-timing"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == "" and calls == []
        assert captured.err.startswith(f"error: generator parameter {key} must be at most")

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"points": {"points": 3}}',
            '{"generator": "circle", "params": [1]}',
            '{"points": [[0, 0], [1, 0], [1]]}',
            '{"points": [["a", "b"], ["c", "d"], ["e", "f"]]}',
        ],
        ids=["not-json", "points-object", "params-list", "ragged-rows", "string-rows"],
    )
    def test_malformed_json(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = run(["solve-similar", "--curve", str(bad), "--angles", "60,60,60"])
        assert code == EXIT_NO_INPUT
        err = capsys.readouterr().err
        assert err.startswith("cannot read input:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--out", "--plot-svg", "--plot-ratio-path"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_output(self, capsys, tmp_path, flag, target):
        path = str(tmp_path if target == "directory" else tmp_path / "missing" / "out")
        value = f"0.5,{path}" if flag == "--plot-ratio-path" else path
        code = run(["solve-equilateral", "--curve", "gen:circle,samples=256", "--no-timing",
                    flag, value])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and len(err.splitlines()) == 1


class TestSvgOutput:
    def test_curve_and_triangle_polylines(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        code = run(
            ["solve-similar", "--curve", "gen:circle,samples=1024", "--angles", "60,60,60",
             "--no-timing", "--out", str(tmp_path / "r.json"), "--plot-svg", str(svg)]
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.count("<polyline") == 2  # one for the curve, one for the triangle
        assert text.startswith("<?xml")

    def test_ratio_path_marks(self, capsys, tmp_path):
        svg = tmp_path / "ratio.svg"
        code = run(
            ["plot", "--curve", "gen:circle,samples=1024",
             "--plot-ratio-path", f"{2/3},{svg}"]
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<circle") == 2
        first_pair = text.split('points="', 1)[1].split(" ", 1)[0]
        assert first_pair.startswith("-1.000000,")  # polyline begins at the (-1, 0) mark
        assert 'cx="-1.000000"' in text and 'cy="1.000000"' in text  # (0,-1) mark, y flipped

    def test_three_d_refused_without_project(self, capsys, tmp_path):
        code = run(
            ["plot", "--curve", "gen:tilted_circle_nd,n=3,samples=256",
             "--plot-svg", str(tmp_path / "x.svg")]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["solve-similar", "solve-equilateral"])
    def test_three_d_solve_refused_before_solving(self, capsys, tmp_path, command):
        svg = tmp_path / "x.svg"
        argv = [command, "--curve", "gen:tilted_circle_nd,n=3,samples=256", "--plot-svg", str(svg)]
        if command == "solve-similar":
            argv += ["--angles", "60,60,60"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == "" and not svg.exists()
        assert len(captured.err.splitlines()) == 1

    def test_three_d_projected(self, capsys, tmp_path):
        svg = tmp_path / "proj.svg"
        code = run(
            ["plot", "--curve", "gen:tilted_circle_nd,n=3,samples=256", "--project",
             "--plot-svg", str(svg)]
        )
        assert code == EXIT_OK
        assert "<polyline" in svg.read_text()

    def test_svg_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["plot", "--curve", "gen:ellipse,samples=512"]
        assert run(argv + ["--plot-svg", str(a)]) == EXIT_OK
        assert run(argv + ["--plot-svg", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestCommandPath:
    def test_one_rebase_per_call(self, capsys, monkeypatch):
        """The CLI rebases the curve once and the solver reuses it (its own
        rebase to parameter 0 returns the same curve)."""
        rebuilt = []
        original = Curve.with_base_param

        def counting(curve, t):
            work = original(curve, t)
            if work is not curve:
                rebuilt.append(t)
            return work

        monkeypatch.setattr(Curve, "with_base_param", counting)
        code = run(["solve-similar", "--curve", "gen:circle,samples=256", "--angles", "60,60,60",
                    "--base", "0.3", "--no-timing"])
        assert code == EXIT_OK
        assert rebuilt == [0.3]

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-similar", "--angles", "60,60,60"],
            ["solve-equilateral"],
            ["check-hypothesis", "--angles", "60,60,60"],
            ["check-monotone"],
            ["sweep", "--angles", "60,60,60"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_input_vertices_is_the_input_count(self, capsys, argv):
        # Base 0.001 falls inside a segment, so the rebased curve has 257 vertices.
        code, report = run_json(capsys, [*argv, "--curve", "gen:circle,samples=256",
                                         "--base", "0.001", "--no-timing"])
        assert code == EXIT_OK
        assert report["input"]["vertices"] == 256
