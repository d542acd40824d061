import json
import math
import re
import warnings

import pytest

from quatregular import DomainError, Quaternion, Series, SeriesFormatError, bloch
from quatregular.cli import main
from quatregular.serialization import dump_series, load_series, series_from_dict


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    dump_series(Series((0, 1)), path)
    return str(path)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        f = Series((Quaternion(0, 1, 2, 3), Quaternion(1)), radius=1.5)
        path = tmp_path / "f.json"
        dump_series(f, path)
        assert sorted(json.loads(path.read_text())) == ["coeffs", "radius"]
        assert load_series(path) == f

    def test_missing_field(self):
        with pytest.raises(SeriesFormatError, match="missing field 'radius'"):
            series_from_dict({"coeffs": [[0, 0, 0, 0]]})

    def test_bad_coefficient_named(self):
        payload = {"radius": 1.0, "coeffs": [[0, 0, 0, 0], [1, 0, 0], [2, 0, 0, 0]]}
        with pytest.raises(SeriesFormatError, match=r"coeffs\[1\]"):
            series_from_dict(payload)

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"radius": 1.0,\n  "coeffs": oops}\n')
        with pytest.raises(SeriesFormatError, match="line 2"):
            load_series(path)

    def test_nonpositive_radius(self):
        with pytest.raises(SeriesFormatError, match="radius"):
            series_from_dict({"radius": 0.0, "coeffs": [[0, 0, 0, 0]]})

    def test_legacy_exact_field_is_ignored(self):
        payload = {"radius": 0.75, "coeffs": [[0, 0, 0, 0], [1, 2, 3, 4]]}
        loaded = [series_from_dict({**payload, **extra})
                  for extra in ({}, {"exact": True}, {"exact": False})]
        assert loaded[0] == loaded[1] == loaded[2] == Series((0, Quaternion(1, 2, 3, 4)), 0.75)

    @pytest.mark.parametrize("exact", ["yes", 1, None])
    def test_non_boolean_exact_field(self, tmp_path, capsys, exact):
        payload = {"radius": 1.0, "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]], "exact": exact}
        with pytest.raises(SeriesFormatError, match="field 'exact' must be a boolean"):
            series_from_dict(payload)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        assert main(["norm", str(path)]) == 2
        assert "field 'exact' must be a boolean" in capsys.readouterr().err


class TestCommands:
    def test_rho_identity(self, identity_file, capsys):
        assert main(["rho", identity_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho"] == 0.25
        assert payload["schema"] == "quatregular/1"

    def test_search_identity(self, identity_file, capsys):
        assert main(["search", identity_file, "--r", "0.99"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["rho_r"] - 0.12375) < 1e-9
        assert abs(payload["R_r"] - 0.495) < 1e-9
        assert payload["diagnostics"]["rho_bound_ok"] is True

    def test_coverage_identity(self, identity_file, capsys):
        assert main(["coverage", identity_file, "--rho", "0.25",
                     "--samples", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"] == 50
        assert payload["misses"] == []

    def test_norm_commands(self, identity_file, capsys):
        assert main(["norm", identity_file]) == 0
        split_payload = json.loads(capsys.readouterr().out)
        assert abs(split_payload["value"] - 1.0) < 1e-9
        assert split_payload["kind"] == "split"
        assert main(["norm", identity_file, "--r", "0.5"]) == 0
        ball_payload = json.loads(capsys.readouterr().out)
        assert abs(ball_payload["value"] - 0.5) < 1e-12
        assert ball_payload["kind"] == "ball"
        assert "certified_tol" in ball_payload

    @pytest.mark.parametrize("command, options", [
        ("rho", []), ("search", ["--r", "0.9"]), ("coverage", ["--rho", "0.25", "--samples", "5"]),
        ("norm", []), ("norm", ["--r", "0.5"])])
    def test_series_reports_stamped_and_written_alike(self, identity_file, tmp_path, capsys,
                                                       command, options):
        assert main([command, identity_file, *options]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["schema"] == "quatregular/1"
        assert payload["command"] == command
        assert payload["input"] == identity_file
        out = tmp_path / "report.json"
        assert main([command, identity_file, *options, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_oset_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["oset", "--rho", "0.0221", "--n", "256",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert len(lines) == 257
        x, y = (float(v) for v in lines[1].split(","))
        assert x == 0.0221 and y == 0.0

    def test_verify_quick(self, capsys):
        code = main(["verify", "--suite", "series", "--samples", "25", "--seed", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert all(c["suite"] == "series" for c in payload["checks"])

    def test_verify_times_each_check_on_stderr_only(self, capsys):
        argv = ["verify", "--suite", "series", "--samples", "25", "--seed", "1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "time" not in first.out
        lines = first.err.strip().split("\n")
        assert len(lines) == len(json.loads(first.out)["checks"])
        for line in lines:
            assert re.fullmatch(r"PASS series/\S+: margin=\S+ tol=\S+ time=\d+\.\d{3}s", line)

    def test_verify_with_user_file(self, identity_file, capsys):
        code = main(["verify", "--suite", "series", "--samples", "25",
                     "--input", identity_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert any(c["name"] == "user-series-structure" for c in payload["checks"])

    def test_verify_all_suites(self, capsys):
        code = main(["verify", "--samples", "30", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        suites = {c["suite"] for c in payload["checks"]}
        assert suites == {"series", "slices", "norms", "bloch"}


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["rho", "/nonexistent/nope.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_names_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"radius": 1.0, "coeffs": [[0,0,0,0], [1,0,"x",0]]}')
        assert main(["rho", str(path)]) == 2
        assert "coeffs[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00bad",
                                         b"[" * 100000 + b"]" * 100000])
    def test_malformed_file_names_path(self, tmp_path, capsys, content):
        # a file that is not UTF-8, and JSON nested past the recursion limit
        path = tmp_path / "malformed.json"
        path.write_bytes(content)
        assert main(["norm", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_precondition_surfaced(self, tmp_path, capsys):
        path = tmp_path / "shifted.json"
        dump_series(Series((1, 1)), path)
        assert main(["rho", str(path)]) == 2
        assert "f(0) = 0" in capsys.readouterr().err

    def test_degree_cap(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        dump_series(Series(tuple([0.0] * 70 + [1.0]), radius=2.0), path)
        assert main(["rho", str(path)]) == 2

    def test_verify_input_degree_cap(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        dump_series(Series(tuple([0.0] * 61 + [1.0]), radius=2.0), path)
        assert main(["verify", "--suite", "series", "--input", str(path)]) == 2
        assert "cap 60" in capsys.readouterr().err

    def test_negative_samples(self, identity_file, capsys):
        assert main(["coverage", identity_file, "--rho", "0.25", "--samples", "-3"]) == 2
        assert "sample" in capsys.readouterr().err

    def test_negative_seed(self, identity_file, capsys):
        assert main(["coverage", identity_file, "--rho", "0.25", "--samples", "3",
                     "--seed", "-1"]) == 2
        assert main(["verify", "--suite", "series", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: the seed cannot be negative") == 2

    def test_coverage_out_of_reach_is_quiet(self, identity_file, capsys):
        # every target of the pinched set of radius 1e300 lies far past f(B) = B: three
        # misses, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coverage", identity_file, "--rho", "1e300", "--samples", "3"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert (payload["hits"], len(payload["misses"])) == (0, 3) and err == ""

    def test_verify_samples_below_one(self, capsys):
        for samples in ("0", "-50"):
            assert main(["verify", "--suite", "series", "--samples", samples]) == 2
        assert "sample" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_rho(self, identity_file, capsys, rho):
        assert main(["oset", "--rho", rho, "--n", "16"]) == 2
        assert main(["coverage", identity_file, "--rho", rho, "--samples", "5"]) == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["norm", "FILE", "--theta-grid", "512"],
                                      ["norm", "FILE", "--sphere-grid", "2048"],
                                      ["rho", "FILE", "--seed", "3"],
                                      ["search", "FILE", "--seed", "3"],
                                      ["norm", "FILE", "--seed", "3"],
                                      ["verify", "--tol", "2"],
                                      ["rho", "FILE", "--degree", "60"],
                                      ["verify", "--degree", "60"]])
    def test_removed_flags_exit_two(self, identity_file, argv):
        with pytest.raises(SystemExit) as err:
            main([identity_file if arg == "FILE" else arg for arg in argv])
        assert err.value.code == 2

    def test_norm_beyond_the_largest_float(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        dump_series(Series((1e308, Quaternion(0.0, 1e308, 0.0, 0.0))), path)
        assert main(["norm", str(path)]) == 2
        assert "largest float" in capsys.readouterr().err

    def test_norm_on_a_large_ball(self, tmp_path, capsys):
        # |q^60| = 1e180 on the sphere of radius 1000, although 1000^120 is no float
        path = tmp_path / "power.json"
        dump_series(Series(tuple([0.0] * 60 + [1.0]), radius=2000.0), path)
        assert main(["norm", str(path), "--r", "1000"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["value"] / 1e180 - 1.0) <= 1e-12

    def test_ball_norm_beyond_the_largest_float(self, tmp_path, capsys):
        # 0.5 q^4 reaches 5e319 on the sphere of radius 1e80
        path = tmp_path / "quartic.json"
        dump_series(Series((0.0, 1.0, 0.0, 0.0, 0.5), radius=1e90), path)
        assert main(["norm", str(path), "--r", "1e80"]) == 2
        assert "largest float" in capsys.readouterr().err

    def test_degenerate_working_radius_exits_one(self, identity_file, capsys):
        # mu(0) = 0 already reaches r - 1e-12 < 0: a failed search, not a bad input
        assert main(["search", identity_file, "--r", "1e-13"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "degenerate working radius" in captured.err

    def test_non_finite_report_exits_one(self, identity_file, capsys, monkeypatch):
        monkeypatch.setattr(bloch, "rho_lemma", lambda f: math.nan)
        assert main(["rho", identity_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err

    def test_verify_input_far_from_unit_scale(self, tmp_path, capsys):
        # the symmetrization of the unfolded series overflows at coefficient 4
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"radius": 1.0,
                                    "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0], [1e300] * 4]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--input", str(path), "--suite", "series"]) in (0, 1)
        assert "PASS series/user-series-structure" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["search", "--bogus"])
        assert err.value.code == 2


class TestDeterminism:
    def test_byte_identical_reports(self, identity_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["search", identity_file, "--r", "0.9", "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coverage_deterministic(self, identity_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["coverage", identity_file, "--rho", "0.2",
                         "--samples", "25", "--seed", "7", "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


NAN_SERIES = '{"radius": 1, "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0], [NaN, 0, 0.5, 0]]}'
INFINITE_RADIUS_SERIES = '{"radius": Infinity, "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}'


class TestNonFiniteInput:
    @pytest.fixture
    def nan_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(NAN_SERIES)
        return str(path)

    @pytest.fixture
    def infinite_radius_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(INFINITE_RADIUS_SERIES)
        return str(path)

    def test_norm(self, nan_file, capsys):
        assert main(["norm", nan_file]) == 2
        captured = capsys.readouterr()
        assert "coeffs[2]" in captured.err and captured.out == ""

    def test_rho(self, nan_file, capsys):
        assert main(["rho", nan_file]) == 2
        assert "finite" in capsys.readouterr().err

    def test_search(self, nan_file, infinite_radius_file, capsys):
        assert main(["search", nan_file]) == 2
        assert main(["search", infinite_radius_file]) == 2
        assert "radius" in capsys.readouterr().err

    def test_verify_input(self, nan_file, capsys):
        assert main(["verify", "--suite", "series", "--input", nan_file]) == 2
        assert "coeffs[2]" in capsys.readouterr().err

    def test_oversized_integer(self):
        with pytest.raises(SeriesFormatError, match=r"coeffs\[0\]"):
            series_from_dict({"radius": 1.0, "coeffs": [[10 ** 400, 0, 0, 0]]})

    def test_series_constructor(self):
        with pytest.raises(DomainError, match="coefficient 1"):
            Series((0.0, Quaternion(0.0, float("nan"), 0.0, 0.0)))
        with pytest.raises(DomainError, match="finite"):
            Series((0.0, 1.0), radius=float("inf"))
