import json
import math
import os
import shlex
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

import posreal as pr
from posreal.cli import main


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -1/(z-1) + 3/(z-0.5) in both problem forms; t_3 = -0.25 is its first negative value
NEGATIVE_RESIDUE_DOCS = {
    "pf.json": {
        "partial_fractions": {
            "dominant": {"pole": 1.0, "residue": -1.0},
            "terms": [{"pole": 0.5, "order": 1, "coeffs": [3.0]}],
        }
    },
    "tf.json": {"transfer": {"num": [-2.5, 2.0], "den": [0.5, -1.5, 1.0]}},
}


@pytest.fixture
def h4_file(tmp_path):
    return write_problem(
        tmp_path,
        "h4.json",
        {
            "partial_fractions": {
                "dominant": {"pole": 1.0, "residue": 1.0},
                "terms": [
                    {"pole": {"re": 0.4, "im": 0.0}, "order": 1, "coeffs": [-25.0]},
                    {"pole": {"re": 0.2, "im": 0.0}, "order": 1, "coeffs": [75.0]},
                ],
            }
        },
    )


class TestRealizeCommand:
    def test_example1_json(self, problems_dir, capsys):
        code = main(["realize", str(problems_dir / "example1.json"), "--mode", "sum"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "realized"
        assert doc["dimension"] <= 9
        assert doc["verification"]["passed"] is True

    def test_no_positive_exit_code(self, problems_dir, capsys):
        code = main(["realize", str(problems_dir / "no_positive.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status"] == "no_positive_realization"
        assert doc["witness_index"] == 1
        assert doc["witness_value"] == pytest.approx(-1.0)

    def test_unsupported_exit_code(self, tmp_path, capsys):
        den = np.polynomial.polynomial.polymul([-0.9, 1.0], [0.9, 1.0])
        path = write_problem(
            tmp_path, "tie.json", {"transfer": {"num": [1.0], "den": list(den)}}
        )
        code = main(["realize", path])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "unsupported"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, "bad.json", {"transfer": {"num": [1.0]}})
        assert main(["realize", path]) == 3
        capsys.readouterr()

    def test_max_shifts_flag(self, problems_dir, capsys):
        # h4 needs 5 shifts under the sum rule: a cap of 4 stops it, a cap of 5 does not
        argv = ["realize", str(problems_dir / "h4.json"), "--mode", "sum", "--max-shifts"]
        code = main(argv + ["4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["status"] == "iteration_cap_exceeded"
        assert main(argv + ["5"]) == 0
        assert json.loads(capsys.readouterr().out)["trace"]["shifts_performed"] == 5

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--tol", "-1", "tol"), ("--tol", "nan", "tol"), ("--tol", "0", "tol"),
         ("--max-shifts", "-1", "max_shifts"), ("--horizon", "0", "horizon")],
    )
    def test_invalid_option_is_an_input_error(self, problems_dir, capsys, flag, value, name):
        code = main(["realize", str(problems_dir / "example1.json"), flag, value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"option {name} must be" in captured.err

    def test_invalid_option_from_file(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "opt.json",
            {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}, "options": {"max_shifts": -1}},
        )
        assert main(["realize", path]) == 3
        assert "option max_shifts must be" in capsys.readouterr().err

    def test_base_flow(self, problems_dir, capsys):
        code = main(
            [
                "realize",
                str(problems_dir / "h10.json"),
                "--base",
                "base_h4.json",
                "--base-shift",
                "7",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["dimension"] == 10

    def test_base_shift_below_one_is_named_before_the_base_is_read(self, problems_dir, capsys):
        argv = ["realize", str(problems_dir / "h10.json"), "--base", "missing.json", "--base-shift", "0"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: option base_shift must be finite and >= 1\n"

    def test_help_describes_the_realize_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["realize", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in ("stopping rule, default per-pole", "cap on the number of shifts, none by default", "shift index m of the base, at least 1"):
            assert phrase in text

    @pytest.mark.parametrize("command", ["realize", "verify"])
    def test_non_finite_base_entry_is_an_input_error(self, problems_dir, tmp_path, capsys, command):
        # json reads 1e400 as inf; the schema refuses it before numpy sees it
        text = (problems_dir / "base_h4.json").read_text()
        assert text.count("0.9811303300514252") == 1
        (tmp_path / "base.json").write_text(text.replace("0.9811303300514252", "1e400"))
        argv = ["realize", str(problems_dir / "h10.json"), "--base", str(tmp_path / "base.json"), "--base-shift", "7"]
        if command == "verify":
            argv = ["verify", str(problems_dir / "h10.json"), "--realization", str(tmp_path / "base.json")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite number in A row\n"

    def test_base_overflowing_the_input_scale_is_one_error_line(self, tmp_path, capsys):
        # the base reproduces the tail of 1/(z - 2); scaled by lam0 = 2, its 1e308 entry overflows
        problem = write_problem(
            tmp_path, "two.json", {"partial_fractions": {"dominant": {"pole": 2.0, "residue": 1.0}, "terms": []}}
        )
        write_problem(tmp_path, "big.json", {"A": [[1.0, 0.0], [1e308, 0.0]], "b": [1.0, 0.0], "c": [1.0, 0.0]})
        assert main(["realize", problem, "--base", "big.json", "--base-shift", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: base overflows when rescaled to the input's scale\n"

    def test_base_shift_without_base_flag(self, problems_dir, capsys):
        assert main(["realize", str(problems_dir / "example1.json"), "--base-shift", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "option base_shift (--base-shift) needs a base realization" in captured.err

    def test_base_shift_without_base_in_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options={"base_shift": 7, "base": None}))
        assert main(["realize", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "option base_shift (--base-shift) needs a base realization" in captured.err

    def test_options_from_file(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "opt.json",
            {
                "transfer": {"num": [1.0], "den": [-1.0, 1.0]},
                "options": {"mode": "sum", "horizon": 50},
            },
        )
        code = main(["realize", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["trace"]["mode"] == "conservative_sum"
        assert doc["verification"]["horizon"] == 50

    def test_base_lift_without_positive_realization(self, tmp_path, capsys):
        # -1/(z-1) + 3/(z-0.5): the dominant residue is negative
        problem = write_problem(
            tmp_path, "neg.json", {"transfer": {"num": [-2.5, 2.0], "den": [0.5, -1.5, 1.0]}}
        )
        write_problem(tmp_path, "base.json", {"A": [[0.5]], "b": [1.0], "c": [1.0]})
        code = main(["realize", problem, "--base", "base.json", "--base-shift", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status"] == "no_positive_realization"
        assert doc["witness_index"] == 3

    def test_idempotent_output(self, problems_dir, capsys):
        main(["realize", str(problems_dir / "example1.json")])
        first = capsys.readouterr().out
        main(["realize", str(problems_dir / "example1.json")])
        second = capsys.readouterr().out
        assert first == second

    def test_atomic_output_file(self, problems_dir, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(
            ["realize", str(problems_dir / "example1.json"), "--output", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["status"] == "realized"
        assert capsys.readouterr().out == ""

    def test_output_file_gets_the_mode_open_would_leave(self, problems_dir, tmp_path, capsys):
        # a new file: 0o666 less the umask; an existing one keeps its own mode
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("old")
        kept.chmod(0o640)
        old = os.umask(0o022)
        try:
            for target in (fresh, kept):
                assert main(["realize", str(problems_dir / "example1.json"), "--output", str(target)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert json.loads(kept.read_text())["status"] == "realized"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "kept.json"]

    def test_failed_output_leaves_no_temp_file(self, problems_dir, tmp_path, capsys):
        # a directory cannot be replaced by a file: the write fails and its temp file goes
        (tmp_path / "out").mkdir()
        assert main(["realize", str(problems_dir / "example1.json"), "--output", str(tmp_path / "out")]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []


class TestVerifyCommand:
    def test_round_trip(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "real.json"
        assert main(["realize", str(problems_dir / "example1.json"), "--output", str(out)]) == 0
        code = main(
            ["verify", str(problems_dir / "example1.json"), "--realization", str(out)]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["passed"] is True

    def test_round_trip_all_problems(self, problems_dir, tmp_path, capsys):
        for name in ("h4.json", "h10.json"):
            out = tmp_path / f"real_{name}"
            assert main(["realize", str(problems_dir / name), "--output", str(out)]) == 0
            assert (
                main(["verify", str(problems_dir / name), "--realization", str(out)]) == 0
            )
            capsys.readouterr()

    def test_overflow_reported_as_null_error(self, tmp_path, capsys):
        problem = write_problem(
            tmp_path, "two.json", {"transfer": {"num": [1.0], "den": [-2.0, 1.0]}}
        )
        # normalized by lam0 = 2, the reference is 1 and A = 4 gives 2^(k-1), past the float range at k = 1025
        real = write_problem(tmp_path, "real.json", {"A": [[4.0]], "b": [1.0], "c": [1.0]})
        code = main(["verify", problem, "--realization", real, "--horizon", "1100"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["passed"] is False
        assert doc["worst_index"] == 1025
        assert doc["max_relative_error"] is None

    @pytest.mark.parametrize(
        "problem, reason",
        [
            ({"transfer": {"num": [1.0], "den": [1.0, 1.0]}}, "dominant pole is not positive"),
            (NEGATIVE_RESIDUE_DOCS["tf.json"], "dominant residue must be positive to normalize"),
            (NEGATIVE_RESIDUE_DOCS["pf.json"], "dominant residue must be positive to normalize"),
        ],
    )
    def test_input_without_a_positive_dominant_term_is_unsupported(self, tmp_path, capsys, problem, reason):
        # the measure is normalized by the dominant pole and residue, so there is none to report
        problem = write_problem(tmp_path, "problem.json", problem)
        real = write_problem(tmp_path, "real.json", {"A": [[1.0]], "b": [1.0], "c": [1.0]})
        code = main(["verify", problem, "--realization", real])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"unsupported: {reason}\n"

    def test_overflowing_powers_fail_without_warnings(self, problems_dir, tmp_path, capsys):
        # finite entries whose powers overflow: the Markov values go non-finite
        # inside the verifier, which reports them and prints nothing else
        doc = json.loads((problems_dir / "base_h4.json").read_text())
        doc["A"][1][1] = 1e300
        real = write_problem(tmp_path, "big.json", doc)
        code = main(["verify", str(problems_dir / "h10.json"), "--realization", real])
        out, err = capsys.readouterr()
        assert code == 4
        assert json.loads(out)["max_relative_error"] is None
        assert err == ""

    def test_failing_realization_exit_code(self, tmp_path, capsys):
        problem = write_problem(
            tmp_path, "one.json", {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}}
        )
        bad = write_problem(
            tmp_path, "bad_real.json", {"dimension": 1, "A": [[1.0]], "b": [1.0], "c": [2.0]}
        )
        code = main(["verify", problem, "--realization", bad])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["passed"] is False

    def test_negative_entries_reported_not_crash(self, tmp_path, capsys):
        problem = write_problem(
            tmp_path, "one.json", {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}}
        )
        neg = write_problem(
            tmp_path, "neg.json", {"dimension": 1, "A": [[-1.0]], "b": [1.0], "c": [1.0]}
        )
        code = main(["verify", problem, "--realization", neg])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["nonnegative"] is False

    def test_options_from_file(self, problems_dir, tmp_path, capsys):
        real = tmp_path / "real.json"
        assert main(["realize", str(problems_dir / "h4.json"), "--output", str(real)]) == 0
        doc = json.loads((problems_dir / "h4.json").read_text())
        doc["options"] = {"horizon": 7}
        problem = write_problem(tmp_path, "h4_opt.json", doc)
        code = main(["verify", problem, "--realization", str(real)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["horizon"] == 7
        code = main(["verify", problem, "--realization", str(real), "--horizon", "9"])
        assert json.loads(capsys.readouterr().out)["horizon"] == 9

    def test_zero_tolerance_is_not_replaced(self, problems_dir, tmp_path, capsys):
        real = tmp_path / "real.json"
        assert main(["realize", str(problems_dir / "h4.json"), "--output", str(real)]) == 0
        argv = ["verify", str(problems_dir / "h4.json"), "--realization", str(real)]
        code = main(argv + ["--tol", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["passed"] is False


class TestBoundsCommand:
    def test_family_ten(self, problems_dir, capsys):
        code = main(["bounds", str(problems_dir / "h10.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["k0"] == 10
        assert doc["theo2"] == 5
        assert doc["mn2"] == 3

    def test_negative_impulse_exit(self, problems_dir, capsys):
        code = main(["bounds", str(problems_dir / "no_positive.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status"] == "negative_impulse"

    def test_negative_impulse_value_in_input_units(self, tmp_path, capsys):
        # 2/(z-2) + 3/(z+1.9): t_2 = -1.7, which is -0.425 after normalizing by 2 * 2
        path = write_problem(
            tmp_path, "neg.json", {"transfer": {"num": [-2.2, 5.0], "den": [-3.8, -0.1, 1.0]}}
        )
        assert main(["impulse", path, "--horizon", "2"]) == 0
        t2 = json.loads(capsys.readouterr().out)["values"][1]
        code = main(["bounds", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (doc["index"], doc["value"]) == (2, t2)
        assert t2 == pytest.approx(-1.7)

    def test_negative_dominant_residue_in_both_forms(self, tmp_path, capsys):
        # -1/(z-1) + 3/(z-0.5): bounds names the witness realize names
        for name, problem in NEGATIVE_RESIDUE_DOCS.items():
            code = main(["bounds", write_problem(tmp_path, name, problem)])
            doc = json.loads(capsys.readouterr().out)
            assert code == 1
            assert doc == {"status": "negative_impulse", "index": 3, "value": pytest.approx(-0.25)}

    def test_reconstruction_check_past_the_float_range_prints_no_warning(self, tmp_path, capsys):
        # 1 / ((z - 1e20)(z^15 - 0.5^15)): den(z) passes the float range on the test circle |z| = 2e20,
        # which the check reads in z/r; t_1 .. t_15 are exactly 0 and t_16 = 1
        poles = [1e20] + [0.5 * np.exp(2j * np.pi * k / 15) for k in range(15)]
        den = np.polynomial.polynomial.polyfromroots(poles).real.tolist()
        path = write_problem(tmp_path, "far.json", {"transfer": {"num": [1.0], "den": den}})
        assert main(["bounds", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert (doc["k0"], doc["zero_indices"]) == (15, list(range(1, 16)))
        assert main(["realize", path]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["status"] == "unsupported"

    def test_non_primitive_is_unsupported(self, tmp_path, capsys):
        path = write_problem(tmp_path, "alt.json", {"transfer": {"num": [1.0], "den": [1.0, 1.0]}})
        code = main(["bounds", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc == {"status": "unsupported", "reason": "dominant pole is not positive"}

    def test_null_bounds_serialized(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "one.json", {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}}
        )
        code = main(["bounds", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["theo2"] is None and doc["mn2"] is None


class TestImpulseCommand:
    def test_h4_values(self, h4_file, capsys):
        code = main(["impulse", h4_file, "--horizon", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["values"] == pytest.approx([51.0, 6.0, 0.0, 0.0, 0.48], abs=1e-9)

    def test_default_horizon(self, h4_file, capsys):
        code = main(["impulse", h4_file])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["count"] == 20

    def test_options_horizon(self, tmp_path, capsys):
        doc = {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}, "options": {"horizon": 7}}
        path = write_problem(tmp_path, "opt.json", doc)
        code = main(["impulse", path])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["count"] == 7
        main(["impulse", path, "--horizon", "3"])
        assert json.loads(capsys.readouterr().out)["count"] == 3


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [["bounds", "p.json", "--tol", "1e-3"], ["bounds", "p.json", "--horizon", "5"],
         ["impulse", "p.json", "--tol", "1e-3"]],
    )
    def test_flag_a_subcommand_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFormats:
    def test_csv_sections(self, h4_file, capsys):
        code = main(["realize", h4_file, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert "A" in lines and "b" in lines and "c" in lines
        assert lines[0] == "status,realized"
        dim = int(lines[1].split(",")[1])
        a_at = lines.index("A")
        rows = lines[a_at + 1 : a_at + 1 + dim]
        assert all(len(r.split(",")) == dim for r in rows)

    def test_json_round_trips_floats(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "real.json"
        main(["realize", str(problems_dir / "example1.json"), "--output", str(out)])
        doc = json.loads(out.read_text())
        real = pr.Realization(np.array(doc["A"]), np.array(doc["b"]), np.array(doc["c"]))
        assert real.dim == doc["dimension"]

    def test_invalid_json_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["realize", str(path)]) == 3

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["inf", "-inf", "int"])
    def test_number_past_the_float_range_rejected(self, tmp_path, capsys, literal):
        for name, doc in {
            "tf.json": f'{{"transfer": {{"num": [{literal}], "den": [-1.0, 1.0]}}}}',
            "pf.json": f'{{"partial_fractions": {{"dominant": {{"pole": 1.0, "residue": 1.0}}, '
            f'"terms": [{{"pole": 0.5, "order": 1, "coeffs": [{{"re": {literal}}}]}}]}}}}',
        }.items():
            (tmp_path / name).write_text(doc)
            assert main(["realize", str(tmp_path / name)]) == 3
            assert "non-finite number in" in capsys.readouterr().err

    def test_nan_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"transfer": {"num": [NaN], "den": [-1.0, 1.0]}}')
        assert main(["realize", str(path)]) == 3


class TestPartialFractionInput:
    def test_complex_terms(self, tmp_path, capsys):
        # conjugate pair plus a gain pole, supplied directly
        doc = {
            "partial_fractions": {
                "dominant": {"pole": 1.0, "residue": 1.0},
                "terms": [
                    {"pole": {"re": 0.1, "im": 0.3}, "order": 1,
                     "coeffs": [{"re": 0.02, "im": 0.01}]},
                    {"pole": {"re": 0.1, "im": -0.3}, "order": 1,
                     "coeffs": [{"re": 0.02, "im": -0.01}]},
                    {"pole": 0.5, "order": 1, "coeffs": [0.2]},
                ],
            }
        }
        path = write_problem(tmp_path, "pairs.json", doc)
        code = main(["realize", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "realized"

    def test_negative_dominant_residue_has_a_witness(self, tmp_path, capsys):
        # -1/(z-1) + 3/(z-0.5) as partial fractions answers as the transfer form does
        for name, problem in NEGATIVE_RESIDUE_DOCS.items():
            code = main(["realize", write_problem(tmp_path, name, problem)])
            out = json.loads(capsys.readouterr().out)
            assert code == 1
            assert out["status"] == "no_positive_realization"
            assert (out["witness_index"], out["witness_value"]) == (3, pytest.approx(-0.25))

    def test_unpaired_complex_rejected(self, tmp_path, capsys):
        doc = {
            "partial_fractions": {
                "dominant": {"pole": 1.0, "residue": 1.0},
                "terms": [
                    {"pole": {"re": 0.1, "im": 0.3}, "order": 1,
                     "coeffs": [{"re": 0.02, "im": 0.01}]},
                ],
            }
        }
        path = write_problem(tmp_path, "unpaired.json", doc)
        assert main(["realize", path]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["realize", "bounds"])
    def test_coefficient_past_the_float_range_named(self, tmp_path, capsys, command):
        # finite parts, but |re| + |im| (and abs()) pass the float range: refused naming the term
        doc = {
            "partial_fractions": {
                "dominant": {"pole": 1.0, "residue": 1.0},
                "terms": [{"pole": 0.5, "order": 1, "coeffs": [{"re": 1.5e308, "im": 1.5e308}]}],
            }
        }
        assert main([command, write_problem(tmp_path, "huge.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coefficient of term 0 is too large")

    def test_both_forms_rejected(self, tmp_path, capsys):
        doc = {
            "transfer": {"num": [1.0], "den": [-1.0, 1.0]},
            "partial_fractions": {"dominant": {"pole": 1.0, "residue": 1.0}, "terms": []},
        }
        path = write_problem(tmp_path, "both.json", doc)
        assert main(["realize", path]) == 3
        capsys.readouterr()


ONE_POLE = {"transfer": {"num": [1.0], "den": [-1.0, 1.0]}}

# option values of the wrong type: a bool is not a number, a fraction or a
# string is not an integer
BAD_OPTIONS = [
    ("tol", True), ("tol", "1e-3"), ("tol", [1e-3]),
    ("horizon", True), ("horizon", 7.0), ("horizon", "7"),
    ("max_shifts", 2.9), ("max_shifts", False), ("max_shifts", "2"),
    ("base_shift", 7.5), ("base_shift", True), ("base_shift", "7"),
    ("mode", 5),
]


class TestOptionTypes:
    @pytest.mark.parametrize("key, value", BAD_OPTIONS)
    def test_realize_refuses_a_mistyped_option(self, tmp_path, capsys, key, value):
        options = {key: value}
        if key == "base_shift":
            options["base"] = "base.json"
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options=options))
        assert main(["realize", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"option {key} must be" in captured.err

    @pytest.mark.parametrize("key, value", [kv for kv in BAD_OPTIONS if kv[0] in ("tol", "horizon")])
    def test_verify_refuses_a_mistyped_option(self, tmp_path, capsys, key, value):
        real = write_problem(tmp_path, "real.json", {"dimension": 1, "A": [[1.0]], "b": [1.0], "c": [1.0]})
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options={key: value}))
        assert main(["verify", path, "--realization", real]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"option {key} must be" in captured.err

    @pytest.mark.parametrize("value", [True, 7.0, "7", 2.9])
    def test_impulse_refuses_a_mistyped_horizon(self, tmp_path, capsys, value):
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options={"horizon": value}))
        assert main(["impulse", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "option horizon must be" in captured.err

    def test_true_tolerance_does_not_pass_a_wrong_realization(self, problems_dir, tmp_path, capsys):
        real = tmp_path / "real.json"
        assert main(["realize", str(problems_dir / "example1.json"), "--output", str(real)]) == 0
        doc = json.loads(real.read_text())
        doc["c"] = [1.5 * v for v in doc["c"]]
        real.write_text(json.dumps(doc))
        problem = json.loads((problems_dir / "example1.json").read_text())
        assert main(["verify", write_problem(tmp_path, "p.json", problem), "--realization", str(real)]) == 4
        problem["options"] = {"tol": True}
        path = write_problem(tmp_path, "p_true.json", problem)
        assert main(["verify", path, "--realization", str(real)]) == 3
        assert "option tol must be a number" in capsys.readouterr().err

    def test_well_typed_and_null_options_still_work(self, tmp_path, capsys):
        options = {"tol": 1, "horizon": 30, "max_shifts": 5, "mode": "sum", "base": None, "base_shift": None}
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options=options))
        assert main(["realize", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["horizon"] == 30
        assert doc["trace"]["mode"] == "conservative_sum"
        assert main(["impulse", path]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 30

    def test_flags_take_precedence_over_a_mistyped_option(self, tmp_path, capsys):
        path = write_problem(tmp_path, "opt.json", dict(ONE_POLE, options={"horizon": "7"}))
        assert main(["impulse", path, "--horizon", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 4

    def test_integer_tolerance_beyond_float_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"transfer": {"num": [1.0], "den": [-1.0, 1.0]}, "options": {"tol": 1%s}}' % ("0" * 400))
        assert main(["realize", str(path)]) == 3
        assert "error:" in capsys.readouterr().err


class TestOptionRanges:
    """``realize``, ``verify`` and ``impulse`` refuse an out-of-range option the same way."""

    @pytest.fixture
    def example1_wrong(self, problems_dir, tmp_path, capsys):
        """example1 and its realization with c scaled by 1.5, which fails at any finite tol."""
        real = tmp_path / "real.json"
        assert main(["realize", str(problems_dir / "example1.json"), "--output", str(real)]) == 0
        doc = json.loads(real.read_text())
        doc["c"] = [1.5 * v for v in doc["c"]]
        real.write_text(json.dumps(doc))
        capsys.readouterr()
        return json.loads((problems_dir / "example1.json").read_text()), str(real)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
    def test_verify_refuses_a_tolerance_flag_out_of_range(self, example1_wrong, tmp_path, capsys, tol):
        problem, real = example1_wrong
        path = write_problem(tmp_path, "p.json", problem)
        assert main(["verify", path, "--realization", real, f"--tol={tol}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "option tol must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("tol", ["-1.0", "1e400", "1" + "0" * 400])  # 1e400 reads as inf
    def test_verify_refuses_a_tolerance_option_out_of_range(self, example1_wrong, tmp_path, capsys, tol):
        problem, real = example1_wrong
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem)[:-1] + ', "options": {"tol": %s}}' % tol)
        path = str(path)
        assert main(["verify", path, "--realization", real]) == 3
        assert "option tol must be finite and >= 0" in capsys.readouterr().err

    def test_wrong_realization_still_fails_at_a_large_finite_tolerance(self, example1_wrong, tmp_path, capsys):
        problem, real = example1_wrong
        path = write_problem(tmp_path, "p.json", problem)
        assert main(["verify", path, "--realization", real, "--tol", "1e-3"]) == 4
        assert json.loads(capsys.readouterr().out)["passed"] is False

    @pytest.mark.parametrize("command", ["verify", "impulse", "realize"])
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_horizon_below_one_is_named(self, tmp_path, capsys, command, where):
        real = write_problem(tmp_path, "real.json", {"dimension": 1, "A": [[1.0]], "b": [1.0], "c": [1.0]})
        options = {"horizon": 0} if where == "file" else {}
        argv = [command, write_problem(tmp_path, "p.json", dict(ONE_POLE, options=options))]
        argv += ["--realization", real] if command == "verify" else []
        argv += ["--horizon", "0"] if where == "flag" else []
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "option horizon must be finite and >= 1" in captured.err
        assert "K must be positive" not in captured.err

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_realize_refuses_a_zero_tolerance_verify_accepts(self, tmp_path, capsys, where):
        real = write_problem(tmp_path, "real.json", {"dimension": 1, "A": [[1.0]], "b": [1.0], "c": [1.0]})
        path = write_problem(tmp_path, "p.json", dict(ONE_POLE, options={"tol": 0} if where == "file" else {}))
        flag = ["--tol", "0"] if where == "flag" else []
        assert main(["realize", path] + flag) == 3
        assert "option tol must be > 0" in capsys.readouterr().err
        assert main(["verify", path, "--realization", real] + flag) == 4  # error 0 is not < 0
        assert json.loads(capsys.readouterr().out)["passed"] is False

    @pytest.mark.parametrize("command", ["realize", "verify"])
    def test_values_at_the_low_end_are_accepted(self, tmp_path, capsys, command):
        real = write_problem(tmp_path, "real.json", {"dimension": 1, "A": [[1.0]], "b": [1.0], "c": [1.0]})
        options = {"tol": 1e-300, "horizon": 1}
        argv = [command, write_problem(tmp_path, "p.json", dict(ONE_POLE, options=options))]
        argv += ["--realization", real] if command == "verify" else ["--max-shifts", "0"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("verification", doc)["horizon"] == 1


class TestIntegerFields:
    """A term's ``order`` and a realization's ``dimension`` are integers: a bool or a float is refused."""

    @pytest.mark.parametrize("order", [True, 1.0])
    @pytest.mark.parametrize("command", ["realize", "bounds", "impulse"])
    def test_term_order_must_be_an_integer(self, problems_dir, tmp_path, capsys, command, order):
        doc = json.loads((problems_dir / "h4.json").read_text())
        doc["partial_fractions"]["terms"][1]["order"] = order
        assert main([command, write_problem(tmp_path, "h4.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "terms[1].order must be an integer" in captured.err

    def test_integer_order_is_accepted(self, problems_dir, tmp_path, capsys):
        doc = json.loads((problems_dir / "h4.json").read_text())
        assert doc["partial_fractions"]["terms"][1]["order"] == 1
        assert main(["bounds", write_problem(tmp_path, "h4.json", doc)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("dimension", [True, 1.0])
    def test_realization_dimension_must_be_an_integer(self, tmp_path, capsys, dimension):
        real = write_problem(tmp_path, "real.json", {"dimension": dimension, "A": [[1.0]], "b": [1.0], "c": [1.0]})
        path = write_problem(tmp_path, "p.json", ONE_POLE)
        assert main(["verify", path, "--realization", real]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'dimension' must be an integer" in captured.err
        assert main(["realize", path, "--base", real, "--base-shift", "1"]) == 3
        assert "'dimension' must be an integer" in capsys.readouterr().err


def test_readme_command_line_example_runs(problems_dir, tmp_path, monkeypatch, capsys):
    # every `posreal` line of README's first command-line block, in order, beside a copy of problems/
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("posreal ")]
    assert {argv[1] for argv in commands} == {"realize", "bounds", "verify", "impulse"}
    shutil.copytree(problems_dir, tmp_path / "problems")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert (main(argv[1:]), capsys.readouterr().err) == (0, ""), argv
