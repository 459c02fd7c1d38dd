import json
import math

import numpy as np
import pytest

import posreal as pr
from posreal.cli import main


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        code = main(["realize", str(problems_dir / "example1.json"), "--max-shifts", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["status"] == "iteration_cap_exceeded"

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_reported_as_null_error(self, tmp_path, capsys):
        problem = write_problem(
            tmp_path, "two.json", {"transfer": {"num": [1.0], "den": [-2.0, 1.0]}}
        )
        real = write_problem(tmp_path, "real.json", {"A": [[2.0]], "b": [1.0], "c": [1.0]})
        code = main(["verify", problem, "--realization", real, "--horizon", "1100"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["passed"] is False
        assert doc["worst_index"] == 1025
        assert doc["max_relative_error"] is None

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
        doc = {
            "partial_fractions": {
                "dominant": {"pole": 1.0, "residue": -1.0},
                "terms": [{"pole": 0.5, "order": 1, "coeffs": [3.0]}],
            }
        }
        docs = {"pf.json": doc, "tf.json": {"transfer": {"num": [-2.5, 2.0], "den": [0.5, -1.5, 1.0]}}}
        for name, problem in docs.items():
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

    def test_both_forms_rejected(self, tmp_path, capsys):
        doc = {
            "transfer": {"num": [1.0], "den": [-1.0, 1.0]},
            "partial_fractions": {"dominant": {"pole": 1.0, "residue": 1.0}, "terms": []},
        }
        path = write_problem(tmp_path, "both.json", doc)
        assert main(["realize", path]) == 3
        capsys.readouterr()
