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
