import json
import subprocess
import sys

import pytest

from netselect import DecisionMatrix, reference_matrix
from netselect.cli import main
from netselect.io import read_matrix_csv, write_matrix_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_builtin_matrix_voip_msaw_first_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", "preset:voip", "--method", "msaw"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method: msaw"
        assert lines[1].startswith("rank")
        assert lines[2].startswith("1") and "N(3)" in lines[2]

    def test_json_output_has_five_records(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "msaw,saw,wpm,topsis,ahp",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["method"] for r in payload["results"]] == [
            "msaw",
            "saw",
            "wpm",
            "topsis",
            "ahp",
        ]
        for record in payload["results"]:
            assert set(record) == {"method", "scores", "order", "ties"}
            assert sorted(record["order"]) == sorted(reference_matrix().alternatives)
            assert list(record["scores"]) == list(reference_matrix().alternatives)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "saw",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,alternative,score,rank"
        assert len(lines) == 7

    def test_missing_matrix_file_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "rank", "--matrix", "/no/such/file.csv", "--weights", "preset:voip"
        )
        assert code == 3
        assert "/no/such/file.csv" in err

    def test_malformed_matrix_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,a,b\nx,1,notanumber\n")
        code, _, err = run_cli(capsys, "rank", "--matrix", str(bad), "--weights", "preset:voip")
        assert code == 4
        assert "notanumber" in err

    def test_invalid_matrix_content_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "zero_cost.csv"
        bad.write_text("alternative,Bandwidth,Delay,PLR,Energy,Cost\nx,1,1,1,1,0\ny,2,2,2,2,1\n")
        code, _, err = run_cli(capsys, "rank", "--matrix", str(bad), "--weights", "preset:voip")
        assert code == 4
        assert "nonpositive_cost" in err

    def test_dimension_mismatch_weights_exit_4(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text("[0.5, 0.5]")
        code, _, err = run_cli(capsys, "rank", "--matrix", "table2", "--weights", str(weights))
        assert code == 4
        assert "5" in err

    def test_unknown_method_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--matrix", "table2", "--weights", "preset:voip", "--method", "grey"])
        assert exc.value.code == 2

    def test_alpha_and_tie_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "msaw",
            "--tie",
            "stable",
            "--alpha",
            "100",
        )
        assert code == 0
        assert "N(3)" in out.splitlines()[2]

    def test_alpha_too_small_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "rank",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "msaw",
            "--alpha",
            "3",
        )
        assert code == 4
        assert "alpha" in err

    def test_directions_flag_for_custom_columns(self, tmp_path, capsys):
        path = tmp_path / "custom.csv"
        path.write_text("alternative,speed,price\nx,10,5\ny,20,2\n")
        weights = tmp_path / "w.csv"
        weights.write_text("0.5,0.5\n")
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--matrix",
            str(path),
            "--weights",
            str(weights),
            "--method",
            "saw",
            "--directions",
            "benefit,cost",
        )
        assert code == 0
        assert out.splitlines()[2].split()[1] == "y"

    def test_custom_columns_without_directions_exit_4(self, tmp_path, capsys):
        path = tmp_path / "custom.csv"
        path.write_text("alternative,speed,price\nx,10,5\ny,20,2\n")
        code, _, err = run_cli(
            capsys, "rank", "--matrix", str(path), "--weights", "preset:voip"
        )
        assert code == 4
        assert "directions" in err

    def test_weights_csv_file(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("0.2,0.2,0.2,0.2,0.2\n")
        code, out, _ = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", str(weights), "--method", "saw"
        )
        assert code == 0

    def test_weights_must_sum_to_one(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("0.5,0.5,0.5,0.5,0.5\n")
        code, _, err = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", str(weights), "--method", "saw"
        )
        assert code == 4
        assert "sum" in err

    def test_unknown_preset_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--matrix", "table2", "--weights", "preset:gaming")
        assert code == 4
        assert "service class" in err

    def test_pairwise_weight_source(self, tmp_path, capsys):
        grid = tmp_path / "pairwise.csv"
        # consistent grid built from priorities (0.4, 0.1, 0.2, 0.1, 0.2)
        p = [0.4, 0.1, 0.2, 0.1, 0.2]
        rows = [",".join(repr(a / b) for b in p) for a in p]
        grid.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", f"pairwise:{grid}", "--method", "saw"
        )
        assert code == 0
        assert out.splitlines()[0] == "method: saw"

    def test_malformed_pairwise_exit_4(self, tmp_path, capsys):
        grid = tmp_path / "pairwise.csv"
        grid.write_text("1,3\n0.5,1\n")  # not reciprocal
        code, _, err = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", f"pairwise:{grid}"
        )
        assert code == 4
        assert "reciprocal" in err

    def test_eigen_nonconvergence_exit_5(self, tmp_path, capsys, monkeypatch):
        from netselect import cli
        from netselect.weighting import ConvergenceError

        grid = tmp_path / "pairwise.csv"
        grid.write_text("1,2\n0.5,1\n")

        def explode(pm):
            raise ConvergenceError(1000, 0.25)

        monkeypatch.setattr(cli, "principal_eigenvector", explode)
        code, _, err = run_cli(
            capsys, "rank", "--matrix", "table2", "--weights", f"pairwise:{grid}"
        )
        assert code == 5
        assert "did not converge" in err


class TestCompare:
    def test_compare_includes_all_methods_and_tau(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--matrix", "table2", "--weights", "preset:voip")
        assert code == 0
        for method in ("msaw", "saw", "wpm", "topsis", "ahp"):
            assert f"method: {method}" in out
        assert "pairwise kendall tau:" in out

    def test_compare_json_has_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 5
        assert payload["agreement"]["methods"] == ["msaw", "saw", "wpm", "topsis", "ahp"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compare_ranks_each_method_once(self, capsys, monkeypatch, fmt):
        import netselect.analysis
        import netselect.cli

        counts = {"rank": 0, "kendall_tau": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(netselect.cli, "rank")
        counting(netselect.analysis, "rank")
        counting(netselect.analysis, "kendall_tau")
        code, out, _ = run_cli(
            capsys, "compare", "--matrix", "table2", "--weights", "preset:voip", "--format", fmt
        )
        assert code == 0
        # Five methods: one ranking each, one tau per unordered pair.
        assert counts == {"rank": 5, "kendall_tau": 10}
        if fmt == "json":
            tau = json.loads(out)["agreement"]["tau"]
            assert all(tau[i][i] == 1.0 for i in range(5))
            assert all(tau[i][j] == tau[j][i] for i in range(5) for j in range(5))


class TestReversal:
    def test_drop_reports_all_methods(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reversal",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "all",
            "--drop",
            "N(4)",
        )
        assert code == 0
        assert "method: msaw  reversed: no" in out

    def test_drop_unknown_label_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "reversal",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--drop",
            "N(9)",
        )
        assert code == 4
        assert "N(9)" in err

    def test_duplicate_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reversal",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "ahp",
            "--duplicate",
            "N(4)",
        )
        assert code == 0
        assert "method: ahp  reversed: yes" in out

    def test_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reversal", "--matrix", "table2", "--weights", "preset:voip"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "reversal",
                    "--matrix",
                    "table2",
                    "--weights",
                    "preset:voip",
                    "--drop",
                    "N(4)",
                    "--duplicate",
                    "N(2)",
                ]
            )
        assert exc.value.code == 2

    def test_montecarlo_deterministic(self, capsys):
        argv = [
            "reversal",
            "--weights",
            "preset:voip",
            "--matrix",
            "table2",
            "--montecarlo",
            "30",
            "--seed",
            "7",
        ]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "trials: 30  seed: 7" in out_a

    def test_montecarlo_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reversal",
            "--matrix",
            "table2",
            "--weights",
            "preset:voip",
            "--method",
            "msaw,saw",
            "--montecarlo",
            "10",
            "--seed",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 10
        assert set(payload["reversal_counts"]) == {"msaw", "saw"}


class TestGen:
    def test_gen_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "42")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alternative,Bandwidth,Delay,PLR,Energy,Cost"
        assert len(lines) == 7  # header + 3 profiles x 2 instances

    def test_gen_deterministic_files(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(capsys, "gen", "--seed", "42", "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "gen", "--seed", "42", "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        sidecar_a = tmp_path / "a.csv.directions.json"
        sidecar_b = tmp_path / "b.csv.directions.json"
        assert sidecar_a.read_bytes() == sidecar_b.read_bytes()

    def test_gen_roundtrip_identical_matrix(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        assert run_cli(capsys, "gen", "--seed", "9", "--out", str(out))[0] == 0
        from netselect import example_scenario, generate_matrix

        expected = generate_matrix(example_scenario().with_seed(9))
        parsed = read_matrix_csv(out)
        assert parsed == expected

    def test_gen_stdout_and_out_write_identical_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        profile = {
            "name": "LTE, band 7",
            "bandwidth_range": [1, 10],
            "delay_range": [10, 50],
            "plr_range": [0.1, 1],
            "cost_level": 1,
            "energy_coeffs": {"uplink": 1, "downlink": 1, "baseline": 1},
        }
        spec.write_text(json.dumps({"profiles": [profile], "instances_per_profile": 2}))
        code, out, _ = run_cli(capsys, "gen", "--spec", str(spec), "--seed", "4")
        assert code == 0
        target = tmp_path / "gen.csv"
        args = ("gen", "--spec", str(spec), "--seed", "4", "--out", str(target))
        assert run_cli(capsys, *args)[0] == 0
        assert target.read_bytes() == out.encode("utf-8")
        piped = tmp_path / "piped.csv"
        piped.write_text(out, encoding="utf-8")
        for path in (target, piped):
            matrix = read_matrix_csv(path)
            assert matrix.alternatives == ("LTE, band 7-0", "LTE, band 7-1")

    def test_gen_respects_margins(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "42")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        wifi = [row for row in rows if row[0].startswith("WiFi")]
        assert wifi
        for row in wifi:
            assert 1.0 <= float(row[1]) <= 11.0
            assert 100.0 <= float(row[2]) <= 150.0
            assert 0.2 <= float(row[3]) <= 3.0

    def test_gen_bad_spec_exit_4_with_coordinate(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "profiles": [
                        {
                            "name": "bad",
                            "bandwidth_range": [10, 1],
                            "delay_range": [1, 2],
                            "plr_range": [0.1, 0.2],
                            "cost_level": 1,
                            "energy_coeffs": {"uplink": 1, "downlink": 1, "baseline": 1},
                        }
                    ]
                }
            )
        )
        code, _, err = run_cli(capsys, "gen", "--spec", str(spec))
        assert code == 4
        assert "bandwidth_range" in err

    def test_gen_missing_spec_file_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--spec", "/no/spec.json")
        assert code == 3


class TestRoundTrip:
    def test_write_read_matrix_identity(self, tmp_path):
        matrix = reference_matrix()
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        assert read_matrix_csv(path) == matrix

    def test_default_directions_rule_without_sidecar(self, tmp_path):
        matrix = reference_matrix()
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path, sidecar=False)
        parsed = read_matrix_csv(path)
        assert parsed == matrix  # standard names carry default directions and units

    def test_bundled_reference_csv_matches_builtin(self):
        from importlib import resources

        with resources.as_file(
            resources.files("netselect").joinpath("data/reference_matrix.csv")
        ) as path:
            assert read_matrix_csv(path) == reference_matrix()

    def test_read_pairwise_csv(self, tmp_path):
        from netselect import read_pairwise_csv

        path = tmp_path / "pm.csv"
        path.write_text("1,3\n0.3333333333333333,1\n")
        pm = read_pairwise_csv(path)
        assert pm.size == 2
        assert pm.values[0, 1] == 3.0

    def test_read_pairwise_csv_rejects_non_square(self, tmp_path):
        from netselect import ParseError, read_pairwise_csv

        path = tmp_path / "pm.csv"
        path.write_text("1,3,4\n0.3333333333333333,1\n")
        with pytest.raises(ParseError):
            read_pairwise_csv(path)


class TestSubprocessEntrypoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "netselect",
                "rank",
                "--matrix",
                "table2",
                "--weights",
                "preset:voip",
                "--method",
                "msaw",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "N(3)" in proc.stdout.splitlines()[2]

    def test_help_documents_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netselect", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for token in ("exit codes", "usage", "I/O", "validation", "numeric"):
            assert token in proc.stdout
