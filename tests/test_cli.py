import csv
import io
import json
import subprocess
import sys

import pytest

from netselect import DecisionMatrix, reference_matrix
from netselect.cli import main
from netselect.io import matrix_to_csv_text, read_matrix_csv, sidecar_path, write_matrix_csv


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

    def test_empty_method_list_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--matrix", "table2", "--weights", "preset:voip", "--method", ","])
        assert exc.value.code == 2
        assert "at least one method must be requested" in capsys.readouterr().err

    def test_text_output_lists_tie_groups(self, tmp_path, capsys):
        # Rows x and z are equal, so their scores tie.
        path = tmp_path / "tied.csv"
        path.write_text("alternative,speed,price\nx,10,5\ny,20,2\nz,10,5\n")
        weights = tmp_path / "w.csv"
        weights.write_text("0.5,0.5\n")
        argv = ["rank", "--matrix", str(path), "--weights", str(weights), "--method", "saw"]
        code, out, _ = run_cli(capsys, *argv, "--directions", "benefit,cost")
        assert code == 0
        assert out.splitlines()[2:6] == [
            "1     y            1.000000",
            "2     x            0.450000",
            "3     z            0.450000",
            "ties: x, z",
        ]

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
        table2 = ["--matrix", "table2", "--weights", "preset:voip"]
        for argv in (
            ["reversal", *table2],
            ["reversal", *table2, "--drop", "N(4)", "--duplicate", "N(2)"],
            ["reversal", *table2, "--montecarlo", "5", "--drop", "N(4)"],
            ["reversal", *table2, "--montecarlo", "0"],
            # --montecarlo draws its matrices from --spec; --drop needs --matrix
            ["reversal", "--matrix", "/no/such.csv", *table2[2:], "--montecarlo", "3"],
            ["reversal", *table2[2:], "--drop", "N(4)"],
            # only --montecarlo reads --spec and --seed
            ["reversal", *table2, "--drop", "N(4)", "--spec", "/no/such.json"],
            ["reversal", *table2, "--duplicate", "N(2)", "--seed", "3"],
            # csv is a rank format; compare and reversal have no csv writer
            ["compare", *table2, "--format", "csv"],
            ["reversal", *table2, "--drop", "N(4)", "--format", "csv"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_montecarlo_deterministic(self, capsys):
        argv = [
            "reversal",
            "--weights",
            "preset:voip",
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
        assert list(payload) == ["trials", "seed", "methods", "reversal_counts", "frequencies"]
        assert payload["trials"] == 10 and payload["methods"] == ["msaw", "saw"]
        counts = payload["reversal_counts"]
        assert set(counts) == {"msaw", "saw"}
        assert payload["frequencies"] == {m: counts[m] / 10 for m in ("msaw", "saw")}

    def test_montecarlo_rejects_directions(self, capsys):
        # Scenario matrices carry their own directions, so the flag would be ignored.
        argv = ["reversal", "--weights", "preset:voip", "--montecarlo", "5"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--directions", "nonsense"])
        assert exc.value.code == 2
        assert (
            "argument --directions: not allowed with --montecarlo, "
            "whose scenario matrices have built-in directions" in capsys.readouterr().err
        )
        assert run_cli(capsys, *argv, "--directions", "")[0] == 0  # empty means no flag

    def test_montecarlo_trials_must_be_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reversal", "--weights", "preset:voip", "--montecarlo", "abc"])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("profiles", 5, id="profiles-int"),
            pytest.param("profiles", ["WiFi"], id="profile-str"),
            pytest.param(
                "energy_coeffs",
                {"uplink": 1, "downlink": 1, "baseline": 1, "idle": 1},
                id="energy-extra-key",
            ),
            pytest.param("instances_per_profile", "2", id="instances-str"),
            pytest.param("instances_per_profile", 2.5, id="instances-float"),
            pytest.param("bandwidth_range", [1, 5, 11], id="range-3"),
            pytest.param("cost_level", "1", id="cost-str"),
            pytest.param("seed", 1.5, id="seed-float"),
        ],
    )
    @pytest.mark.parametrize("command", ["gen", "montecarlo"])
    def test_mistyped_spec_exit_4_with_path(self, tmp_path, capsys, field, value, command):
        spec = {  # valid for both commands until one field is mistyped
            "seed": 3,
            "instances_per_profile": 2,
            "profiles": [
                {
                    "name": "WiFi",
                    "bandwidth_range": [1, 11],
                    "delay_range": [100, 150],
                    "plr_range": [0.2, 3],
                    "cost_level": 1,
                    "energy_coeffs": {"uplink": 1, "downlink": 1, "baseline": 1},
                },
            ],
        }
        top_level = field in ("profiles", "instances_per_profile", "seed")
        (spec if top_level else spec["profiles"][0])[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["gen"]
        if command == "montecarlo":
            argv = ["reversal", "--weights", "preset:voip", "--montecarlo", "3"]
        code, out, err = run_cli(capsys, *argv, "--spec", str(path))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {path}: ")


class TestRoundTrip:
    def test_write_read_matrix_identity(self, tmp_path):
        matrix = reference_matrix()
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        assert read_matrix_csv(path) == matrix

    def test_default_directions_rule_without_sidecar(self, tmp_path):
        matrix = reference_matrix()
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        sidecar_path(path).unlink()
        parsed = read_matrix_csv(path)
        assert parsed == matrix  # standard names carry default directions and units

    def test_csv_text_equals_per_cell_repr(self, tmp_path):
        # The per-cell writer matrix_to_csv_text replaced (reference).
        def per_cell_csv_text(matrix):
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["alternative", *matrix.criterion_names])
            for label, row in zip(matrix.alternatives, matrix.values):
                writer.writerow([label, *(repr(float(v)) for v in row)])
            return buffer.getvalue()

        base = reference_matrix()
        awkward = [5e-324, 1e-300, 0.1, 1e16, 123456789.125]
        labels = ['say "hi", then', "plain", "a\nb", "x,y", " pad "]
        values = [awkward[k:] + awkward[:k] for k in range(5)]
        matrix = DecisionMatrix(labels, base.criteria, values)
        text = matrix_to_csv_text(matrix)
        assert text == per_cell_csv_text(matrix)
        assert '"say ""hi"", then"' in text
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        assert read_matrix_csv(path).values.tolist() == values

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


class TestDirectionsFlag:
    """--directions goes through the sidecar's parser: ParseError with the CSV path, exit 4."""

    def write(self, tmp_path):
        path = tmp_path / "custom.csv"
        path.write_text("alternative,speed,price\nx,10,5\ny,20,2\n")
        (tmp_path / "w.csv").write_text("0.5,0.5\n")
        return path

    def test_unknown_token_names_the_csv(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code, _, err = run_cli(
            capsys, "rank", "--matrix", str(path), "--weights", str(tmp_path / "w.csv"),
            "--directions", "benefit,upward",
        )
        assert code == 4
        assert err == f"error: {path}: unknown direction 'upward'; expected 'benefit' or 'cost'\n"

    def test_count_is_checked_before_tokens(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code, _, err = run_cli(
            capsys, "rank", "--matrix", str(path), "--weights", str(tmp_path / "w.csv"),
            "--directions", "benefit,upward,cost",
        )
        assert code == 4
        assert err == f"error: {path}: expected 2 directions, got 3\n"

    @pytest.mark.parametrize("command", [["rank"], ["reversal", "--drop", "N(2)"]])
    @pytest.mark.parametrize("matrix", ["table2", "reference"])
    def test_rejected_with_a_builtin_matrix(self, capsys, command, matrix):
        argv = [*command, "--matrix", matrix, "--weights", "preset:voip"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--directions", "cost,cost,cost,cost,benefit"])
        assert exit_info.value.code == 2
        assert (
            f"argument --directions: not allowed with --matrix {matrix}, "
            "whose directions are built in" in capsys.readouterr().err
        )
        assert run_cli(capsys, *argv, "--directions", "")[0] == 0  # empty means no flag

    def test_same_message_as_a_sidecar_token(self, tmp_path):
        from netselect import Direction
        from netselect.io import ParseError

        path = self.write(tmp_path)
        with pytest.raises(ParseError, match="unknown direction 'upward'") as flag:
            read_matrix_csv(path, directions=["benefit", "upward"])
        sidecar_text = '{"directions": ["benefit", "upward"]}'
        (tmp_path / "custom.csv.directions.json").write_text(sidecar_text)
        with pytest.raises(ParseError) as sidecar:
            read_matrix_csv(path)
        assert str(flag.value).split(": ", 1)[1] == str(sidecar.value).split(": ", 1)[1]
        matrix = read_matrix_csv(path, directions=[Direction.BENEFIT, "cost"])
        assert matrix.directions == (Direction.BENEFIT, Direction.COST)


# One malformed file per ParseError branch of netselect.io: (files to write,
# CLI arguments with {} for the first file, the file the error names, and
# the message after "<file>: ").
STANDARD_CSV = "alternative,Bandwidth,Delay,PLR,Energy,Cost\nx,1,1,1,1,1\n"
MATRIX_ARGS = ["rank", "--matrix", "{}", "--weights", "preset:voip"]
WEIGHTS_ARGS = ["rank", "--matrix", "table2", "--weights", "{}"]
PAIRWISE_ARGS = ["rank", "--matrix", "table2", "--weights", "pairwise:{}"]
SCENARIO_ARGS = ["gen", "--spec", "{}"]
SIDECAR = "m.csv.directions.json"
NOT_JSON = "invalid JSON (Expecting value: line 1 column 1 (char 0))"
MALFORMED_FILES = {
    "matrix-no-data-row": (
        {"m.csv": "alternative,a\n"}, MATRIX_ARGS, "m.csv",
        "need a header and at least one data row",
    ),
    "matrix-header": (
        {"m.csv": "label,a\nx,1\n"}, MATRIX_ARGS, "m.csv",
        "first header cell must be 'alternative'",
    ),
    "matrix-row-width": (
        {"m.csv": "alternative,a,b\nx,1\n"}, MATRIX_ARGS, "m.csv",
        "line 2 has 2 fields, expected 3",
    ),
    "sidecar-json": ({"m.csv": STANDARD_CSV, SIDECAR: "nope"}, MATRIX_ARGS, SIDECAR, NOT_JSON),
    "sidecar-not-object": (
        {"m.csv": STANDARD_CSV, SIDECAR: "[]"}, MATRIX_ARGS, SIDECAR,
        "expected an object with a 'directions' list",
    ),
    "sidecar-directions-not-list": (
        {"m.csv": STANDARD_CSV, SIDECAR: '{"directions": "benefit"}'}, MATRIX_ARGS, SIDECAR,
        "directions must be a list",
    ),
    "sidecar-units": (
        {"m.csv": STANDARD_CSV, SIDECAR: json.dumps({"directions": ["cost"] * 5, "units": ["s"]})},
        MATRIX_ARGS, SIDECAR, "'units' must list one unit per criterion",
    ),
    "weights-json": ({"w.json": "nope"}, WEIGHTS_ARGS, "w.json", NOT_JSON),
    "weights-json-not-array": (
        {"w.json": '{"a": 1}'}, WEIGHTS_ARGS, "w.json", "expected a JSON array of weights",
    ),
    "weights-csv-rows": (
        {"w.csv": "0.5,0.5\n0.5,0.5\n"}, WEIGHTS_ARGS, "w.csv",
        "expected a single CSV row of weights",
    ),
    "weights-not-numbers": (
        {"w.csv": "0.5,half\n"}, WEIGHTS_ARGS, "w.csv", "weights must all be numbers",
    ),
    "pairwise-empty": ({"p.csv": ""}, PAIRWISE_ARGS, "p.csv", "empty pairwise matrix"),
    "pairwise-cell": (
        {"p.csv": "1,x\n1,1\n"}, PAIRWISE_ARGS, "p.csv", "line 1 contains a non-numeric cell",
    ),
    "scenario-json": ({"s.json": "nope"}, SCENARIO_ARGS, "s.json", NOT_JSON),
    "scenario-not-object": ({"s.json": "[]"}, SCENARIO_ARGS, "s.json", "expected a JSON object"),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_file_exit_4_names_the_file(tmp_path, capsys, case):
    files, argv, culprit, message = MALFORMED_FILES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    first = tmp_path / next(iter(files))
    code, out, err = run_cli(capsys, *(arg.format(first) for arg in argv))
    assert (code, out) == (4, "")
    assert err == f"error: {tmp_path / culprit}: {message}\n"


# One file that is not UTF-8 per reader of netselect.io: (files to write,
# CLI arguments with {} for the first file, the file the error names).
NOT_UTF8 = b"\xff\xfe0.5,0.5\n"
NOT_UTF8_FILES = {
    "matrix": ({"m.csv": NOT_UTF8}, MATRIX_ARGS, "m.csv"),
    "sidecar": ({"m.csv": STANDARD_CSV.encode(), SIDECAR: NOT_UTF8}, MATRIX_ARGS, SIDECAR),
    "weights-csv": ({"w.csv": NOT_UTF8}, WEIGHTS_ARGS, "w.csv"),
    "weights-json": ({"w.json": NOT_UTF8}, WEIGHTS_ARGS, "w.json"),
    "pairwise": ({"p.csv": NOT_UTF8}, PAIRWISE_ARGS, "p.csv"),
    "scenario": ({"s.json": NOT_UTF8}, SCENARIO_ARGS, "s.json"),
}


@pytest.mark.parametrize("case", list(NOT_UTF8_FILES))
def test_file_not_utf8_exit_4_names_the_file(tmp_path, capsys, case):
    files, argv, culprit = NOT_UTF8_FILES[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    first = tmp_path / next(iter(files))
    code, out, err = run_cli(capsys, *(arg.format(first) for arg in argv))
    assert (code, out) == (4, "")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert err == f"error: {tmp_path / culprit}: not UTF-8 text ({reason})\n"
