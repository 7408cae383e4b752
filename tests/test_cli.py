"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from d2dlab import simulator
from d2dlab.cli import main
from d2dlab.fixtures import write_region_log
from d2dlab.popularity import PopularityModel

from oracles import kkt_mstar


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestFitCommand:
    def test_region2_fixture(self, tmp_path):
        log = tmp_path / "region2.csv"
        write_region_log(log, region=2, n_accesses=150_000, seed=12)
        out = tmp_path / "fit.json"
        code = main(["fit", str(log), "--region", "2", "--output", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["gamma"] == pytest.approx(1.16, abs=0.05)
        assert payload["q"] == pytest.approx(22.0, rel=0.3)
        assert payload["unique_accesses"] == 150_000
        assert payload["users"] == 150_000
        assert payload["report"]["malformed"] == 0
        assert payload["report"]["rows"] > 150_000
        assert payload["report"]["distinct_contents"] == payload["m_total"]
        ranks = read_csv(tmp_path / "fit_ranks.csv")
        assert len(ranks) == payload["m_total"]
        assert int(ranks[0]["count"]) >= int(ranks[-1]["count"])
        assert (tmp_path / "fit.json.manifest.json").exists()

    def test_deterministic_output(self, tmp_path):
        log = tmp_path / "log.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", str(log), "--output", str(out_a)]) == 0
        assert main(["fit", str(log), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_region_filter(self, tmp_path):
        log = tmp_path / "mixed.csv"
        lines = ["user_id,content_id,region_id"]
        for i in range(60):
            lines.append(f"u{i},c{i % 4},2")
        for i in range(40):
            lines.append(f"v{i},x{i % 2},3")
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert main(["fit", str(log), "--region", "3", "--output", str(out)]) == 0
        assert read_json(out)["report"]["distinct_contents"] == 2
        ingest = read_json(tmp_path / "fit.json.manifest.json")["ingest"]
        assert ingest.pop("wall_s") >= 0.0
        assert ingest == {"rows": 100, "malformed": 0, "kept": 40, "unique_pairs": 40,
                          "distinct_users": 40, "distinct_contents": 2}

    @pytest.mark.parametrize("body", ["u1,c1,2\nu2,c1,3\n", ""], ids=["other-regions", "header-only"])
    def test_region_with_no_rows_leaves_no_output(self, tmp_path, capsys, body):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id,region_id\n" + body, encoding="utf-8")
        code = main(["fit", str(log), "--region", "9", "--output", str(tmp_path / "fit.json")])
        assert code == 2
        assert "cannot rank an empty access set" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    @pytest.mark.parametrize("body, checked", [("u1,c1,2\nu2,c1,3\n", 2), ("", 0)],
                             ids=["other-regions", "header-only"])
    def test_region_with_no_rows_is_named(self, tmp_path, capsys, body, checked):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id,region_id\n" + body, encoding="utf-8")
        assert main(["fit", str(log), "--region", "9", "--output", str(tmp_path / "f.json")]) == 2
        assert f"no row of region 9 among the log's {checked} checked rows" in capsys.readouterr().err

    def test_pure_zipf_fixture_recovers_near_zero_plateau(self, tmp_path):
        from d2dlab.popularity import PopularityModel, sample_ranks
        import numpy as np

        truth = PopularityModel(gamma=1.5, q=0.0, m_total=500)
        rng = np.random.default_rng(21)
        ranks = sample_ranks(truth, rng, 80_000)
        log = tmp_path / "zipf.csv"
        with open(log, "w", encoding="utf-8") as fh:
            fh.write("user_id,content_id,region_id\n")
            for i, r in enumerate(ranks):
                fh.write(f"u{i},c{r:04d},1\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(log), "--output", str(out)]) == 0
        payload = read_json(out)
        assert payload["q"] <= 1.5
        assert payload["gamma"] == pytest.approx(1.5, abs=0.08)

    def test_header_only_errors(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text("user_id,content_id,region_id\n", encoding="utf-8")
        code = main(["fit", str(log), "--output", str(tmp_path / "o.json")])
        assert code == 2

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["fit", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.json")])
        assert code == 3

    def test_bad_header_is_format_error(self, tmp_path):
        log = tmp_path / "bad.csv"
        log.write_text("who,what,where\nu,c,1\n", encoding="utf-8")
        code = main(["fit", str(log), "--output", str(tmp_path / "o.json")])
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        (f"user_id,content_id,region_id\nu1,c1,2\nu2,{'c' * 200_000},2\n".encode(),
         "line 3: field larger than field limit"),
        (b"user_id,content_id,region_id\nu1,c1,2\nu2,c\xff2,2\n", "not UTF-8"),
        (f"user_id,{'c' * 200_000},region_id\nu1,c1,2\n".encode(),
         "line 1: field larger than field limit"),
    ], ids=["oversized-field", "not-utf8", "oversized-header-field"])
    def test_unreadable_log_is_a_format_error(self, tmp_path, capsys, text, message):
        log = tmp_path / "log.csv"
        log.write_bytes(text)
        code = main(["fit", str(log), "--output", str(tmp_path / "fit.json")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_unwritable_ranks_csv_leaves_no_json(self, tmp_path, capsys):
        log = tmp_path / "r.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        out = tmp_path / "g.json"
        code = main(["fit", str(log), "--ranks-csv", str(tmp_path / "nodir" / "x.csv"),
                     "--output", str(out)])
        assert code == 3
        assert "x.csv" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "g.json.manifest.json").exists()

    @pytest.mark.parametrize("bad", ["ranks", "json"])
    def test_a_failed_write_leaves_no_output(self, tmp_path, capsys, bad):
        """Whichever write fails, neither output, no manifest and no temporary remain."""
        log = tmp_path / "r.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        ranks = tmp_path / ("nodir" if bad == "ranks" else "") / "ranks.csv"
        out = tmp_path / ("nodir" if bad == "json" else "") / "g.json"
        code = main(["fit", str(log), "--ranks-csv", str(ranks), "--output", str(out)])
        assert code == 3
        assert str(ranks if bad == "ranks" else out) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_a_log_with_a_byte_order_mark_fits_as_the_plain_log(self, tmp_path):
        log = tmp_path / "log.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())
        assert main(["fit", str(log), "--output", str(tmp_path / "plain.json")]) == 0
        assert main(["fit", str(bom), "--output", str(tmp_path / "bom.json")]) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_a_directory_output_is_refused_before_anything_moves(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        (tmp_path / "outdir").mkdir()
        assert main(["fit", str(log), "--output", str(tmp_path / "outdir")]) == 3
        err = capsys.readouterr().err
        assert f"Is a directory: '{tmp_path / 'outdir'}'" in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []

    @pytest.mark.parametrize("ranks, output", [
        ("P", "P"),
        ("x.json.manifest.json", "x.json"),
        ("d/../g.json", "g.json"),
    ], ids=["same", "manifest", "resolved"])
    def test_outputs_at_one_path_are_refused(self, tmp_path, capsys, ranks, output):
        log = tmp_path / "log.csv"
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        (tmp_path / "d").mkdir()
        assert main(["fit", str(log), "--ranks-csv", str(tmp_path / ranks),
                     "--output", str(tmp_path / output)]) == 2
        assert "two outputs share the path" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "log.csv"]

    @pytest.mark.parametrize("log_name, flags", [
        ("log.csv", ["--output", "log.csv"]),
        ("log.csv", ["--ranks-csv", "log.csv", "--output", "f.json"]),
        ("f.json.manifest.json", ["--output", "f.json"]),
        ("log.csv", ["--output", "d/../log.csv"]),
    ], ids=["output", "ranks", "manifest", "resolved"])
    def test_an_output_over_the_log_is_refused(self, tmp_path, capsys, log_name, flags):
        log = tmp_path / log_name
        write_region_log(log, region=3, n_accesses=3000, seed=5)
        before = log.read_bytes()
        (tmp_path / "d").mkdir()
        flags = [f if f.startswith("-") else str(tmp_path / f) for f in flags]
        assert main(["fit", str(log), *flags]) == 2
        assert "would overwrite an input" in capsys.readouterr().err
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["d", log_name])


class TestPolicyCommand:
    def test_hand_instance(self, tmp_path):
        out = tmp_path / "policy.json"
        code = main([
            "policy", "--gamma", "1", "--q", "0", "--m-total", "3",
            "--s-cache", "1", "--g-c", "3", "--output", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["m_star"] == 2
        assert payload["nu"] == pytest.approx(2 / 11, rel=1e-9)
        assert payload["p_c"][0] == pytest.approx(2 / 3, rel=1e-9)
        assert payload["p_c"][1] == pytest.approx(1 / 3, rel=1e-9)
        assert payload["p_c"][2] == 0.0
        assert payload["m_star"] <= 3
        assert payload["theoretical_m_star"] <= 3

    def test_cluster_too_small_is_parameter_error(self, tmp_path):
        code = main([
            "policy", "--gamma", "1.16", "--q", "22", "--m-total", "100",
            "--s-cache", "1", "--g-c", "2", "--output", str(tmp_path / "o.json"),
        ])
        assert code == 2

    def test_a_directory_manifest_is_refused_before_anything_moves(self, tmp_path, capsys):
        (tmp_path / "m.json.manifest.json").mkdir()
        code = main([
            "policy", "--gamma", "1.16", "--q", "22", "--m-total", "500",
            "--s-cache", "2", "--g-c", "4", "--output", str(tmp_path / "m.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"Is a directory: '{tmp_path / 'm.json.manifest.json'}'" in err
        assert ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["m.json.manifest.json"]
        assert list((tmp_path / "m.json.manifest.json").iterdir()) == []


class TestValidateMstarCommand:
    def test_moderate_cluster_agreement(self, tmp_path):
        out = tmp_path / "mstar.csv"
        code = main([
            "validate-mstar", "--gamma", "1.16", "--q", "22", "--m-total", "10000",
            "--s-cache", "1", "--g-c-list", "100,400,1600", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["g_c"]) for r in rows] == [100, 400, 1600]
        assert all(float(r["rel_deviation"]) <= 0.05 for r in rows)
        assert all(int(r["kkt_m_star"]) <= 10000 for r in rows)

    def test_column_matches_the_scan_oracle(self, tmp_path):
        out = tmp_path / "mstar.csv"
        assert main([
            "validate-mstar", "--gamma", "1.16", "--q", "22", "--m-total", "2000",
            "--s-cache", "2", "--g-c-list", "3,10,100,1500", "--output", str(out),
        ]) == 0
        model = PopularityModel(gamma=1.16, q=22.0, m_total=2000)
        for row in read_csv(out):
            assert int(row["kkt_m_star"]) == kkt_mstar(model, 2, int(row["g_c"]))

    def test_spaces_around_list_fields_are_read(self, tmp_path):
        out = tmp_path / "mstar.csv"
        assert main([
            "validate-mstar", "--gamma", "1.16", "--q", "22", "--m-total", "500",
            "--g-c-list= 4 , 9 ", "--output", str(out),
        ]) == 0
        assert [int(r["g_c"]) for r in read_csv(out)] == [4, 9]

    def test_bad_cluster_size_leaves_no_partial_csv(self, tmp_path):
        out = tmp_path / "mstar.csv"
        assert main([
            "validate-mstar", "--gamma", "1.16", "--q", "22", "--m-total", "500",
            "--g-c-list", "10,2", "--output", str(out),
        ]) == 2
        assert not out.exists()


@pytest.mark.parametrize("command", ["validate-mstar", "tradeoff"])
@pytest.mark.parametrize("g_c_list, message", [
    ("", "g_c list must not be empty"),
    (",", "g_c list must not be empty"),
    ("a", "comma-separated list of integers"),
    ("100 400", "expected a comma-separated list of integers"),
    ("4,,9", "expected a comma-separated list of integers"),
    ("4,9,", "expected a comma-separated list of integers"),
])
def test_bad_g_c_list_is_a_parameter_error(tmp_path, capsys, command, g_c_list, message):
    out = tmp_path / "out.csv"
    assert main([command, "--gamma", "1.16", "--q", "22", "--m-total", "500",
                 f"--g-c-list={g_c_list}", "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.csv.manifest.json").exists()


class TestTradeoffCommand:
    MODEL_ARGS = ["--gamma", "1.16", "--q", "22", "--m-total", "2000"]

    def test_analytic_single_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "1", "--rate-c", "1",
            "--reuse-k", "4", "--g-c-list", "100", "--mode", "analytic",
            "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["regime"] == "regime1"
        assert float(rows[0]["T_analytic"]) == 0.25 / 100
        assert rows[0]["T_sim"] == ""

    @pytest.mark.parametrize("gamma, row", [
        ("0.8", "100,regime1,0.0025,1,0.1969532636,,,,,,1,"),
        ("1.0", "100,regime1,0.0025,1,0.4335531019,,,,,,0,"),
        ("1.2", "100,regime1,0.0025,0,0.6938931585,,,,,,0,"),
    ], ids=["0.8", "1.0", "1.2"])
    def test_zero_plateau_row(self, tmp_path, gamma, row):
        """At q=0 the outage law's c6^(gamma-1) is +inf, 1 or 0 as gamma is
        below, at or above 1; below 1 the outage clamps to 1 and is flagged."""
        out = tmp_path / "q0.csv"
        code = main([
            "tradeoff", "--gamma", gamma, "--q", "0", "--m-total", "100000",
            "--s-cache", "4", "--g-c-list", "100", "--mode", "analytic",
            "--output", str(out),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == row

    def test_zero_plateau_regime2_row_is_not_clamped(self, tmp_path):
        """At q=0 and gamma > 1 the regime-2 bound is its q -> 0+ limit, 1:
        outage 0, with nothing clamped."""
        out = tmp_path / "q0.csv"
        code = main([
            "tradeoff", "--gamma", "1.2", "--q", "0", "--m-total", "1000",
            "--s-cache", "4", "--g-c-list", "400", "--output", str(out),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "400,regime2,0.000625,0,1,,,,,,0,"

    def test_region3_sweep_covers_both_regimes(self, tmp_path):
        out = tmp_path / "r3.csv"
        code = main([
            "tradeoff", "--gamma", "1.11", "--q", "18", "--m-total", "5405",
            "--s-cache", "4", "--g-c-list", "50,100,200,400,800,1600,3200",
            "--mode", "analytic", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        regimes = {r["regime"] for r in rows}
        assert regimes == {"regime1", "regime2"}
        pairs = [(float(r["T_analytic"]), float(r["Po_analytic"])) for r in rows]
        by_gc = sorted(zip([int(r["g_c"]) for r in rows], pairs))
        ts = [t for _, (t, _) in by_gc]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_both_mode_analytic_matches_simulation(self, tmp_path):
        """hit_analytic carries the sharp finite-size value; Po_analytic in
        regime 1 is the asymptotic outage law and is only checked for the
        regime-2 row, where it is exact by construction."""
        out = tmp_path / "both.csv"
        code = main([
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "4", "--n-users", "1024",
            "--g-c-list", "100,1024", "--mode", "both", "--trials", "60",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        for row in rows:
            assert row["error"] == ""
            hit_gap = abs(float(row["hit_sim"]) - float(row["hit_analytic"]))
            assert hit_gap <= max(0.02, 3 * float(row["hit_se"]))
            assert float(row["T_sim"]) <= float(row["T_analytic"]) + 1e-12
            assert float(row["hit_sim"]) == pytest.approx(
                1.0 - float(row["Po_sim"]), abs=1e-9
            )
        regime2 = [r for r in rows if r["regime"] == "regime2"]
        assert regime2
        for row in regime2:
            assert abs(float(row["Po_sim"]) - float(row["Po_analytic"])) <= 0.02

    def test_simulate_only_mode_leaves_analytic_columns_empty(self, tmp_path):
        out = tmp_path / "sim_only.csv"
        code = main([
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "4", "--n-users", "256",
            "--g-c-list", "64,16", "--mode", "simulate", "--trials", "10",
            "--seed", "2", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert [r["g_c"] for r in rows] == ["64", "16"]  # input order kept
        for row in rows:
            assert row["T_analytic"] == "" and row["Po_analytic"] == ""
            assert row["regime"] == ""
            assert float(row["Po_sim"]) == pytest.approx(
                1.0 - float(row["hit_sim"]), abs=1e-9
            )

    def test_cluster_sizes_that_are_not_squares_run_in_both_modes(self, tmp_path):
        out = tmp_path / "any.csv"
        code = main([
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "4", "--n-users", "30",
            "--g-c-list", "3,5", "--mode", "both", "--trials", "10",
            "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert [r["g_c"] for r in rows] == ["3", "5"]
        for row in rows:
            assert row["error"] == ""
            assert row["hit_analytic"] != "" and row["hit_sim"] != ""

    def test_plateau_gate_error_row_and_no_kappa_flag(self, tmp_path):
        """A regime-1 point with q > 10*S*g_c/gamma lands in error with the
        bound in it; the bound is a constant, not a flag."""
        args = ["tradeoff", "--gamma", "1.16", "--q", "863", "--m-total", "100000",
                "--s-cache", "1", "--g-c-list", "100"]
        out = tmp_path / "gate.csv"
        assert main([*args, "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["error"] == (
            "plateau factor q=863.0 exceeds kappa*S*g_c/gamma=862.1; "
            "the regime-1 outage expression assumes q = O(S*g_c/gamma)"
        )
        flagged = tmp_path / "flagged.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([*args, "--kappa", "10", "--output", str(flagged)])
        assert excinfo.value.code == 2
        assert not flagged.exists()

    def test_per_point_error_column(self, tmp_path):
        out = tmp_path / "err.csv"
        code = main([
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "1",
            "--g-c-list", "2,100", "--mode", "analytic", "--output", str(out),
        ])
        assert code == 0
        rows = {r["g_c"]: r for r in read_csv(out)}
        assert "cluster too small" in rows["2"]["error"]
        # A failed point leaves every cell of its side empty, clamped too.
        for column in ("regime", "T_analytic", "Po_analytic", "hit_analytic", "clamped"):
            assert rows["2"][column] == "", column
        assert rows["100"]["error"] == ""

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_non_positive_cluster_size_fails_at_its_point(self, tmp_path, mode, bad):
        args = ["tradeoff", *self.MODEL_ARGS, "--s-cache", "4", "--mode", mode,
                "--trials", "5"]
        out, alone = tmp_path / "out.csv", tmp_path / "alone.csv"
        assert main([*args, f"--g-c-list={bad},100", "--output", str(out)]) == 0
        # Point i of a sweep takes the seeds from seed + i*trials onwards.
        assert main([*args, "--g-c-list", "100", "--seed", "5", "--output", str(alone)]) == 0
        failed, point = read_csv(out)
        assert failed["g_c"] == bad
        assert failed["error"] == f"cluster_size must be >= 1, got {bad}"
        assert point == read_csv(alone)[0]

    def test_n_users_below_a_cluster_size_leaves_the_other_points(self, tmp_path):
        """Each point pads the N asked for to its own whole clusters, whatever else is swept."""
        args = ["tradeoff", "--gamma", "1.11", "--q", "18", "--m-total", "5405",
                "--s-cache", "4", "--n-users", "25", "--mode", "simulate", "--trials", "20",
                "--seed", "0"]
        alone, swept = tmp_path / "alone.csv", tmp_path / "swept.csv"
        assert main([*args, "--g-c-list", "4", "--output", str(alone)]) == 0
        assert main([*args, "--g-c-list", "4,100", "--output", str(swept)]) == 0
        assert read_csv(swept)[0] == read_csv(alone)[0]

    def test_deterministic_bytes_and_thread_invariance(self, tmp_path, monkeypatch):
        """The same flags give the same bytes, and no thread setting in the
        environment is read: D2DLAB_THREADS, valid or not, changes nothing."""
        args = [
            "tradeoff", *self.MODEL_ARGS, "--s-cache", "4", "--n-users", "256",
            "--g-c-list", "16,64", "--mode", "both", "--trials", "20",
            "--seed", "11",
        ]
        monkeypatch.delenv("D2DLAB_THREADS", raising=False)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        for threads in ("3", "abc", "0"):
            monkeypatch.setenv("D2DLAB_THREADS", threads)
            out = tmp_path / f"threads_{threads}.csv"
            assert main(args + ["--output", str(out)]) == 0
            assert out.read_bytes() == out_a.read_bytes()


class TestSimulateCommand:
    def test_single_point_with_padding(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--gamma", "1.16", "--q", "22", "--m-total", "500",
            "--s-cache", "2", "--n-users", "10", "--g-c", "4",
            "--trials", "25", "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["n_users"] == 12
        assert payload["padding"] == 2
        assert payload["trials"] == 25
        assert payload["hit_prob"] + payload["outage"] == pytest.approx(1.0, abs=1e-9)
        assert 0 <= payload["good_cluster_rate"] <= 1

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_a_parameter_error(self, tmp_path, monkeypatch, capsys,
                                                message, shown):
        def out_of_memory(*args, **kw):
            raise MemoryError(message)

        # The command imports run_monte_carlo from the simulator when it runs.
        monkeypatch.setattr(simulator, "run_monte_carlo", out_of_memory)
        code = main([
            "simulate", "--gamma", "1.16", "--q", "22", "--m-total", "500",
            "--s-cache", "2", "--n-users", "16", "--g-c", "4",
            "--output", str(tmp_path / "o.json"),
        ])
        assert code == 2
        assert f"error: {shown}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


MODEL_FLAGS = ["--gamma", "1.16", "--q", "22", "--m-total", "500"]


@pytest.mark.parametrize("command, flags, seed", [
    ("fit", [], None),
    ("policy", [*MODEL_FLAGS, "--s-cache", "2", "--g-c", "4"], None),
    ("validate-mstar", [*MODEL_FLAGS, "--g-c-list", "10,50"], None),
    ("tradeoff", [*MODEL_FLAGS, "--g-c-list", "4", "--mode", "both", "--n-users", "16",
                  "--trials", "3", "--seed", "7"], 7),
    ("simulate", [*MODEL_FLAGS, "--n-users", "16", "--g-c", "4", "--trials", "3",
                  "--seed", "5"], 5),
])
def test_every_command_writes_its_manifest(tmp_path, command, flags, seed):
    out = tmp_path / "out"
    if command == "fit":
        log = tmp_path / "log.csv"
        write_region_log(log, region=3, n_accesses=2000, seed=4)
        flags = [str(log)]
    assert main([command, *flags, "--output", str(out)]) == 0
    manifest = read_json(tmp_path / "out.manifest.json")
    assert set(manifest) == {"command", "parameters", "seed", "version", "started_at",
                             "finished_at"} | ({"ingest"} if command == "fit" else set())
    assert manifest["command"] == command
    assert manifest["parameters"]["func"] == command
    assert manifest["parameters"]["output"] == str(out)
    assert manifest["seed"] == seed
    assert manifest["started_at"] <= manifest["finished_at"]


# The modules every command loads: the package, the CLI and its top-level imports.
CLI_MODULES = ["d2dlab", "d2dlab.cli", "d2dlab.network", "d2dlab.popularity"]
SWEEP_FLAGS = [*MODEL_FLAGS, "--g-c-list", "4", "--n-users", "16", "--trials", "3"]


@pytest.mark.parametrize("argv, code, runs", [
    (["fit", "log.csv"], 0, ["ingest"]),
    (["fit", "bad.csv"], 3, ["ingest"]),
    (["policy", *MODEL_FLAGS, "--g-c", "4"], 0, ["policy"]),
    (["policy", *MODEL_FLAGS, "--g-c", "1"], 2, ["policy"]),
    (["validate-mstar", *MODEL_FLAGS, "--g-c-list", "10,50"], 0, ["policy"]),
    (["tradeoff", *SWEEP_FLAGS, "--mode", "analytic"], 0, ["analysis", "policy"]),
    (["tradeoff", *SWEEP_FLAGS, "--mode", "simulate"], 0, ["policy", "simulator"]),
    (["tradeoff", *SWEEP_FLAGS, "--mode", "both"], 0, ["analysis", "policy", "simulator"]),
    (["simulate", *MODEL_FLAGS, "--n-users", "16", "--g-c", "4", "--trials", "3"], 0,
     ["policy", "simulator"]),
], ids=["fit", "fit-bad-header", "policy", "policy-bad-g_c", "validate-mstar",
        "tradeoff-analytic", "tradeoff-simulate", "tradeoff-both", "simulate"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, runs):
    """In a fresh process, main loads the CLI's own modules and those of the
    command it runs, and no other, whether the command succeeds or fails."""
    if argv[0] == "fit":
        write_region_log(tmp_path / "log.csv", region=3, n_accesses=2000, seed=4)
        (tmp_path / "bad.csv").write_text("who,what,where\n", encoding="utf-8")
    script = ("import json, sys\nfrom d2dlab.cli import main\ncode = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('d2dlab'))]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(simulator.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script, *argv, "--output", "out"], cwd=tmp_path,
                            env=env, capture_output=True, text=True, check=True)
    loaded = CLI_MODULES + [f"d2dlab.{module}" for module in runs]
    assert json.loads(result.stdout.splitlines()[-1]) == [code, sorted(loaded)]


@pytest.mark.parametrize("command, flags", [
    ("policy", ["--gamma", "1.16", "--q", "nan", "--m-total", "500", "--g-c", "4"]),
    ("tradeoff", ["--gamma", "1.16", "--q", "22", "--m-total", "500", "--g-c-list", "4",
                  "--rate-c", "inf"]),
    ("simulate", ["--gamma", "1.16", "--q", "22", "--m-total", "500", "--n-users", "16",
                  "--g-c", "4", "--rate-c", "inf"]),
    ("tradeoff", ["--gamma", "nan", "--q", "22", "--m-total", "500", "--g-c-list", "3"]),
    ("tradeoff", ["--gamma", "1.16", "--q", "inf", "--m-total", "500", "--g-c-list", "3"]),
    ("tradeoff", ["--gamma", "1.16", "--q", "22", "--m-total", "500", "--n-users", "64",
                  "--g-c-list", "16", "--mode", "simulate", "--trials", "2", "--rate-c", "nan"]),
])
def test_non_finite_flags_are_parameter_errors(tmp_path, command, flags):
    out = tmp_path / "out"
    assert main([command, *flags, "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode", ["simulate", "both"])
def test_zero_trials_is_a_parameter_error(tmp_path, capsys, mode):
    out = tmp_path / "out.csv"
    assert main(["tradeoff", "--gamma", "1.16", "--q", "22", "--m-total", "500",
                 "--s-cache", "4", "--n-users", "64", "--g-c-list", "16,64", "--mode", mode,
                 "--trials", "0", "--output", str(out)]) == 2
    assert not out.exists()
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["analytic", "simulate", "both"])
def test_negative_seed_is_a_parameter_error(tmp_path, capsys, mode):
    out = tmp_path / "out.csv"
    assert main(["tradeoff", "--gamma", "1.16", "--q", "22", "--m-total", "500",
                 "--s-cache", "4", "--n-users", "64", "--g-c-list", "16,64", "--mode", mode,
                 "--trials", "2", "--seed", "-5", "--output", str(out)]) == 2
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("n_users", ["0", "-5"])
def test_non_positive_user_count_is_a_parameter_error(tmp_path, capsys, n_users):
    out = tmp_path / "out.csv"
    assert main(["tradeoff", "--gamma", "1.16", "--q", "22", "--m-total", "500",
                 "--g-c-list", "16", "--n-users", n_users, "--output", str(out)]) == 2
    assert not out.exists()
    assert "n_users must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, message", [
    ("policy", [*MODEL_FLAGS, "--s-cache", "-1", "--g-c", "-2"],
     "s_cache must be >= 1, got -1"),
    ("validate-mstar", [*MODEL_FLAGS, "--s-cache", "-1", "--g-c-list=-2,-5"],
     "s_cache must be >= 1, got -1"),
    ("policy", [*MODEL_FLAGS, "--s-cache", "-3", "--g-c", "0"],
     "s_cache must be >= 1, got -3"),
    ("simulate", [*MODEL_FLAGS, "--n-users", "16", "--g-c", "0"],
     "cluster_size must be >= 1, got 0"),
    ("simulate", [*MODEL_FLAGS, "--n-users", "16", "--g-c", "-4"],
     "cluster_size must be >= 1, got -4"),
], ids=["policy-neg-neg", "validate-mstar-neg-neg", "policy-zero-cluster",
        "simulate-zero-cluster", "simulate-neg-cluster"])
def test_non_positive_cache_or_cluster_is_a_parameter_error(tmp_path, capsys, command, flags,
                                                            message):
    out = tmp_path / "out"
    assert main([command, *flags, "--output", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def _json_floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _json_floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_floats(item)


@pytest.fixture(scope="module")
def every_output(tmp_path_factory):
    """Run each command once; map file name to path."""
    root = tmp_path_factory.mktemp("outputs")
    log = root / "log.csv"
    write_region_log(log, region=3, n_accesses=3000, seed=4)
    runs = [
        ["fit", str(log), "--output", str(root / "fit.json")],
        ["policy", *MODEL_FLAGS, "--s-cache", "2", "--g-c", "9",
         "--output", str(root / "policy.json")],
        ["validate-mstar", *MODEL_FLAGS, "--g-c-list", "10,50,400",
         "--output", str(root / "mstar.csv")],
        ["tradeoff", *MODEL_FLAGS, "--s-cache", "2", "--g-c-list", "4,9,3,100,400",
         "--mode", "both", "--trials", "5", "--seed", "3", "--output", str(root / "curve.csv")],
        ["simulate", *MODEL_FLAGS, "--s-cache", "3", "--n-users", "30", "--g-c", "9",
         "--trials", "7", "--seed", "2", "--output", str(root / "sim.json")],
    ]
    for argv in runs:
        assert main(argv) == 0
    return {path.name: path for path in root.iterdir()}


@pytest.mark.parametrize("name", ["fit.json", "policy.json", "sim.json"])
def test_json_floats_carry_ten_significant_digits(every_output, name):
    floats = list(_json_floats(read_json(every_output[name])))
    assert floats
    assert [v for v in floats if v != float(f"{v:.10g}")] == []


@pytest.mark.parametrize("name", ["fit_ranks.csv", "mstar.csv", "curve.csv"])
def test_csv_numbers_carry_ten_significant_digits(every_output, name):
    with open(every_output[name], "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    numbers = []
    for cell in (cell for row in rows for cell in row):
        try:
            numbers.append(float(cell))
        except ValueError:
            continue
    assert numbers
    assert [v for v in numbers if v != float(f"{v:.10g}")] == []


_PARAMETERS = {"command", "func", "output"}
_MODEL_PARAMETERS = _PARAMETERS | {"gamma", "q", "m_total", "s_cache"}
_NETWORK_PARAMETERS = _MODEL_PARAMETERS | {"rate_c", "reuse_k", "trials", "seed", "n_users"}


@pytest.mark.parametrize("name, keys", [
    ("fit.json", _PARAMETERS | {"log", "region", "ranks_csv"}),
    ("policy.json", _MODEL_PARAMETERS | {"g_c"}),
    ("mstar.csv", _MODEL_PARAMETERS | {"g_c_list"}),
    ("curve.csv", _NETWORK_PARAMETERS | {"g_c_list", "mode"}),
    ("sim.json", _NETWORK_PARAMETERS | {"g_c"}),
])
def test_manifest_parameter_keys_are_pinned(every_output, name, keys):
    manifest = read_json(every_output[name + ".manifest.json"])
    assert set(manifest["parameters"]) == keys
