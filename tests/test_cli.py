import hashlib
import json

import pytest
from click.testing import CliRunner

from wealthca.cli import main
from wealthca.grid import parse
from wealthca.payoff import tps
from wealthca.templates import builtin_set, parse_templates


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, *args, seed=0, expect_exit=0):
    result = runner.invoke(
        main, ["--seed", str(seed), "--out-dir", str(tmp_path), *args])
    assert result.exit_code == expect_exit, result.output
    return result


def manifest(tmp_path, subcommand):
    return json.loads((tmp_path / f"{subcommand}_manifest.json").read_text())


class TestGa:
    def test_small_search_writes_artifacts(self, runner, tmp_path):
        invoke(runner, tmp_path, "ga", "--n", "4", "--pop", "20",
               "--iters", "500", "--target", "172", "--top", "2")
        summary = json.loads((tmp_path / "ga_summary.json").read_text())
        assert summary["best_tps"] == 172.0
        best = parse((tmp_path / "ga_best_0.txt").read_text())
        assert tps(best) == 172.0
        assert (tmp_path / "ga_best_1.txt").exists()
        assert manifest(tmp_path, "ga")["subcommand"] == "ga"

    def test_reproducible_for_a_seed(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            invoke(runner, out, "ga", "--n", "4", "--pop", "10",
                   "--iters", "50", seed=9)
        assert ((out_a / "ga_best_0.txt").read_text()
                == (out_b / "ga_best_0.txt").read_text())


    def test_manifest_records_every_option(self, runner, tmp_path):
        invoke(runner, tmp_path, "ga", "--n", "4", "--iters", "5", seed=7)
        doc = manifest(tmp_path, "ga")
        assert doc["subcommand"] == "ga"
        assert doc["seed"] == 7
        assert doc["params"] == {"n": 4, "pop": 40, "p1": 0.2, "p2": 0.05,
                                 "iters": 5, "target": None, "top": 3}


class TestEvolve:
    def test_even_grid_run(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "evolve", "--rule", "8", "--n", "6",
                     "--tlimit", "100")
        summary = json.loads(res.output)
        assert summary["stable"]
        final = parse((tmp_path / "evolve_final.txt").read_text())
        assert tps(final) == 387.0
        trace = (tmp_path / "evolve_trace.csv").read_text().splitlines()
        assert trace[0] == "t,tps,wealth,stable"
        assert trace[-1].endswith(",1")
        doc = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert doc == summary
        assert doc["stop_reason"] == "stable"
        assert doc["changes"] > 0

    def test_summary_reports_the_t_limit(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "evolve", "--rule", "36", "--n", "9",
                     "--tlimit", "3", "--select", "sequential")
        summary = json.loads(res.output)
        assert summary["stop_reason"] == "t_limit"
        assert not summary["stable"]

    def test_start_pattern_and_dumps(self, runner, tmp_path):
        start = tmp_path / "start.txt"
        start.write_text("000000\n010000\n000000\n000000\n000010\n000000\n")
        invoke(runner, tmp_path, "evolve", "--rule", "8", "--init",
               str(start), "--tlimit", "30", "--dump-every", "5")
        assert (tmp_path / "evolve_t00005.txt").exists()

    def test_needs_size_or_start(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "evolve", "--rule", "8", expect_exit=1)
        err = json.loads(res.stderr)
        assert err["error"]["stage"] == "evolve"

    def test_missing_start_file(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "evolve", "--rule", "8", "--init",
                     str(tmp_path / "nope.txt"), expect_exit=1)
        assert "not found" in json.loads(res.stderr)["error"]["message"]


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ("ga", "--n", "2"),
        ("ga", "--n", "4", "--pop", "1"),
        ("ga", "--n", "4", "--pop", "4", "--iters", "-5"),
        ("ga", "--n", "4", "--pop", "4", "--iters", "3", "--top", "-1"),
        ("ga", "--n", "4", "--target", "nan", "--iters", "5"),
        ("evolve", "--rule", "8", "--n", "2"),
        ("evolve", "--rule", "8", "--n", "6", "--pi01", "1.5"),
        ("evolve", "--rule", "8", "--n", "4", "--tlimit", "2",
         "--dump-every", "-1"),
        ("bench", "--rule", "8", "--n", "0"),
        ("bench", "--rule", "8", "--n", "4", "--runs", "0"),
        ("pipeline", "--n", "2"),
        ("pipeline", "--n", "3", "--tlimit", "-1"),
        ("pipeline", "--n", "3", "--iters", "-1"),
        ("pipeline", "--n", "3", "--target", "nan"),
        ("oracle", "--n", "6"),
        ("expected-wealth", "--step", "0"),
        ("expected-wealth", "--step", "5e-324"),
        ("expected-wealth", "--step", "1e-7"),
        ("--jobs", "0", "bench", "--rule", "8", "--n", "4", "--runs", "2",
         "--tlimit", "5"),
        ("--jobs", "-4", "bench", "--rule", "8", "--n", "4", "--runs", "2",
         "--tlimit", "5"),
        ("--seed", "-1", "ga", "--n", "4", "--iters", "5"),
        ("--seed", "-1", "evolve", "--rule", "8", "--n", "4", "--tlimit", "2"),
        ("--seed", "-1", "bench", "--rule", "8", "--n", "4", "--runs", "2",
         "--tlimit", "5"),
    ], ids=lambda args: " ".join(args))
    def test_rejected_before_any_work(self, runner, tmp_path, args):
        res = invoke(runner, tmp_path, *args, expect_exit=1)
        stage = next(a for a in args if a in main.commands)
        assert json.loads(res.stderr)["error"]["stage"] == stage
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("render", "--out", "p.ppm", "--scale", "0"),
        ("extract", "--out", "missing/t.txt"),
    ], ids=lambda args: " ".join(args))
    def test_rejected_with_an_input_pattern(self, runner, tmp_path, args):
        pat = tmp_path / "p.txt"
        pat.write_text("000\n010\n000\n")
        out = tmp_path / "out"
        out.mkdir()
        stage, flag, name, *rest = args
        res = invoke(runner, out, stage, "--in", str(pat), flag,
                     str(out / name), *rest, expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == stage
        assert list(out.iterdir()) == []

    def test_malformed_pattern_file(self, runner, tmp_path):
        pat = tmp_path / "p.txt"
        pat.write_text("010\n01\n010\n")
        out = tmp_path / "out"
        out.mkdir()
        res = invoke(runner, out, "analyze", "--in", str(pat), expect_exit=1)
        error = json.loads(res.stderr)["error"]
        assert error["stage"] == "analyze"
        assert error["message"].startswith(f"bad pattern file {pat}: ")
        assert list(out.iterdir()) == []

    def test_size_disagreeing_with_the_start_pattern(self, runner, tmp_path):
        start = tmp_path / "opt5.txt"
        start.write_text("00000\n10110\n10000\n00010\n11010\n")
        out = tmp_path / "out"
        out.mkdir()
        res = invoke(runner, out, "evolve", "--rule", "52", "--n", "9",
                     "--init", str(start), expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == "evolve"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("--n", "2"),
        ("--n", "9", "--init", "opt5.txt"),
    ], ids=lambda args: " ".join(args))
    def test_evolve_creates_no_out_dir_on_bad_input(self, runner, tmp_path,
                                                    args):
        (tmp_path / "opt5.txt").write_text(
            "00000\n10110\n10000\n00010\n11010\n")
        args = [str(tmp_path / a) if a.endswith(".txt") else a for a in args]
        out = tmp_path / "e"
        res = invoke(runner, out, "evolve", "--rule", "52", "--tlimit", "1",
                     *args, expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == "evolve"
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("oracle",),
        ("evolve", "--rule", "9", "--n", "4"),
        ("evolve", "--rule", "8", "--n", "4", "--select", "spiral"),
    ], ids=lambda args: " ".join(args))
    def test_usage_errors_keep_exit_two(self, runner, tmp_path, args):
        invoke(runner, tmp_path, *args, expect_exit=2)
        assert list(tmp_path.iterdir()) == []


class TestExtractAnalyzeConstruct:
    def test_construct_then_extract_then_analyze(self, runner, tmp_path):
        pat = tmp_path / "p.txt"
        invoke(runner, tmp_path, "construct", "--n", "7", "--out", str(pat))
        invoke(runner, tmp_path, "extract", "--in", str(pat), "--out",
               str(tmp_path / "ts.txt"))
        ts = parse_templates((tmp_path / "ts.txt").read_text())
        assert ts.values_set() <= builtin_set(52).values_set()
        res = invoke(runner, tmp_path, "analyze", "--in", str(pat))
        doc = json.loads(res.output)
        assert doc["characteristic"]["tps"] == 522.0
        assert doc["structure"]["dominoes"] == 6
        assert len(doc["singularity_positions"]) == 1

    def test_no_complete_flag(self, runner, tmp_path):
        pat = tmp_path / "p.txt"
        invoke(runner, tmp_path, "construct", "--n", "7", "--out", str(pat))
        invoke(runner, tmp_path, "extract", "--in", str(pat), "--out",
               str(tmp_path / "raw.txt"), "--no-complete")
        invoke(runner, tmp_path, "extract", "--in", str(pat), "--out",
               str(tmp_path / "full.txt"))
        raw = parse_templates((tmp_path / "raw.txt").read_text())
        full = parse_templates((tmp_path / "full.txt").read_text())
        assert raw.values_set() <= full.values_set()

    def test_readme_sequence_keeps_a_manifest_per_subcommand(
            self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default out-dir is "."
        for args in (["construct", "--n", "9", "--out", "opt9.txt"],
                     ["analyze", "--in", "opt9.txt"],
                     ["render", "--in", "opt9.txt", "--out", "opt9.ppm"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        found = {path.name: json.loads(path.read_text())["subcommand"]
                 for path in tmp_path.glob("*manifest.json")}
        assert found == {f"{name}_manifest.json": name
                         for name in ("construct", "analyze", "render")}

    def test_construct_rejects_even(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "construct", "--n", "6", expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == "construct"


class TestOracleBench:
    def test_oracle_three(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "oracle", "--n", "3")
        doc = json.loads(res.output)
        assert doc["max_tps"] == 91.0
        saved = json.loads((tmp_path / "oracle.json").read_text())
        assert len(saved["representatives"]) == doc["n_classes"]

    def test_bench_summary_and_histogram(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "bench", "--rule", "8", "--n", "6",
                     "--runs", "5", "--tlimit", "60")
        doc = json.loads(res.output)
        assert doc["n_runs"] == 5
        assert 0 <= doc["n_opt_found"] <= 5
        hist = (tmp_path / "bench_histogram.csv").read_text().splitlines()
        assert hist[0] == "wealth,count"
        assert sum(int(l.split(",")[1]) for l in hist[1:]) == 5

    def test_bench_without_a_known_optimum(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "bench", "--rule", "8", "--n", "3",
                     "--runs", "2", "--tlimit", "5")
        assert json.loads(res.output)["n_opt_found"] is None


class TestMisc:
    def test_expected_wealth_csv(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "expected-wealth", "--step", "0.25")
        lines = res.output.splitlines()
        assert lines[0] == "pi_C,W"
        assert lines[-1] == "1,1"
        assert "0.75,1.125" in lines

    def test_payoff_map(self, runner, tmp_path):
        pat = tmp_path / "p.txt"
        pat.write_text("000\n010\n000\n")
        res = invoke(runner, tmp_path, "payoff-map", "--in", str(pat))
        rows = [line.split() for line in res.output.splitlines()]
        assert rows[1][1] == "24"
        assert rows[0][0] == "8"

    def test_render(self, runner, tmp_path):
        pat = tmp_path / "p.txt"
        pat.write_text("000\n010\n000\n")
        invoke(runner, tmp_path, "render", "--in", str(pat), "--out",
               str(tmp_path / "p.ppm"), "--scale", "3")
        data = (tmp_path / "p.ppm").read_bytes()
        assert data.startswith(b"P6\n9 9\n255\n")


class TestPipeline:
    def test_even_grid_end_to_end(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "pipeline", "--n", "6",
                     "--iters", "3000", "--tlimit", "500", seed=1)
        doc = json.loads(res.output)
        assert doc["ga"]["best_tps"] == 387.0
        master = parse((tmp_path / "pipeline_master.txt").read_text())
        assert tps(master) == 387.0
        ts = parse_templates((tmp_path / "pipeline_templates.txt").read_text())
        assert ts.values_set() <= builtin_set(8).values_set()
        assert doc["ca"]["stable"]
        assert doc["ca"]["stop_reason"] == "stable"
        assert doc["ca"]["changes"] >= 0
        assert doc["ca"]["tps_final"] == 387.0
        assert doc["analysis"]["points"] == 9

    def test_builtin_rule(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "pipeline", "--n", "5", "--iters",
                     "20", "--tlimit", "3", "--rule-from", "52")
        doc = json.loads(res.output)
        ts = parse_templates((tmp_path / "pipeline_templates.txt").read_text())
        assert ts == builtin_set(52)
        assert doc["templates"]["count"] == len(builtin_set(52))
        assert manifest(tmp_path, "pipeline")["params"]["rule_from"] == "52"


P7 = "0000000\n0100100\n0000000\n0100101\n0000000\n0101000\n0000000\n"


def _key_paths(doc, prefix=""):
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
    return paths


# Each case: its arguments, the files it writes with the SHA-256 of each
# deterministic one (None: name only), and for the commands that report
# through a seeded search or CA run, the key paths of that JSON report.
# Those runs pin no bytes, so a new random stream keeps the test passing.
ARTIFACTS = [
    (("ga", "--n", "4", "--pop", "10", "--iters", "50", "--top", "2"),
     dict.fromkeys(["ga_best_0.txt", "ga_best_1.txt", "ga_summary.json",
                    "ga_manifest.json"]),
     ["best_tps", "best_wealth", "iterations_used", "seed"]),
    (("evolve", "--rule", "52", "--n", "9", "--tlimit", "1",
      "--dump-every", "1"),
     dict.fromkeys(["evolve_final.txt", "evolve_summary.json",
                    "evolve_t00000.txt", "evolve_t00001.txt",
                    "evolve_trace.csv", "evolve_manifest.json"]),
     ["changes", "stable", "stop_reason", "t_max", "tps_final", "w_max"]),
    (("evolve", "--rule", "36", "--n", "9", "--tlimit", "3", "--select",
      "sequential"),
     dict.fromkeys(["evolve_final.txt", "evolve_summary.json",
                    "evolve_trace.csv", "evolve_manifest.json"]),
     ["changes", "stable", "stop_reason", "t_max", "tps_final", "w_max"]),
    (("bench", "--rule", "8", "--n", "4", "--runs", "2", "--tlimit", "5"),
     dict.fromkeys(["bench_histogram.csv", "bench_summary.json",
                    "bench_manifest.json"]),
     ["n_opt_found", "n_runs", "n_stable", "t_avrg", "t_limit", "t_max",
      "t_min", "w_max_avrg", "w_max_max", "wealth_histogram"]),
    (("pipeline", "--n", "4", "--iters", "100", "--tlimit", "10"),
     dict.fromkeys(["pipeline_evolved.txt", "pipeline_manifest.json",
                    "pipeline_master.txt", "pipeline_summary.json",
                    "pipeline_templates.txt"]),
     ["analysis", "analysis.dominoes", "analysis.ones", "analysis.points",
      "analysis.singularities", "analysis.zero_cells", "ca", "ca.changes",
      "ca.stable", "ca.stop_reason", "ca.t_max", "ca.tps_final", "ca.w_max",
      "ga", "ga.best_tps", "ga.iterations_used", "templates",
      "templates.count", "templates.labels"]),
    (("analyze", "--in", "p7.txt"),
     {"analyze.json":
      "66d88c9aa93a9e00ab9029b7552a318529ce5000fe0ee862f70825da780e5b6a",
      "analyze_manifest.json": None}, None),
    (("oracle", "--n", "3"),
     {"oracle.json":
      "3e489d120255a8edb71d98c367e629c2a7cbc22394fcbc327e26936e86065562",
      "oracle_manifest.json": None}, None),
    (("expected-wealth", "--step", "0.1"),
     {"expected_wealth.csv":
      "08e4e847a0a3b0833e97fe7eb9073d8cafd478774b8cd9a8eaa8fa944cbff19c",
      "expected-wealth_manifest.json": None}, None),
    (("payoff-map", "--in", "p7.txt"),
     {"payoff_map.txt":
      "53e3b1f93abeab536f9849e6524ecbaefc988a89577de469513786b0265bec2b",
      "payoff-map_manifest.json": None}, None),
    (("construct", "--n", "7", "--out", "opt7.txt"),
     {"opt7.txt":
      "f7031e20541b98b5e501df352827ecc5de590c88bfe5b933856b9d72217aba73",
      "construct_manifest.json": None}, None),
    (("extract", "--in", "p7.txt", "--out", "templates.txt"),
     {"templates.txt":
      "72f0fa0f2fc994913cdbc45446528618632bf15cca3fc6ca150f023457e9bec5",
      "extract_manifest.json": None}, None),
    (("render", "--in", "p7.txt", "--out", "p.ppm", "--scale", "2", "--quad",
      "--mark-singularities"),
     {"p.ppm":
      "1cf3502cee84f59a58589fac80a6b66c36477134094435b49c9511f70f4cba01",
      "render_manifest.json": None}, None),
]


@pytest.mark.parametrize("args, files, report_keys", ARTIFACTS,
                         ids=[" ".join(case[0]) for case in ARTIFACTS])
def test_out_dir_artifacts(runner, tmp_path, args, files, report_keys):
    (tmp_path / "p7.txt").write_text(P7)
    out = tmp_path / "out"
    out.mkdir()
    # an --in file lives next to the out-dir, an --out file inside it
    where = {"--in": tmp_path, "--out": out}
    args = [str(where[flag] / arg) if flag in where else arg
            for flag, arg in zip(("", *args), args)]
    res = invoke(runner, out, *args)
    assert sorted(f.name for f in out.iterdir()) == sorted(files)
    for name, digest in files.items():
        if digest is not None:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name
    if report_keys is not None:
        (report,) = [name for name in files
                     if name.endswith(".json")
                     and not name.endswith("_manifest.json")]
        doc = json.loads((out / report).read_text())
        assert json.loads(res.output) == doc
        assert sorted(_key_paths(doc)) == report_keys
