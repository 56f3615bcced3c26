import hashlib
import json

import pytest
from click.testing import CliRunner

from wealthca.cli import _ambiguous_rings, main
from wealthca.grid import parse
from wealthca.payoff import tps
from wealthca.templates import (RULE_SIZES, builtin_set, parse_templates,
                                serialize_templates)


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

    @pytest.mark.parametrize("args", [
        ("evolve", "--n", "6", "--tlimit", "50"),
        ("bench", "--n", "4", "--runs", "3", "--tlimit", "5"),
    ], ids=lambda args: args[0])
    def test_rule_file_runs_as_its_rule(self, runner, tmp_path, args):
        rule = tmp_path / "rule8.txt"
        rule.write_text(serialize_templates(builtin_set(8)))
        by_size, by_file = tmp_path / "size", tmp_path / "file"
        invoke(runner, by_size, args[0], "--rule", "8", *args[1:])
        invoke(runner, by_file, args[0], "--rule", str(rule), *args[1:])
        for out in by_size.iterdir():
            if not out.name.endswith("_manifest.json"):
                assert out.read_bytes() == (by_file / out.name).read_bytes()
        assert manifest(by_file, args[0])["params"]["rule"] == str(rule)

    @pytest.mark.parametrize("text, reason", [
        ("", "no template"),
        ("# A\n000\n010\n000\n# B\n", "'B' has no template"),
        ("000\n01\n000\n", "3x3"),
    ], ids=["empty", "label-at-end", "bad-block"])
    def test_bad_rule_file(self, runner, tmp_path, text, reason):
        rule = tmp_path / "rule.txt"
        rule.write_text(text)
        out = tmp_path / "out"
        res = invoke(runner, out, "evolve", "--rule", str(rule), "--n", "4",
                     expect_exit=1)
        error = json.loads(res.stderr)["error"]
        assert error["stage"] == "evolve"
        assert error["message"].startswith(f"bad template file {rule}: ")
        assert reason in error["message"]
        assert not out.exists()


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ("ga", "--n", "2"),
        ("ga", "--n", "4", "--pop", "1"),
        ("ga", "--n", "4", "--pop", "4", "--iters", "-5"),
        ("ga", "--n", "4", "--pop", "4", "--iters", "3", "--top", "-1"),
        ("ga", "--n", "4", "--target", "nan", "--iters", "5"),
        ("evolve", "--rule", "8", "--n", "2"),
        ("evolve", "--rule", "9", "--n", "4"),
        ("evolve", "--rule", "53", "--n", "4"),
        ("evolve", "--rule", "8", "--n", "6", "--pi01", "1.5"),
        ("evolve", "--rule", "8", "--n", "4", "--tlimit", "2",
         "--dump-every", "-1"),
        ("bench", "--rule", "8", "--n", "0"),
        ("bench", "--rule", "8", "--n", "4", "--runs", "0"),
        ("pipeline", "--n", "2"),
        ("pipeline", "--n", "3", "--tlimit", "-1"),
        ("pipeline", "--n", "3", "--iters", "-1"),
        ("pipeline", "--n", "3", "--target", "nan"),
        ("pipeline", "--n", "3", "--rule", "missing.txt"),
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

    @pytest.mark.parametrize("out_name, args", [
        ("out", ("render", "--scale", "0")),
        ("out", ("render", "--scale", "1000000000")),
        ("p.txt/out", ("extract",)),  # no out-dir can be made under a file
    ], ids=["render --scale 0", "render --scale 1000000000",
            "extract out-dir under a file"])
    def test_rejected_with_an_input_pattern(self, runner, tmp_path, out_name,
                                            args):
        pat = tmp_path / "p.txt"
        pat.write_text("000\n010\n000\n")
        res = invoke(runner, tmp_path / out_name, args[0], "--in", str(pat),
                     *args[1:], expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == args[0]
        assert [f.name for f in tmp_path.iterdir()] == ["p.txt"]

    @pytest.mark.parametrize("command", ["evolve", "bench", "pipeline"])
    def test_unknown_rule_names_the_choices(self, runner, tmp_path, command):
        res = invoke(runner, tmp_path, command, "--rule", "53", "--n", "4",
                     expect_exit=1)
        message = json.loads(res.stderr)["error"]["message"]
        assert message == ("--rule 53: neither a built-in rule (8, 36, 52) "
                           "nor a template file")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 9.31 GiB"),
         "Unable to allocate 9.31 GiB"),
        (MemoryError(), "MemoryError"),
    ])
    def test_out_of_memory_keeps_the_error_contract(
            self, runner, tmp_path, monkeypatch, exc, message):
        # an oversize construct --n fails inside numpy; never allocate here
        def fail(n):
            raise exc
        monkeypatch.setattr("wealthca.cli.construct_optimal_odd", fail)
        res = invoke(runner, tmp_path, "construct", "--n", "5",
                     expect_exit=1)
        assert json.loads(res.stderr) == {"error": {"stage": "construct",
                                                    "message": message}}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("oracle",),
        ("evolve", "--rule", "8", "--n", "4", "--select", "spiral"),
    ], ids=lambda args: " ".join(args))
    def test_usage_errors_keep_exit_two(self, runner, tmp_path, args):
        invoke(runner, tmp_path, *args, expect_exit=2)
        assert list(tmp_path.iterdir()) == []


class TestExtractAnalyzeConstruct:
    def test_construct_then_extract_then_analyze(self, runner, tmp_path):
        pat = tmp_path / "construct.txt"
        invoke(runner, tmp_path, "construct", "--n", "7")
        res = invoke(runner, tmp_path, "extract", "--in", str(pat))
        ts = parse_templates((tmp_path / "extract_templates.txt").read_text())
        assert ts.values_set() <= builtin_set(52).values_set()
        assert json.loads(res.output) == {
            "count": len(ts), "labels": ts.labels(), "ambiguous_rings": 0}
        res = invoke(runner, tmp_path, "analyze", "--in", str(pat))
        doc = json.loads(res.output)
        assert doc["characteristic"]["tps"] == 522.0
        assert doc["structure"]["dominoes"] == 6
        assert len(doc["singularity_positions"]) == 1

    def test_no_complete_flag(self, runner, tmp_path):
        invoke(runner, tmp_path, "construct", "--n", "7")
        pat = str(tmp_path / "construct.txt")
        raw, full = tmp_path / "raw", tmp_path / "full"
        invoke(runner, raw, "extract", "--in", pat, "--no-complete")
        invoke(runner, full, "extract", "--in", pat)
        raw, full = (parse_templates((out / "extract_templates.txt")
                                     .read_text()) for out in (raw, full))
        assert raw.values_set() <= full.values_set()

    @pytest.mark.parametrize("size", RULE_SIZES)
    def test_builtin_rules_have_no_ambiguous_ring(self, size):
        assert _ambiguous_rings(builtin_set(size)) == 0

    def test_ring_with_both_centers_is_ambiguous(self, runner, tmp_path):
        # the 1 and the 0 at (2, 2) both have the all-zero ring
        pat = tmp_path / "p.txt"
        pat.write_text("10000\n" + "00000\n" * 4)
        res = invoke(runner, tmp_path, "extract", "--in", str(pat),
                     "--no-complete")
        assert json.loads(res.output)["ambiguous_rings"] >= 1

    def test_readme_sequence_keeps_a_manifest_per_subcommand(
            self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for args in (["construct", "--n", "9"],
                     ["analyze", "--in", "opt9/construct.txt"],
                     ["render", "--in", "opt9/construct.txt", "--scale", "8",
                      "--quad", "--mark-singularities"]):
            res = runner.invoke(main, ["--out-dir", "opt9", *args])
            assert res.exit_code == 0, res.output
        found = {path.name: json.loads(path.read_text())["subcommand"]
                 for path in (tmp_path / "opt9").glob("*manifest.json")}
        assert found == {f"{name}_manifest.json": name
                         for name in ("construct", "analyze", "render")}
        assert [p.name for p in tmp_path.iterdir()] == ["opt9"]

    def test_construct_rejects_even(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "construct", "--n", "6", expect_exit=1)
        assert json.loads(res.stderr)["error"]["stage"] == "construct"


class TestOracleBench:
    def test_oracle_three(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "oracle", "--n", "3")
        doc = json.loads(res.output)
        assert doc["max_tps"] == 91.0
        assert json.loads((tmp_path / "oracle.json").read_text()) == doc

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
        res = invoke(runner, tmp_path, "render", "--in", str(pat),
                     "--scale", "3")
        assert res.output == f"{tmp_path / 'render.ppm'}\n"
        data = (tmp_path / "render.ppm").read_bytes()
        assert data.startswith(b"P6\n9 9\n255\n")


class TestPipeline:
    def test_even_grid_end_to_end(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "pipeline", "--n", "6",
                     "--iters", "3000", "--tlimit", "500", seed=1)
        ga, extract, evolve, analyze = map(json.loads,
                                           res.output.splitlines())
        assert ga["best_tps"] == 387.0
        master = parse((tmp_path / "ga_best_0.txt").read_text())
        assert tps(master) == 387.0
        ts = parse_templates((tmp_path / "extract_templates.txt").read_text())
        assert ts.values_set() <= builtin_set(8).values_set()
        assert extract["ambiguous_rings"] == 0
        assert evolve["stable"]
        assert evolve["stop_reason"] == "stable"
        assert evolve["changes"] >= 0
        assert evolve["tps_final"] == 387.0
        assert analyze["structure"]["points"] == 9

    def test_steps_by_hand_give_the_same_files(self, runner, tmp_path):
        whole, steps = tmp_path / "whole", tmp_path / "steps"
        invoke(runner, whole, "pipeline", "--n", "5", "--iters", "3000",
               "--tlimit", "300", seed=2)
        invoke(runner, steps, "ga", "--n", "5", "--iters", "3000",
               "--target", "265", "--top", "1", seed=2)
        invoke(runner, steps, "extract", "--in", str(steps / "ga_best_0.txt"))
        invoke(runner, steps, "evolve", "--rule",
               str(steps / "extract_templates.txt"), "--n", "5",
               "--tlimit", "300", seed=2)
        for name in ("ga_best_0.txt", "extract_templates.txt",
                     "evolve_final.txt", "evolve_trace.csv"):
            assert (whole / name).read_bytes() == (steps / name).read_bytes()

    def test_builtin_rule(self, runner, tmp_path):
        res = invoke(runner, tmp_path, "pipeline", "--n", "5", "--iters",
                     "20", "--tlimit", "3", "--rule", "52")
        extract = json.loads(res.output.splitlines()[1])
        ts = parse_templates((tmp_path / "extract_templates.txt").read_text())
        assert extract["count"] == len(ts)
        params = manifest(tmp_path, "pipeline")["params"]
        assert params["rule"] == "52"
        by_hand = tmp_path / "by-hand"
        invoke(runner, by_hand, "evolve", "--rule", "52", "--n", "5",
               "--tlimit", "3")
        assert ((by_hand / "evolve_final.txt").read_bytes()
                == (tmp_path / "evolve_final.txt").read_bytes())


P7 = "0000000\n0100100\n0000000\n0100101\n0000000\n0101000\n0000000\n"


def _key_paths(doc, prefix=""):
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
    return paths


_GA_KEYS = ["best_tps", "best_wealth", "iterations_used", "seed"]
_EVOLVE_KEYS = ["changes", "stable", "stop_reason", "t_max", "tps_final",
                "w_max"]
_EXTRACT_KEYS = ["ambiguous_rings", "count", "labels"]

# Each case: its arguments, the files it writes with the SHA-256 of each
# deterministic one (None: name only), and for the commands that report
# through a seeded search or CA run, the key paths of each JSON report, in
# the order the reports are echoed. Those runs pin no bytes, so a new random
# stream keeps the test passing.
ARTIFACTS = [
    (("ga", "--n", "4", "--pop", "10", "--iters", "50", "--top", "2"),
     dict.fromkeys(["ga_best_0.txt", "ga_best_1.txt", "ga_summary.json",
                    "ga_manifest.json"]),
     {"ga_summary.json": _GA_KEYS}),
    (("evolve", "--rule", "52", "--n", "9", "--tlimit", "1",
      "--dump-every", "1"),
     dict.fromkeys(["evolve_final.txt", "evolve_summary.json",
                    "evolve_t00000.txt", "evolve_t00001.txt",
                    "evolve_trace.csv", "evolve_manifest.json"]),
     {"evolve_summary.json": _EVOLVE_KEYS}),
    (("evolve", "--rule", "36", "--n", "9", "--tlimit", "3", "--select",
      "sequential"),
     dict.fromkeys(["evolve_final.txt", "evolve_summary.json",
                    "evolve_trace.csv", "evolve_manifest.json"]),
     {"evolve_summary.json": _EVOLVE_KEYS}),
    (("bench", "--rule", "8", "--n", "4", "--runs", "2", "--tlimit", "5"),
     dict.fromkeys(["bench_histogram.csv", "bench_summary.json",
                    "bench_manifest.json"]),
     {"bench_summary.json": [
         "n_opt_found", "n_runs", "n_stable", "t_avrg", "t_limit", "t_max",
         "t_min", "w_max_avrg", "w_max_max", "wealth_histogram"]}),
    (("pipeline", "--n", "4", "--iters", "100", "--tlimit", "10"),
     dict.fromkeys(["ga_best_0.txt", "ga_summary.json",
                    "extract_templates.txt", "extract_summary.json",
                    "evolve_final.txt", "evolve_trace.csv",
                    "evolve_summary.json", "analyze.json",
                    "pipeline_manifest.json"]),
     {"ga_summary.json": _GA_KEYS, "extract_summary.json": _EXTRACT_KEYS,
      "evolve_summary.json": _EVOLVE_KEYS,
      "analyze.json": [
          "characteristic", "characteristic.area", "characteristic.density",
          "characteristic.n", "characteristic.ones", "characteristic.tps",
          "characteristic.wealth", "singularity_positions", "structure",
          "structure.dominoes", "structure.ones", "structure.points",
          "structure.singularities", "structure.zero_cells"]}),
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
    (("construct", "--n", "7"),
     {"construct.txt":
      "f7031e20541b98b5e501df352827ecc5de590c88bfe5b933856b9d72217aba73",
      "construct_manifest.json": None}, None),
    (("extract", "--in", "p7.txt"),
     {"extract_templates.txt":
      "72f0fa0f2fc994913cdbc45446528618632bf15cca3fc6ca150f023457e9bec5",
      "extract_summary.json": None, "extract_manifest.json": None},
     {"extract_summary.json": _EXTRACT_KEYS}),
    (("render", "--in", "p7.txt", "--scale", "2", "--quad",
      "--mark-singularities"),
     {"render.ppm":
      "1cf3502cee84f59a58589fac80a6b66c36477134094435b49c9511f70f4cba01",
      "render_manifest.json": None}, None),
]


@pytest.mark.parametrize("args, files, reports", ARTIFACTS,
                         ids=[" ".join(case[0]) for case in ARTIFACTS])
def test_out_dir_artifacts(runner, tmp_path, args, files, reports):
    (tmp_path / "p7.txt").write_text(P7)
    out = tmp_path / "out"
    out.mkdir()
    # an --in file lives next to the out-dir
    args = [str(tmp_path / arg) if flag == "--in" else arg
            for flag, arg in zip(("", *args), args)]
    res = invoke(runner, out, *args)
    assert sorted(f.name for f in out.iterdir()) == sorted(files)
    for name, digest in files.items():
        if digest is not None:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name
    if reports is not None:
        docs = [json.loads((out / name).read_text()) for name in reports]
        assert list(map(json.loads, res.output.splitlines())) == docs
        assert [sorted(_key_paths(doc)) for doc in docs] \
            == list(reports.values())
