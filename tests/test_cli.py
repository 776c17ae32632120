import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import dynseg
from dynseg import cli, search, static_cluster
from dynseg.cli import main
from dynseg.dyngraph import (
    Partition,
    ScdOutput,
    dump_output,
    load_dynamic_network,
    load_output,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(text):
    rows = {}
    for line in text.splitlines():
        if "\t" in line:
            key, _, value = line.partition("\t")
            rows.setdefault(key, []).append(value)
    return rows


@pytest.fixture
def scg_files(tmp_path, capsys):
    net = tmp_path / "net.txt"
    truth = tmp_path / "truth.txt"
    code, _, _ = run(
        capsys, "generate", "--output", str(net), "--truth", str(truth),
        "--k", "8", "--l", "2", "--n", "24", "--cmin", "4",
        "--cin", "12", "--cout", "2", "--seed", "5",
    )
    assert code == 0
    return net, truth


class TestGenerate:
    def test_writes_both_files_reproducibly(self, tmp_path, capsys):
        args = ["generate", "--output", str(tmp_path / "a.txt"),
                "--truth", str(tmp_path / "t.txt"), "--seed", "3",
                "--k", "6", "--l", "2", "--n", "20", "--cmin", "4",
                "--cin", "10", "--cout", "2"]
        assert run(capsys, *args)[0] == 0
        first_net = (tmp_path / "a.txt").read_bytes()
        first_truth = (tmp_path / "t.txt").read_bytes()
        assert run(capsys, *args)[0] == 0
        assert (tmp_path / "a.txt").read_bytes() == first_net
        assert (tmp_path / "t.txt").read_bytes() == first_truth
        assert first_net.startswith(b"# k=6 l=2 n=20")

    def test_l_zero_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--output", str(tmp_path / "a"), "--truth",
                  str(tmp_path / "t"), "--l", "0"])
        assert exc.value.code == 2

    def test_default_flags_emit_files(self, tmp_path, capsys):
        # defaults: k=16, l=4, n=50, c_min=5, c_in=20, c_out=4
        net = tmp_path / "d.txt"
        truth = tmp_path / "dt.txt"
        code, _, _ = run(capsys, "generate", "--output", str(net),
                         "--truth", str(truth))
        assert code == 0
        header = net.read_text().splitlines()[0]
        assert header == "# k=16 l=4 n=50 c_min=5 c_in=20 c_out=4 seed=0"
        assert truth.read_text().count("segment ") == 4

    def test_seed_changes_output(self, tmp_path, capsys):
        base = ["generate", "--output", str(tmp_path / "a.txt"),
                "--truth", str(tmp_path / "t.txt"),
                "--k", "6", "--l", "2", "--n", "20", "--cmin", "4",
                "--cin", "10", "--cout", "2"]
        run(capsys, *base, "--seed", "1")
        one = (tmp_path / "a.txt").read_bytes()
        run(capsys, *base, "--seed", "2")
        assert (tmp_path / "a.txt").read_bytes() != one


class TestDetect:
    def test_single_snapshot(self, tmp_path, capsys):
        net = tmp_path / "one.txt"
        net.write_text("0 a b\n0 b c\n")
        out = tmp_path / "sol.txt"
        code, stdout, _ = run(capsys, "detect", "--input", str(net),
                              "--output", str(out))
        assert code == 0
        rows = kv(stdout)
        assert rows["chosen_l"] == ["1"]
        assert out.read_text().startswith("segment 0 0\n")

    def test_segments_out_of_range(self, tmp_path, capsys):
        net = tmp_path / "two.txt"
        net.write_text("0 a b\n1 a b\n")
        code, _, err = run(capsys, "detect", "--input", str(net), "--segments", "3")
        assert code == 1
        assert "out of range" in err

    def test_segments_checked_before_search(self, tmp_path, capsys, monkeypatch):
        def no_search(*_):
            raise AssertionError("the table must not be built")

        monkeypatch.setattr(cli, "build_table", no_search)
        net = tmp_path / "two.txt"
        net.write_text("0 a b\n1 a b\n")
        for bad in ("0", "3", "99"):
            code, _, err = run(capsys, "detect", "--input", str(net), "--segments", bad)
            assert code == 1
            assert f"--segments {bad} out of range [1, 2]" in err

    def test_undefined_selection_criterion_checked_before_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # no snapshot holds two nodes, so BIC, which picks the segment count
        # for a fit objective, is undefined
        def no_search(*_):
            raise AssertionError("the table must not be built")

        monkeypatch.setattr(cli, "build_table", no_search)
        net = tmp_path / "lonely.txt"
        net.write_text("0 a\n1 b\n")
        for objective in ("modularity", "conductance"):
            code, _, err = run(capsys, "detect", "--input", str(net), "--objective", objective)
            assert code == 1
            assert "BIC undefined" in err and "--segments" in err

    def test_fit_objective_with_segments_needs_no_criterion(self, tmp_path, capsys):
        net = tmp_path / "lonely.txt"
        net.write_text("0 a\n1 b\n")
        out = tmp_path / "sol.txt"
        code, stdout, _ = run(capsys, "detect", "--input", str(net), "--objective",
                              "modularity", "--segments", "1", "--output", str(out))
        assert code == 0
        assert kv(stdout)["chosen_l"] == ["1"]
        assert out.read_text() == "segment 0 1\ncluster 0: a\ncluster 1: b\n"

    def test_invalid_output_is_not_written(self, tmp_path, capsys, monkeypatch):
        # the chosen partition misses node c of the only snapshot
        bad = ScdOutput(((0, 0),), (Partition({"a": 0, "b": 0}),))
        table = SimpleNamespace(
            consensus_calls=1, entries={},
            entry=lambda l: SimpleNamespace(output=bad), select=lambda criterion: 1,
        )
        monkeypatch.setattr(cli, "build_table", lambda network, spec, store: table)
        net = tmp_path / "one.txt"
        net.write_text("0 a b\n0 b c\n")
        out = tmp_path / "sol.txt"
        code, stdout, err = run(capsys, "detect", "--input", str(net), "--output", str(out))
        assert code == 1
        assert "domain does not match" in err
        assert stdout == ""
        assert not out.exists()

    def test_walktrap_node_limit_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(static_cluster, "WALKTRAP_MAX_NODES", 3)
        net = tmp_path / "net.txt"
        net.write_text("0 a b\n0 b c\n0 c d\n1 a b\n")
        out = tmp_path / "sol.txt"
        code, stdout, err = run(capsys, "detect", "--input", str(net), "--output", str(out))
        assert code == 1
        assert "walktrap: 4 nodes with edges exceed the limit of 3" in err
        assert stdout == ""
        assert not out.exists()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "detect", "--input", str(tmp_path / "nope"))
        assert code == 1

    def test_parse_error_exit_one(self, tmp_path, capsys):
        net = tmp_path / "bad.txt"
        net.write_text("0 a a\n")
        code, _, err = run(capsys, "detect", "--input", str(net))
        assert code == 1
        assert "self-loop" in err

    def test_oversized_exhaustive_table_exit_one(self, tmp_path, capsys):
        # k = 1,000,001 snapshots: the store of its (k^2+k)/2 segments is
        # refused before a segment list is built
        net = tmp_path / "far.txt"
        net.write_text("0 a b\n1000000 a b\n")
        out = tmp_path / "out.txt"
        started = time.perf_counter()
        code, stdout, err = run(capsys, "detect", "--input", str(net), "--search", "exhaustive",
                                "--output", str(out))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert err.startswith("error: exhaustive search: 500001500001 segments over 2 nodes")
        assert err.endswith("(EXHAUSTIVE_MAX_STORE_BYTES)\n") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_huge_time_index_exit_one(self, tmp_path, capsys):
        net = tmp_path / "huge.txt"
        net.write_text("1000000000 a b\n")
        code, _, err = run(capsys, "detect", "--input", str(net))
        assert code == 1
        assert "line 1: time index 1000000000 above" in err

    def test_scg_one_segment_detected(self, scg_files, tmp_path, capsys):
        net, _ = scg_files
        single = tmp_path / "single.txt"
        code, _, _ = run(
            capsys, "generate", "--output", str(single),
            "--truth", str(tmp_path / "st.txt"),
            "--k", "6", "--l", "1", "--n", "24", "--cmin", "4",
            "--cin", "12", "--cout", "2", "--seed", "9",
        )
        assert code == 0
        code, stdout, _ = run(capsys, "detect", "--input", str(single), "--seed", "2")
        assert code == 0
        assert kv(stdout)["chosen_l"] == ["1"]

    def test_output_deterministic(self, scg_files, tmp_path, capsys):
        net, _ = scg_files
        out1 = tmp_path / "o1.txt"
        out2 = tmp_path / "o2.txt"
        args = ["detect", "--input", str(net), "--seed", "7"]
        assert run(capsys, *args, "--output", str(out1))[0] == 0
        assert run(capsys, *args, "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cscd_constraint_respected(self, scg_files, tmp_path, capsys):
        net, _ = scg_files
        out = tmp_path / "o.txt"
        code, stdout, _ = run(capsys, "detect", "--input", str(net),
                              "--segments", "3", "--output", str(out))
        assert code == 0
        assert kv(stdout)["chosen_l"] == ["3"]
        assert out.read_text().count("segment ") == 3

    @pytest.mark.parametrize("search", ["exhaustive", "topdown", "bottomup"])
    def test_empty_snapshot(self, tmp_path, capsys, search):
        # time index 1 is skipped, so snapshot 1 is empty
        net = tmp_path / "gap.txt"
        net.write_text("0 a b\n0 b c\n2 a b\n3 a c\n")
        network = load_dynamic_network(net.read_text())
        out = tmp_path / "sol.txt"
        code, _, _ = run(capsys, "detect", "--input", str(net),
                         "--search", search, "--output", str(out))
        assert code == 0
        code, _, _ = run(capsys, "detect", "--input", str(net), "--search", search,
                         "--segments", "4", "--output", str(out))
        assert code == 0
        text = out.read_text()
        assert "\nsegment 1 1\nsegment 2 2\n" in text
        solution = load_output(text)
        solution.validate_for(network)
        assert dump_output(solution) == text

    @pytest.mark.parametrize("flags", [
        ("--objective", "modularity"),
        ("--objective", "aic"),
        ("--consensus", "avg-louvain"),
        ("--consensus", "cmatrix-louvain"),
        ("--consensus", "sum-lpa"),
        ("--search", "exhaustive"),
        ("--search", "topdown"),
    ])
    def test_method_flags_run(self, scg_files, capsys, flags):
        net, _ = scg_files
        code, stdout, _ = run(capsys, "detect", "--input", str(net), *flags)
        assert code == 0
        assert "chosen_l" in kv(stdout)

    @pytest.mark.parametrize("consensus", list(dynseg.Consensus), ids=lambda c: c.value)
    def test_consensus_name_solves_as_its_member(self, scg_files, tmp_path, capsys, consensus):
        net, _ = scg_files
        out = tmp_path / "sol.txt"
        code, stdout, _ = run(capsys, "detect", "--input", str(net), "--consensus",
                              consensus.value, "--seed", "4", "--output", str(out))
        assert code == 0
        assert kv(stdout)["consensus"] == [consensus.value]
        network = load_dynamic_network(net.read_text())
        expected = dynseg.solve_scd(network, dynseg.SearchSpec(consensus=consensus, seed=4))
        assert out.read_text() == dump_output(expected)


@pytest.fixture
def pool_sizes(monkeypatch, set_cpus):
    """Two CPUs, a pool for any amount of work, and a process pool that
    records the ``max_workers`` of every pool started."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search, "MIN_PARALLEL_EDGE_VISITS", 0)
    set_cpus(2)
    return sizes


class TestParallelExhaustive:
    """Exhaustive search fills its segment store in worker processes."""

    @pytest.mark.parametrize("objective", ["bic", "modularity"])
    @pytest.mark.parametrize("consensus", [
        "sum-walktrap", "sum-lpa", "sum-louvain", "avg-louvain", "cmatrix-louvain",
    ])
    def test_jobs_do_not_change_outputs(self, scg_files, tmp_path, capsys, pool_sizes,
                                        objective, consensus):
        net, truth = scg_files  # k = 8
        flags = ["--input", str(net), "--search", "exhaustive", "--objective", objective,
                 "--consensus", consensus, "--seed", "7"]
        written = {}
        for jobs in ("1", "2"):
            sol, ranks = tmp_path / f"sol{jobs}.txt", tmp_path / f"rank{jobs}.txt"
            code, stdout, _ = run(capsys, "detect", *flags, "--jobs", jobs,
                                  "--output", str(sol))
            assert code == 0
            assert kv(stdout)["consensus_calls"] == ["36"]  # (k^2 + k) / 2
            code, _, _ = run(capsys, "rank", *flags, "--truth", str(truth),
                             "--jobs", jobs, "--output", str(ranks))
            assert code == 0
            written[jobs] = (sol.read_bytes(), ranks.read_bytes())
        assert written["2"] == written["1"]
        assert pool_sizes == [2, 2]  # one pool per --jobs 2 run, none for --jobs 1

    @pytest.mark.parametrize("search", ["topdown", "bottomup"])
    def test_greedy_searches_start_no_pool(self, scg_files, capsys, pool_sizes, search):
        net, _ = scg_files
        assert run(capsys, "detect", "--input", str(net), "--search", search,
                   "--jobs", "2")[0] == 0
        assert pool_sizes == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the lowered limit")
    def test_worker_error_exits_one(self, scg_files, tmp_path, capsys, monkeypatch,
                                    pool_sizes):
        monkeypatch.setattr(static_cluster, "WALKTRAP_MAX_NODES", 3)
        net, _ = scg_files
        out = tmp_path / "sol.txt"
        code, stdout, err = run(capsys, "detect", "--input", str(net), "--search",
                                "exhaustive", "--jobs", "2", "--output", str(out))
        assert code == 1
        assert "exceed the limit of 3 (WALKTRAP_MAX_NODES)" in err
        assert stdout == "" and not out.exists()
        assert pool_sizes == [2]

    @pytest.mark.parametrize("command", ["detect", "rank", "benchmark"])
    def test_jobs_defaults_to_the_usable_cpus(self, monkeypatch, set_cpus, command):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        set_cpus(3)  # a cpuset or taskset narrower than the machine
        args = cli.build_parser().parse_args(
            [command] + (["--input", "net.txt"] if command != "benchmark" else [])
        )
        assert args.jobs == 3
        set_cpus(None)
        assert cli.build_parser().parse_args(["benchmark"]).jobs == 1

    @pytest.mark.parametrize("command", ["detect", "rank"])
    def test_jobs_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", "net.txt", "--jobs", "0"])
        assert exc.value.code == 2


class TestEvaluate:
    def test_truth_against_itself_is_one(self, scg_files, capsys):
        _, truth = scg_files
        code, stdout, _ = run(
            capsys, "evaluate", "--pred", str(truth), "--truth", str(truth),
            "--metrics", "nmi,ami,ari,vm",
        )
        assert code == 0
        rows = kv(stdout)
        for metric in ("nmi", "ami", "ari", "vm"):
            for axis in ("sim_t", "sim_p", "sim_b"):
                assert rows[f"{axis}_{metric}"] == ["1.000000"]

    def test_single_metric_rows(self, scg_files, capsys):
        _, truth = scg_files
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(truth),
                              "--truth", str(truth))
        rows = kv(stdout)
        assert set(rows) == {"sim_t_nmi", "sim_p_nmi", "sim_b_nmi"}
        # an empty item in the list is skipped
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(truth),
                              "--truth", str(truth), "--metrics", "nmi,,ari")
        assert code == 0
        assert set(kv(stdout)) == {f"{axis}_{m}" for axis in ("sim_t", "sim_p", "sim_b")
                                   for m in ("nmi", "ari")}

    def test_k_mismatch(self, scg_files, tmp_path, capsys):
        _, truth = scg_files
        short = tmp_path / "short.txt"
        short.write_text("segment 0 0\ncluster 0: a b\n")
        code, _, err = run(capsys, "evaluate", "--pred", str(short),
                           "--truth", str(truth))
        assert code == 1
        assert "k=" in err

    def test_network_k_mismatch(self, scg_files, tmp_path, capsys):
        _, truth = scg_files  # k = 8
        net = tmp_path / "k6.txt"
        net.write_text("".join(f"{t} a b\n" for t in range(6)))
        code, stdout, err = run(capsys, "evaluate", "--pred", str(truth),
                                "--truth", str(truth), "--input", str(net))
        assert code == 1
        assert "k=8" in err and "k=6" in err
        assert "Traceback" not in err and stdout == ""

    def test_partition_missing_snapshot_node(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        net.write_text("0 a b\n1 a c\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("segment 0 1\ncluster 0: a b\n")
        code, stdout, err = run(capsys, "evaluate", "--pred", str(sol),
                                "--truth", str(sol), "--input", str(net))
        assert code == 1
        assert "segment [0,1]" in err and "misses node 'c'" in err
        assert "Traceback" not in err and stdout == ""

    def test_partition_superset_accepted(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        net.write_text("0 a b\n1 a b\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("segment 0 1\ncluster 0: a b\ncluster 1: c\n")
        code, stdout, _ = run(capsys, "evaluate", "--pred", str(sol),
                              "--truth", str(sol), "--input", str(net))
        assert code == 0
        assert kv(stdout)["sim_b_nmi"] == ["1.000000"]

    def test_segment_end_above_bound(self, tmp_path, capsys):
        # without --input, k comes from the files alone; a huge one once
        # reached sim_t and failed to allocate its time axis
        sol = tmp_path / "sol.txt"
        sol.write_text("segment 0 999999999\ncluster 0: a b\n")
        code, stdout, err = run(capsys, "evaluate", "--pred", str(sol), "--truth", str(sol))
        assert code == 1
        assert err == "error: line 1: segment end 999999999 above 1000000\n"
        assert stdout == ""

    def test_unknown_metric(self, scg_files, capsys):
        _, truth = scg_files
        code, _, err = run(capsys, "evaluate", "--pred", str(truth),
                           "--truth", str(truth), "--metrics", "f1")
        assert code == 1
        assert err == "error: unknown metric 'f1' (use nmi,ami,ari,vm)\n"
        code, stdout, err = run(capsys, "evaluate", "--pred", str(truth),
                                "--truth", str(truth), "--metrics", ",")
        assert code == 1
        assert err == "error: no metrics requested\n" and stdout == ""


class TestRank:
    def test_k2_single_row(self, tmp_path, capsys):
        net = tmp_path / "n.txt"
        net.write_text("0 a b\n0 c d\n1 a c\n1 b d\n")
        code, stdout, _ = run(capsys, "rank", "--input", str(net))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split("\t")[0] == "1"

    def test_single_snapshot_writes_empty_report(self, tmp_path, capsys):
        # k=1 has no candidate time point, so the report has no line
        net = tmp_path / "n.txt"
        net.write_text("0 a b\n0 b c\n")
        out = tmp_path / "rank.txt"
        code, stdout, _ = run(capsys, "rank", "--input", str(net), "--output", str(out))
        assert code == 0
        assert stdout == ""
        assert out.read_bytes() == b""

    def test_truth_appends_classification(self, scg_files, capsys):
        net, truth = scg_files
        code, stdout, _ = run(capsys, "rank", "--input", str(net),
                              "--truth", str(truth))
        assert code == 0
        rows = kv(stdout)
        assert "aupr" in rows and "max_f" in rows and "auroc" in rows

    def test_truth_k_mismatch(self, scg_files, tmp_path, capsys, monkeypatch):
        net, _ = scg_files  # k = 8
        truth = tmp_path / "k6.txt"
        truth.write_text("segment 0 2\ncluster 0: a\nsegment 3 5\ncluster 0: a\n")

        def no_table(*args):
            raise AssertionError("table built before the truth was checked")

        monkeypatch.setattr(cli, "build_table", no_table)
        code, stdout, err = run(capsys, "rank", "--input", str(net), "--truth", str(truth))
        assert code == 1
        assert "truth covers k=6, network has k=8" in err
        assert stdout == ""

    def test_truth_without_change_point(self, scg_files, tmp_path, capsys, monkeypatch):
        net, _ = scg_files  # k = 8
        truth = tmp_path / "one_segment.txt"
        truth.write_text("segment 0 7\ncluster 0: a\n")

        def no_table(*args):
            raise AssertionError("table built before the truth was checked")

        monkeypatch.setattr(cli, "build_table", no_table)
        code, stdout, err = run(capsys, "rank", "--input", str(net), "--truth", str(truth))
        assert code == 1
        assert (
            "classification needs at least one true change point and one true "
            "non-change point" in err
        )
        assert stdout == ""

    def test_deterministic(self, scg_files, capsys):
        net, _ = scg_files
        _, out1, _ = run(capsys, "rank", "--input", str(net), "--seed", "3")
        _, out2, _ = run(capsys, "rank", "--input", str(net), "--seed", "3")
        assert out1 == out2


class TestBenchmark:
    BASE = ["benchmark", "--k", "5", "--n", "20", "--cmin", "4",
            "--cin", "12", "--cout", "2", "--l-values", "1,2",
            "--instances", "2", "--seed", "11"]

    def test_summary_rows(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code, stdout, _ = run(capsys, *self.BASE, "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("config\tl\t")
        assert len([l for l in lines if l.startswith("bic:")]) == 2

    def test_identical_configs_p_value_one(self, capsys):
        cfg = "bic:sum-walktrap:bottomup"
        code, stdout, _ = run(capsys, *self.BASE, "--compare", f"{cfg},{cfg}")
        assert code == 0
        ttests = [l for l in stdout.splitlines() if l.startswith("ttest_sim_b")]
        assert len(ttests) == 2
        assert all("p=1" in t for t in ttests)

    def test_single_instance_skips_ttest(self, capsys):
        args = [a for a in self.BASE]
        args[args.index("--instances") + 1] = "1"
        cfg = "bic:sum-walktrap:bottomup"
        code, stdout, _ = run(capsys, *args, "--compare",
                              f"{cfg},aic:sum-louvain:bottomup")
        assert code == 0
        assert "skipped" in stdout

    def test_bad_compare_token(self, capsys):
        good = "bic:sum-walktrap:bottomup"
        for bad in ("bic:sum-walktrap", "bic:sum-lpa:bottomup:x", "mdl:sum-lpa:bottomup",
                    "bic:sum-stabilized-louvain:bottomup", "bic:sum-lpa:random"):
            code, stdout, err = run(capsys, *self.BASE, "--compare", f"{good},{bad}")
            assert code == 1
            assert err == f"error: bad configuration {bad!r}; use objective:consensus:search\n"
            assert stdout == ""

    def test_l_values_not_integers(self, capsys):
        code, stdout, err = run(capsys, *self.BASE, "--l-values", "1,x")
        assert code == 1
        assert err == "error: --l-values must be comma-separated integers, got 'x'\n"
        assert stdout == ""

    def test_concurrent_run_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert run(capsys, *self.BASE, "--jobs", "1", "--output", str(out1))[0] == 0
        assert run(capsys, *self.BASE, "--jobs", "3", "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Replaces the process pool with one that records its ``max_workers``
        and runs tasks inline, so the tests that use it start no process."""
        created = []

        class InlinePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return created

    @pytest.mark.parametrize("cpus, instances, workers", [
        (3, "2", [3]),     # capped by the CPU count (4 tasks)
        (8, "1", [2]),     # capped by the task count
        (1, "2", []),      # one worker: runs in-process, no pool
        (None, "2", []),   # unknown CPU count counts as one
    ])
    def test_worker_count_capped(self, tmp_path, capsys, set_cpus, inline_pool,
                                 cpus, instances, workers):
        args = list(self.BASE)
        args[args.index("--instances") + 1] = instances
        serial, pooled = tmp_path / "serial.txt", tmp_path / "pooled.txt"
        assert run(capsys, *args, "--jobs", "1", "--output", str(serial))[0] == 0
        set_cpus(cpus)
        assert run(capsys, *args, "--jobs", "64", "--output", str(pooled))[0] == 0
        assert inline_pool == workers
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (("--l-values", "1,9"), "l <= k"),
        (("--cmin", "11"), "2*c_min <= n"),
        (("--l-values", "2,1,2"), "--l-values repeats a segment count: 2,1,2"),
        (("--l-values", ","), "--l-values must name at least one segment count"),
        (("--compare", "bic:sum-lpa:bottomup"), "--compare takes exactly two configurations"),
        (("--cmin", "7"), "need room for three clusters when l >= 2: 3*c_min <= n"),
    ])
    def test_bad_grid_rejected_before_workers(self, tmp_path, capsys, set_cpus,
                                              inline_pool, flags, message):
        set_cpus(4)
        out = tmp_path / "report.txt"
        code, stdout, err = run(capsys, *self.BASE, *flags, "--jobs", "2",
                                "--output", str(out))
        assert code == 1
        assert message in err
        assert inline_pool == []
        assert stdout == "" and not out.exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the lowered limit")
    def test_worker_error_exits_one(self, capsys, monkeypatch, set_cpus):
        monkeypatch.setattr(static_cluster, "WALKTRAP_MAX_NODES", 3)
        set_cpus(2)
        code, stdout, err = run(capsys, *self.BASE, "--jobs", "2")
        assert code == 1
        assert "WALKTRAP_MAX_NODES" in err and stdout == ""

    def test_import_does_not_load_process_pool(self):
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        code = ("import sys, dynseg.cli; "
                "sys.exit(int('concurrent.futures.process' in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_pool_parent_loads_numpy_random_before_forking(self):
        # numpy loads numpy.random on first use; a pool forked before that
        # leaves both workers of every benchmark call to import it again (15 ms)
        argv = ["benchmark", "--k", "4", "--n", "20", "--l-values", "1,2", "--instances", "2",
                "--jobs", "2"]
        code = (
            "import contextlib, io, sys\n"
            "from dynseg import search\n"
            "from dynseg.cli import main\n"
            "search.usable_cpus = lambda: 2\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "sys.exit(int('numpy.random' not in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input", "x", "--objective", "mdl"])
        assert exc.value.code == 2
