from types import SimpleNamespace

import pytest

from dynseg import cli, static_cluster
from dynseg.cli import main
from dynseg.dyngraph import (
    ChangePointSet,
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

    def test_invalid_output_is_not_written(self, tmp_path, capsys, monkeypatch):
        # the chosen partition misses node c of the only snapshot
        bad = ScdOutput(ChangePointSet((), 1), (Partition({"a": 0, "b": 0}),))
        table = SimpleNamespace(
            consensus_calls=1, entries={},
            entry=lambda l: SimpleNamespace(output=bad), select=lambda criterion: 1,
        )
        monkeypatch.setattr(cli, "build_table", lambda network, spec: table)
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

    def test_k_mismatch(self, scg_files, tmp_path, capsys):
        _, truth = scg_files
        short = tmp_path / "short.txt"
        short.write_text("segment 0 0\ncluster 0: a b\n")
        code, _, err = run(capsys, "evaluate", "--pred", str(short),
                           "--truth", str(truth))
        assert code == 1
        assert "k=" in err

    def test_unknown_metric(self, scg_files, capsys):
        _, truth = scg_files
        code, _, err = run(capsys, "evaluate", "--pred", str(truth),
                           "--truth", str(truth), "--metrics", "f1")
        assert code == 1


class TestRank:
    def test_k2_single_row(self, tmp_path, capsys):
        net = tmp_path / "n.txt"
        net.write_text("0 a b\n0 c d\n1 a c\n1 b d\n")
        code, stdout, _ = run(capsys, "rank", "--input", str(net))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split("\t")[0] == "1"

    def test_truth_appends_classification(self, scg_files, capsys):
        net, truth = scg_files
        code, stdout, _ = run(capsys, "rank", "--input", str(net),
                              "--truth", str(truth))
        assert code == 0
        rows = kv(stdout)
        assert "aupr" in rows and "max_f" in rows and "auroc" in rows

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
        code, _, err = run(capsys, *self.BASE, "--compare", "bic:sum-walktrap")
        assert code == 1

    def test_concurrent_run_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert run(capsys, *self.BASE, "--jobs", "1", "--output", str(out1))[0] == 0
        assert run(capsys, *self.BASE, "--jobs", "3", "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


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
