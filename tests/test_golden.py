"""Golden outputs: solution files and reports pinned by sha256.

One generated network (k=8, l=3, n=24, seed 5) is solved under six
configurations that together cover every objective, consensus method and
search strategy, and ranked once.  Each solution file and each report,
minus its volatile ``wall_time`` and ``output`` lines, must hash to the
recorded digest, so any change to the pipeline's output bytes shows up
here.  The digests follow numpy's RNG streams (``numpy.random.Generator``
seeded through ``dynseg._seeds``): a numpy release that changes those
streams changes them too.
"""

import hashlib

import pytest

from dynseg.cli import main

CONFIGS = (
    "bic:sum-walktrap:bottomup",
    "aic:sum-lpa:exhaustive",
    "modularity:avg-louvain:topdown",
    "conductance:cmatrix-louvain:bottomup",
    "ncut:sum-louvain:topdown",
    "avgodf:cmatrix-walktrap:exhaustive",
)

GOLDEN = {
    "bic:sum-walktrap:bottomup": (
        "03de0896fecf38b41c27b6470e7628e688393a235b4cc788fc7a6a111cb48e72",
        "e94d9dbc8fae538cb533ab2457d4b7d1c8a156e2b0746a14332f2f8f07ec085b",
    ),
    "aic:sum-lpa:exhaustive": (
        "03de0896fecf38b41c27b6470e7628e688393a235b4cc788fc7a6a111cb48e72",
        "d8317b467f4b039e48a2a497ab4cff5da134b70f876431b58a21a3c1652a68ff",
    ),
    "modularity:avg-louvain:topdown": (
        "03de0896fecf38b41c27b6470e7628e688393a235b4cc788fc7a6a111cb48e72",
        "74e159283182c3c4614d6805d84fb62c90866ba800c81588e61c4c531cafab2a",
    ),
    "conductance:cmatrix-louvain:bottomup": (
        "8726c91ef2d5fdfbfccfe86185b890d13e12fb654eb262d5d82303f8c3973d9a",
        "19d8c8da9234adf651964555448d3102eaf0419c139adb866e711d1b6f3f2792",
    ),
    "ncut:sum-louvain:topdown": (
        "8726c91ef2d5fdfbfccfe86185b890d13e12fb654eb262d5d82303f8c3973d9a",
        "d21c70d37e5fcac81178bb1af98dc742814dfb4c55c30eb1b0503f0b9357530e",
    ),
    "avgodf:cmatrix-walktrap:exhaustive": (
        "8726c91ef2d5fdfbfccfe86185b890d13e12fb654eb262d5d82303f8c3973d9a",
        "259309024990093d835eaa5f30dcbbca38ece9b738c5c3c522d15164cbd3a7b0",
    ),
    "rank": (
        "1137dabb2a4579d2de978490ac64161dcf9943b82d2fa54a72fe2e99c3b535c4",
        "1137dabb2a4579d2de978490ac64161dcf9943b82d2fa54a72fe2e99c3b535c4",
    ),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _report(stdout: str) -> str:
    keep = [
        line for line in stdout.splitlines()
        if not line.startswith(("wall_time\t", "output\t"))
    ]
    return "\n".join(keep) + "\n"


@pytest.fixture(scope="module")
def network_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    net = d / "net.txt"
    code = main([
        "generate", "--output", str(net), "--truth", str(d / "truth.txt"),
        "--k", "8", "--l", "3", "--n", "24", "--cmin", "4",
        "--cin", "12", "--cout", "2", "--seed", "5",
    ])
    assert code == 0
    return net


def _digests(capsys, command, network_file, tmp_path, *flags):
    sol = tmp_path / "out.txt"
    capsys.readouterr()
    code = main([command, "--input", str(network_file), "--output", str(sol),
                 "--seed", "3", *flags])
    assert code == 0
    stdout = capsys.readouterr().out
    return _sha(sol.read_text()), _sha(_report(stdout))


@pytest.mark.parametrize("config", CONFIGS)
def test_detect_golden(config, network_file, tmp_path, capsys):
    objective, consensus, search = config.split(":")
    got = _digests(capsys, "detect", network_file, tmp_path,
                   "--objective", objective, "--consensus", consensus,
                   "--search", search)
    assert got == GOLDEN[config]


def test_rank_golden(network_file, tmp_path, capsys):
    got = _digests(capsys, "rank", network_file, tmp_path)
    assert got == GOLDEN["rank"]
