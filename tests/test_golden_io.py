"""Golden bytes of the network writer, the evaluation reports and the
benchmark report, pinned by sha256.

``tests/test_golden.py`` pins what ``detect`` and ``rank`` write.  This file
pins the other outputs: the network and truth files ``generate`` writes for
``test_golden.py``'s configuration, an ``evaluate`` report with and without
``--input`` (on a generated network with k > 10, where snapshot indices
order differently as numbers and as strings, and on a hand-made network
whose snapshots hold fewer nodes than the partitions), and one
``benchmark --compare`` report.  As in ``test_golden.py``, the
digests follow numpy's RNG streams.
"""

import hashlib

import pytest

from dynseg.cli import main

GENERATOR_FLAGS = ["--l", "3", "--n", "24", "--cmin", "4", "--cin", "12", "--cout", "2",
                   "--seed", "5"]

GOLDEN = {
    "generate-network": "a874acc1a3af34f29b78d2c0f75482bfd867d30b8bbbc100d18cb217da24f6fc",
    "generate-truth": "ba391212af31d01d2ba23e28f35b97f83784e433e577886a6054f717c0bcb628",
    "evaluate-generated-input": "8b737e47f49202c2aeae1b492362f18ac5e211ca8b9e3b92294c5330739c630f",
    "evaluate-generated": "8b737e47f49202c2aeae1b492362f18ac5e211ca8b9e3b92294c5330739c630f",
    "evaluate-partial-input": "95d2f8f3c5387a9776d052cefef5cbba2094c48559c5f2dfeeb91b0abde5888d",
    "evaluate-partial": "be52aca04401524a9c639b1a7dbcb85a0feeebe5536f60791a3bb66ad8694bb2",
    "benchmark": "aa0488a9922bae9c44a81c7c6f7945aed16379a62e192816995207b5292113e3",
}

# Snapshots hold fewer nodes than the partitions, and the two outputs'
# domains differ, so the scope with --input (each snapshot's nodes) and
# without it (the two domains' intersection) differ.
PARTIAL_NETWORK = (
    "0 a b\n0 b c\n0 d e\n1 a c\n1 e f\n2 b d\n2 c\n3 a f\n3 b e\n"
    "4 c d\n4 x\n5 a b\n5 e f\n6 b c\n6 d f\n6 x\n"
)
PARTIAL_PRED = (
    "segment 0 2\ncluster 0: a b c\ncluster 1: d e f\ncluster 2: x y\n"
    "segment 3 6\ncluster 0: a b\ncluster 1: c d x\ncluster 2: e f\n"
)
PARTIAL_TRUTH = (
    "segment 0 3\ncluster 0: a b c d\ncluster 1: e f\ncluster 2: x\n"
    "segment 4 6\ncluster 0: a f\ncluster 1: b c\ncluster 2: d e x z\n"
)


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def _generate(d, k):
    net, truth = d / f"net{k}.txt", d / f"truth{k}.txt"
    argv = ["generate", "--output", str(net), "--truth", str(truth), "--k", str(k)]
    assert main(argv + GENERATOR_FLAGS) == 0
    return net, truth


def test_generate_golden(tmp_path):
    net, truth = _generate(tmp_path, 8)
    assert _sha(net.read_text()) == GOLDEN["generate-network"]
    assert _sha(truth.read_text()) == GOLDEN["generate-truth"]


@pytest.mark.parametrize("with_input", [True, False], ids=["input", "no-input"])
def test_evaluate_generated_golden(tmp_path, capsys, with_input):
    net, truth = _generate(tmp_path, 12)
    pred = tmp_path / "pred.txt"
    _stdout(capsys, ["detect", "--input", str(net), "--output", str(pred),
                     "--consensus", "sum-lpa", "--search", "topdown", "--segments", "5",
                     "--seed", "3"])
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth),
            "--metrics", "nmi,ami,ari,vm"]
    if with_input:
        argv += ["--input", str(net)]
    key = "evaluate-generated-input" if with_input else "evaluate-generated"
    assert _sha(_stdout(capsys, argv)) == GOLDEN[key]


@pytest.mark.parametrize("with_input", [True, False], ids=["input", "no-input"])
def test_evaluate_partial_golden(tmp_path, capsys, with_input):
    paths = {}
    for name, text in (("net", PARTIAL_NETWORK), ("pred", PARTIAL_PRED),
                       ("truth", PARTIAL_TRUTH)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = ["evaluate", "--pred", str(paths["pred"]), "--truth", str(paths["truth"]),
            "--metrics", "nmi,ami,ari,vm"]
    if with_input:
        argv += ["--input", str(paths["net"])]
    key = "evaluate-partial-input" if with_input else "evaluate-partial"
    assert _sha(_stdout(capsys, argv)) == GOLDEN[key]


def test_benchmark_golden(capsys):
    report = _stdout(capsys, [
        "benchmark", "--k", "8", "--n", "20", "--l-values", "1,2", "--instances", "2",
        "--compare", "bic:sum-walktrap:bottomup,aic:sum-walktrap:bottomup", "--jobs", "1",
    ])
    assert _sha(report) == GOLDEN["benchmark"]
