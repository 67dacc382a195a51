import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
import bench_pairs  # noqa: E402


def _line(correct=True, failed=0, metrics=("round_s", "setup_s")):
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed,
                       "metrics": {m: {"value": 1.0, "unit": "s"} for m in metrics}})


@pytest.mark.parametrize("stdout, code, problems", [
    (_line(), 0, []),
    ("", 1, ["exit 1", "no result line"]),
    ("infer: set-up failed", 1, ["exit 1", "no result line"]),
    (_line(correct=False), 1, ["exit 1", "correct: false"]),
    (_line(failed=2), 0, ["2 of 4 stage calls failed"]),
    (_line(metrics=("round_s",)), 0, ["missing metrics: setup_s"]),
])
def test_run_benchmark_lists_problems(tmp_path, stdout, code, problems):
    # a stand-in perfbench/run.py that prints one line and exits with code
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nprint({stdout!r})\nsys.exit({code})\n")
    result, found = bench_pairs.run_benchmark(str(tmp_path), "infer", 1, 1, 0,
                                              ["round_s", "setup_s"])
    assert found == problems
    assert (result is None) == ("no result line" in problems)


@pytest.mark.parametrize("output, counts", [
    ("....\n309 passed in 259.52s (0:04:19)\n", {"passed": 309}),
    ("F.\n== 2 failed, 307 passed, 1 skipped in 3.1s ==\n",
     {"failed": 2, "passed": 307, "skipped": 1}),
    ("E\n1 passed, 1 error in 0.2s\n", {"passed": 1, "failed": 1}),
    ("no tests ran in 0.01s\n", None),
    ("", None),
])
def test_tier1_counts(output, counts):
    assert bench_pairs.tier1_counts(output) == counts


def test_run_tier1_counts_a_stand_in_suite(tmp_path):
    # a checkout whose suite has two passing tests and one failing one
    os.makedirs(tmp_path / "tests")
    (tmp_path / "tests" / "test_stand_in.py").write_text(
        "import pytest\n\n"
        "@pytest.mark.parametrize('x', [1, 2])\n"
        "def test_pass(x):\n    assert x\n\n"
        "def test_fail():\n    assert False\n")
    rec = bench_pairs.run_tier1(str(tmp_path))
    assert (rec["tests"], rec["passed"], rec["failed"]) == (3, 2, 1)
    assert rec["exit"] == 1 and rec["problems"] == ["exit 1"]
    assert rec["wall_s"] > 0


def test_src_lines_counts_like_wc(tmp_path):
    # wc -l counts newlines: a last line without one is not counted, and
    # files outside src/ipsmc/*.py are left out
    pkg = tmp_path / "src" / "ipsmc"
    os.makedirs(pkg / "sub")
    (pkg / "a.py").write_text("import os\n\nx = 1\n")
    (pkg / "b.py").write_text("y = 2\nz = 3")
    (pkg / "notes.txt").write_text("one\ntwo\n")
    (pkg / "sub" / "c.py").write_text("w = 4\n")
    assert bench_pairs.src_lines(str(tmp_path)) == {
        "files": {"a.py": 3, "b.py": 1}, "total": 4}


def test_slowest_tests_reads_the_durations_section():
    output = ("....\n== slowest 10 durations ==\n"
              "81.19s call     tests/test_a.py::test_one\n"
              "2.50s setup    tests/test_b.py::TestB::test_two[x-1]\n"
              "\n(3 durations < 0.005s hidden.  Use -vv to show these durations.)\n"
              "4 passed in 90.1s\n")
    assert bench_pairs.slowest_tests(output) == [
        {"s": 81.19, "when": "call", "test": "tests/test_a.py::test_one"},
        {"s": 2.5, "when": "setup", "test": "tests/test_b.py::TestB::test_two[x-1]"}]
    assert bench_pairs.slowest_tests("4 passed in 0.1s\n") == []


def test_run_tier1_records_the_slowest_tests(tmp_path):
    # a stand-in suite with one test that takes a tenth of a second
    os.makedirs(tmp_path / "tests")
    (tmp_path / "tests" / "test_stand_in.py").write_text(
        "import time\n\n"
        "def test_slow():\n    time.sleep(0.1)\n\n"
        "def test_fast():\n    assert True\n")
    rec = bench_pairs.run_tier1(str(tmp_path))
    assert (rec["tests"], rec["passed"], rec["exit"]) == (2, 2, 0)
    first = rec["slowest"][0]
    assert first["test"] == "tests/test_stand_in.py::test_slow"
    assert first["when"] == "call" and first["s"] >= 0.1
