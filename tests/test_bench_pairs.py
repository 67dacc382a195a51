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
