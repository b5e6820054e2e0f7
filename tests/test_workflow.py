"""The CI workflow names tests and scripts by path; each one must exist."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def test_kernel_rerun_step_names_existing_tests():
    # the step reruns the node ids listed in its checks="..." variable
    checks = re.search(r'checks="([^"]*)"', WORKFLOW)
    assert checks, "the workflow has no kernel-rerun step"
    node_ids = re.findall(r"(tests/\w+\.py)::(\w+)", checks[1])
    assert node_ids and len(node_ids) == len(checks[1].split())
    for path, name in node_ids:
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.MULTILINE), f"{path}::{name}"


def test_benchmark_self_test_exists():
    assert "python3 bench/selftest.py" in WORKFLOW
    assert (ROOT / "bench" / "selftest.py").is_file()
