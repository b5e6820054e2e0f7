"""The CI workflow names tests and scripts by path, and a config it expects
rejected; each test and script must exist, and the config must fail."""
import re
from pathlib import Path

import pytest

from afcsim import config

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


def test_console_script_step_writes_a_rejected_delay():
    # the step expects exit code 1 and a message naming the key from this file
    line = re.search(r"printf '([^']*)' > \"\$RUNNER_TEMP/bad\.cfg\"", WORKFLOW)
    assert line, "the workflow writes no bad.cfg"
    text = line[1].replace("\\n", "\n")
    with pytest.raises(config.ConfigError, match=r"'actuator_channel\.delay'"):
        config.build_config([("preset", config.preset_text("nominal")), ("bad.cfg", text)])
