import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# appended to the copy's harness.py: every oracle JSON gains a key
ORACLE_PATCH = """

_unpatched_oracle_to_json = oracle_to_json


def oracle_to_json(result, crews):
    return {**_unpatched_oracle_to_json(result, crews), "patched": True}
"""


def test_tree_diff_fails_on_a_changed_oracle_answer(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "gridrepair" / "harness.py", "a") as harness:
        harness.write(ORACLE_PATCH)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tree_diff.py"), "--count", "3", "--repeat", "1",
         str(ROOT / "src"), str(copy)],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout)
    assert proc.returncode == 1 and result["same_answers"] is False
    # the relaxation layer runs first and agrees; only the 3 seeds x 2 crew counts differ
    assert result["first_difference"] == {
        "layer": "oracle", "seed": 0, "m": 2, "differing_calls": 6}
