import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_ab(other: Path) -> dict:
    """tools/ab.py against ``other`` on one block of each workload, seed 1, one round,
    in a child process: the tool pins its process to one CPU."""
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import ab
        ab.SEEDS, ab.ROUNDS = (1,), 1
        ab.RECORDS = {"slice-norms": 16, "bl-search": 24}
        print(json.dumps(ab.main(sys.argv[2])))
    """
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), str(other)],
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_its_own_tree_shows_no_diff():
    report = run_ab(ROOT)
    for workload, tasks in (("slice-norms", 16), ("bl-search", 24)):
        (seed,) = report[workload].values()
        assert seed["tasks"] == tasks and seed["diffs"] == []
        assert seed["this_s"] > 0.0 and seed["other_s"] > 0.0
        assert 0 <= seed["faster"] <= tasks


def test_a_changed_tree_shows_its_diffs(tmp_path):
    # a rounding floor of 5e-15 in place of 4e-15 moves a certified_tol of every workload
    shutil.copytree(ROOT / "src" / "quatregular", tmp_path / "src" / "quatregular",
                    ignore=shutil.ignore_patterns("__pycache__"))
    norms = tmp_path / "src" / "quatregular" / "norms.py"
    text = norms.read_text()
    assert text.count("4e-15 * value") == 1
    norms.write_text(text.replace("4e-15 * value", "5e-15 * value"))
    report = run_ab(tmp_path)
    for workload in ("slice-norms", "bl-search"):
        (seed,) = report[workload].values()
        assert seed["diffs"] and all(d["this"] != d["other"] for d in seed["diffs"])
