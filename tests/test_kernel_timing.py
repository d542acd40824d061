import json
import subprocess
import sys
from pathlib import Path


def test_kernel_timing_runs_every_row():
    # one call of every kernel row of tools/ab.py, this tree against itself, in a child
    # process: the tool pins its process to one CPU
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import ab
        ab.ROUNDS = ab.CALLS = 1
        print(json.dumps(ab.kernels({"this": ab.quatregular, "other": ab.quatregular})))
    """
    tools = Path(__file__).resolve().parents[1] / "tools"
    result = subprocess.run([sys.executable, "-c", code, str(tools)], capture_output=True,
                            text=True, check=True)
    assert result.stderr == ""
    rows = json.loads(result.stdout)
    assert len(rows) == 30
    assert all(type(ms) is float and ms > 0.0 for row in rows.values()
               for ms in (row["this_ms"], row["other_ms"]))
