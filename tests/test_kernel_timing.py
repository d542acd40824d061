import json
import os
import subprocess
import sys
from pathlib import Path

import quatregular


def test_kernel_timing_runs_every_row():
    # one call of every row, in a child process: the tool pins its process to one CPU
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import kernel_timing
        kernel_timing.REPEATS = kernel_timing.CALLS = 1
        print(json.dumps(kernel_timing.main()))
    """
    tools = Path(__file__).resolve().parents[1] / "tools"
    env = dict(os.environ, PYTHONPATH=str(Path(quatregular.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code, str(tools)], capture_output=True,
                            text=True, env=env, check=True)
    rows = json.loads(result.stdout)["ms_per_call"]
    assert rows and all(type(ms) is float and ms > 0.0 for ms in rows.values())
