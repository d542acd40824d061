import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_ab(other: Path, records: str = '{"slice-norms": 16, "bl-search": 24}') -> dict:
    """tools/ab.py against ``other`` on ``records`` of the workloads (by default one block of
    the slice-norms and bl-search ones), seed 1, and every kernel row once, one round, in a
    child process: the tool pins its process to one CPU."""
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import ab
        ab.SEEDS, ab.ROUNDS, ab.CALLS = (1,), 1, 1
        ab.RECORDS = json.loads(sys.argv[3])
        print(json.dumps(ab.main(sys.argv[2])))
    """
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), str(other), records],
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_its_own_tree_shows_no_diff():
    report = run_ab(ROOT)
    for workload, tasks in (("slice-norms", 16), ("bl-search", 24)):
        (seed,) = report[workload].values()
        assert seed["tasks"] == tasks and seed["diffs"] == []
        assert seed["moved"] == 0 and seed["max_rel_move"] == 0.0 and seed["moves"] == {}
        assert seed["this_s"] > 0.0 and seed["other_s"] > 0.0
        assert 0 <= seed["faster"] <= tasks
    # the summed radii of the coarse pass, second pass and root are counts: the same in
    # both runs of one tree
    radii = report["bl-search"]["1"]["mu_radii"]
    assert radii["this"] == radii["other"] and radii["diff"] == [0, 0, 0]
    assert radii["this"][0] > 0 and "mu_radii" not in report["slice-norms"]["1"]
    # so are the rows the split_norm pick phase computes on the whole angle grid
    fine = report["slice-norms"]["1"]["fine_rows"]
    assert fine["this"] == fine["other"] > 0 and fine["diff"] == 0
    assert "fine_rows" not in report["bl-search"]["1"]
    # every kernel row runs in both trees
    assert len(report["kernels"]) == 30
    assert all(type(ms) is float and ms > 0.0 for row in report["kernels"].values()
               for ms in row.values())


def test_a_changed_tree_shows_its_diffs(tmp_path):
    # a rounding floor of 5e-15 in place of 4e-15 moves a certified_tol of every workload,
    # and only those held at the floor, each by at most 5/4 - 1; renaming the private
    # _lattice_scan leaves every value alone but nulls its kernel row in the copy
    shutil.copytree(ROOT / "src" / "quatregular", tmp_path / "src" / "quatregular",
                    ignore=shutil.ignore_patterns("__pycache__"))
    norms = tmp_path / "src" / "quatregular" / "norms.py"
    text = norms.read_text()
    assert text.count("4e-15 * value") == 1
    norms.write_text(text.replace("4e-15 * value", "5e-15 * value")
                     .replace("_lattice_scan", "_lattice_sweep"))
    report = run_ab(tmp_path)
    for workload, path in (("slice-norms", "*.certified_tol"),
                           ("bl-search", "diagnostics.dphi_norm.certified_tol")):
        (seed,) = report[workload].values()
        assert seed["diffs"] and all(d["this"] != d["other"] for d in seed["diffs"])
        assert seed["moved"] == len(seed["diffs"])
        assert 0.0 < seed["max_rel_move"] <= 0.25 * (1 + 1e-9)
        assert seed["moves"] == {path: seed["max_rel_move"]}
    renamed = report["kernels"].pop("_lattice_scan[2048 units, 256 angles]")
    assert renamed["this_ms"] > 0.0 and renamed["other_ms"] is renamed["ratio"] is None
    assert len(report["kernels"]) == 29
    assert all(ms > 0.0 for row in report["kernels"].values() for ms in row.values())


def test_bl_search_section_sums_the_mu_radii(tmp_path):
    # root batches that interpolate through two evaluated points never place an
    # interpolated point, so they take more radii at the root, and no more elsewhere
    shutil.copytree(ROOT / "src" / "quatregular", tmp_path / "src" / "quatregular",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bloch = tmp_path / "src" / "quatregular" / "bloch.py"
    text = bloch.read_text()
    assert text.count("_ROOT_NODES = 10") == 1
    bloch.write_text(text.replace("_ROOT_NODES = 10", "_ROOT_NODES = 2"))
    (seed,) = run_ab(tmp_path, '{"bl-search": 24}')["bl-search"].values()
    radii = seed["mu_radii"]
    assert radii["this"][:2] == radii["other"][:2] and radii["this"][2] < radii["other"][2]
    assert radii["diff"] == [a - b for a, b in zip(radii["this"], radii["other"])]
    assert seed["moved"] > 0 and set(seed["moves"]) >= {"diagnostics.mu_radii.*"}


def test_coverage_section_diffs_the_preimages(tmp_path):
    # attain on one block of the coverage stream: no diff against its own tree, and
    # starts unfolded 1e-15 too far out move some preimages, in their components alone
    report = run_ab(ROOT, '{"coverage": 18}')
    (seed,) = report["coverage"].values()
    assert seed["tasks"] == 18 and seed["moved"] == 0 and seed["diffs"] == []
    assert seed["this_s"] > 0.0 and seed["other_s"] > 0.0
    shutil.copytree(ROOT / "src" / "quatregular", tmp_path / "src" / "quatregular",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bloch = tmp_path / "src" / "quatregular" / "bloch.py"
    text = bloch.read_text()
    assert text.count("* (ball_radius / t)") == 1
    bloch.write_text(text.replace("* (ball_radius / t)", "* (ball_radius / t + 1e-15)"))
    (seed,) = run_ab(tmp_path, '{"coverage": 18}')["coverage"].values()
    assert seed["moved"] == len(seed["diffs"]) > 0
    assert all(d["this"] != d["other"] for d in seed["diffs"])
    assert 0.0 < seed["max_rel_move"] and set(seed["moves"]) == {"*"}
    assert 0.0 < seed["max_abs_move"] < 1e-13


def test_rel_move_of_leaves_and_shapes():
    # in a child process, as the tool pins the process that imports it to one CPU
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from ab import _rel_move
        print(json.dumps([_rel_move([1, {"a": 4.0, "m": "x"}], [1, {"a": 5.0, "m": "x"}]),
                          _rel_move({"a": 0.0}, {"a": 1e-300}), _rel_move([1.0], [1.0, 2.0]),
                          _rel_move({"a": 1}, {"b": 1}), _rel_move("x", "y"),
                          _rel_move([0, None], [0, {"v": 1}]), _rel_move(True, False),
                          _rel_move([0.0, 2.0], [-0.0, 2.0])]))
    """
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools")],
                            capture_output=True, text=True, check=True)
    inf = float("inf")
    assert json.loads(result.stdout) == [0.25, inf, inf, inf, inf, inf, inf, 0.0]


def test_abs_move_of_leaves_and_shapes():
    # the absolute move of a leaf near 0, which the relative one reads as inf or huge
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from ab import _abs_move
        print(json.dumps([_abs_move([1, {"a": 4.0, "m": "x"}], [1, {"a": 5.5, "m": "x"}]),
                          _abs_move({"a": 0.0}, {"a": 1e-300}), _abs_move([1e-11], [-1e-11]),
                          _abs_move([1.0], [1.0, 2.0]), _abs_move({"a": 1}, {"b": 1}),
                          _abs_move("x", "y"), _abs_move([0, None], [0, {"v": 1}]),
                          _abs_move(True, False), _abs_move([0.0, 2.0], [-0.0, 2.0])]))
    """
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools")],
                            capture_output=True, text=True, check=True)
    inf = float("inf")
    assert json.loads(result.stdout) == [1.5, 1e-300, 2e-11, inf, inf, inf, inf, inf, 0.0]
