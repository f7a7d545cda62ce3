"""tools/perf.py startup on this tree: one fresh process per command, and the record it writes."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_perf():
    spec = importlib.util.spec_from_file_location("perf", ROOT / "tools" / "perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf = _load_perf()


def test_startup_times_every_command_and_help_in_fresh_processes(tmp_path):
    record = perf.startup([ROOT], seed=1, k=1, work=tmp_path)
    assert json.loads(json.dumps(record)) == record
    assert record["seed"] == 1 and record["k"] == 1 and record["interpreter"]["version"]
    assert [tree["path"] for tree in record["trees"]] == [str(ROOT)]
    names = [entry["command"] for entry in record["commands"]]
    assert names == ["analyze", "fi", "sensitivity", "km", "reproduce-paper", "simulate", "--help"]
    for entry in record["commands"]:
        assert entry["command"] == entry["argv"][0]
        (result,) = entry["results"]
        # reproduce-paper reports the three published FIs it does not match
        assert result["exit_codes"] == [4 if entry["command"] == "reproduce-paper" else 0], entry
        assert result["fastest_ms"] > 0 and result["rss_mb"] > 1
    assert "--replications" in record["commands"][5]["argv"]
    assert sorted(p.name for p in (tmp_path / "out" / "trial-session").iterdir()) == [
        "reproduce.json", "trial00.analyze.json", "trial00.fi.json", "trial00.km.json", "trial00.km.svg",
        "trial00.sens.json"]


def test_the_table_gives_the_last_trees_change_from_the_first():
    entry = {"command": "analyze", "results": [{"fastest_ms": 50.0, "rss_mb": 20.0},
                                               {"fastest_ms": 40.0, "rss_mb": 18.5}]}
    assert perf._table({"commands": [entry]}) == "analyze          50.0 ms 20.00 MB | 40.0 ms 18.50 MB | -20.0% ms -1.50 MB"
