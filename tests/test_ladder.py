"""The ladder runner passes a row whose output matches its pin and fails
one whose pin is wrong."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ladder",
                                              ROOT / "bench" / "ladder.py")
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)

FAST = ("cohh --degrees 3 --field 2", "5cddd4849ee2696b")


def test_a_pinned_row_passes_and_a_wrong_pin_fails(monkeypatch, capsys):
    assert FAST in ladder.ROWS
    wrong = (FAST[0], "0" * 16)
    monkeypatch.setattr(ladder, "ROWS", [FAST, wrong])
    assert ladder.main(["--repeat", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"ok   {FAST[0]}: head ")
    assert lines[2].startswith(f"FAIL {FAST[0]}: head ")
    good, bad = ladder.ladder([FAST, wrong], {"head": ROOT}, 1)
    assert good["ok"] and not bad["ok"]
    (run,) = good["runs"]
    assert run["exit"] == 0 and run["sha256"].startswith(FAST[1])
    assert run["wall_s"] > 0 and run["peak_rss_mib"] > 0
    assert bad["runs"][0]["sha256"] == run["sha256"]
