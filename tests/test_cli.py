"""Command line behavior, driven through main() in process."""

from __future__ import annotations

import json

import pytest

from helpers import fixture_path, fixture_text
from kgmas.cli import main


SETUP = fixture_path("fig3_setup.ttl")
WORLD = fixture_path("warehouse_world.json")

RUN_ARGS = ["run", "--setup", SETUP, "--world", WORLD, "--task", "move_pallet",
            "--param", "from=P1", "--param", "to=P2"]


def test_validate_ok(capsys):
    assert main(["validate", "--setup", SETUP]) == 0
    out = capsys.readouterr().out
    assert out.startswith("setup ok")


def test_validate_reports_issues(tmp_path, capsys):
    broken = fixture_text("fig3_setup.ttl").replace(
        "kgmas:Turtlebot kgmas:hasRealm kgmas:physical .\n", "")
    path = tmp_path / "broken.ttl"
    path.write_text(broken, encoding="utf-8")
    assert main(["validate", "--setup", str(path)]) == 1
    out = capsys.readouterr().out
    assert "realm" in out and "Turtlebot" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "--setup", "/nonexistent.ttl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_unparsable_file(tmp_path, capsys):
    path = tmp_path / "junk.ttl"
    path.write_text("this is not turtle", encoding="utf-8")
    assert main(["validate", "--setup", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_bad_iri_character_reports_its_position(tmp_path, capsys):
    path = tmp_path / "space.ttl"
    path.write_text("<http://e/a b> <http://e/p> <http://e/o> .\n", encoding="utf-8")
    assert main(["validate", "--setup", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1, column 1: iri contains whitespace: 'http://e/a b'\n"


def test_generate_lists_agents(capsys):
    assert main(["generate", "--setup", SETUP]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "roboticarm\thttp://kgmas.example/vocab#RoboticArm\tPlacerRole",
        "turtlebot\thttp://kgmas.example/vocab#Turtlebot\tMoverRole",
    ]


def test_generate_emits_spec_files(tmp_path, capsys):
    out_dir = tmp_path / "specs"
    assert main(["generate", "--setup", SETUP, "--emit", str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["roboticarm.json", "turtlebot.json"]
    with open(out_dir / "turtlebot.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["agent_id"] == "turtlebot"
    assert spec["binding"] == {"scheme": "ros+ws", "endpoint": "localhost:9090"}


def test_generate_invalid_setup_exits_one(tmp_path, capsys):
    broken = fixture_text("fig3_setup.ttl").replace(
        "kgmas:RoboticArm kgmas:hasCapability kgmas:GripperControl .\n", "")
    path = tmp_path / "broken.ttl"
    path.write_text(broken, encoding="utf-8")
    assert main(["generate", "--setup", str(path)]) == 1
    err = capsys.readouterr().err
    assert "capability" in err


def test_run_completes_and_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run1"
    assert main(RUN_ARGS + ["--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out == "task Task_move_pallet_1 completed after 21 ticks\n"

    trace = (out_dir / "trace.log").read_text(encoding="utf-8")
    lines = [line for line in trace.splitlines() if line]
    assert len(lines) == 15
    assert lines[0].split("\t")[:4] == ["1", "request", "operator", "turtlebot"]

    data = (out_dir / "data.ttl").read_text(encoding="utf-8")
    assert '"P2"' in data and "Pallet1" in data

    consistency = (out_dir / "consistency.txt").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in consistency.splitlines()]
    assert len(rows) == 21
    assert all(count == "0" for _, count in rows)


def test_run_zero_deadline_fails(capsys):
    assert main(RUN_ARGS + ["--deadline-ms", "0"]) == 1
    out = capsys.readouterr().out
    assert "failed at step 1" in out


def test_run_unknown_position_fails_and_writes_artifacts(tmp_path, capsys):
    """A device translation error fails the task instead of aborting the run."""
    out_dir = tmp_path / "run"
    args = ["run", "--setup", SETUP, "--world", WORLD, "--task", "move_pallet",
            "--param", "from=P9", "--param", "to=P2", "--out", str(out_dir)]
    assert main(args) == 1
    assert "failed at step 3" in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "consistency.txt", "data.ttl", "trace.log"]


def test_run_rejects_malformed_param(capsys):
    args = ["run", "--setup", SETUP, "--world", WORLD, "--task", "move_pallet",
            "--param", "oops"]
    assert main(args) == 2
    assert "key=value" in capsys.readouterr().err


def test_run_rejects_unknown_override(capsys):
    assert main(RUN_ARGS + ["--transport-override", "ghost=mqtt"]) == 2
    assert "unknown asset" in capsys.readouterr().err


def test_run_accepts_transport_override(capsys):
    assert main(RUN_ARGS + ["--transport-override", "turtlebot=mqtt"]) == 0
    assert "completed after 21 ticks" in capsys.readouterr().out


def test_run_bad_world_file(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_text("{not json", encoding="utf-8")
    args = ["run", "--setup", SETUP, "--world", str(path),
            "--task", "move_pallet"]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_run_unknown_task_exits_one(capsys):
    args = ["run", "--setup", SETUP, "--world", WORLD, "--task", "paint_fence"]
    assert main(args) == 1
    assert "no protocol" in capsys.readouterr().err


def test_run_literal_protocol_step_exits_one(tmp_path, capsys):
    broken = fixture_text("fig3_setup.ttl").replace(
        "kgmas:hasStep kgmas:MovePalletStep1", 'kgmas:hasStep "MovePalletStep1"')
    path = tmp_path / "setup.ttl"
    path.write_text(broken, encoding="utf-8")
    args = ["run", "--setup", str(path), "--world", WORLD, "--task", "move_pallet"]
    assert main(args) == 1
    assert "error:" in capsys.readouterr().err


def test_dump_is_a_fixed_point(tmp_path, capsys):
    assert main(["dump", "--setup", SETUP]) == 0
    first = capsys.readouterr().out
    path = tmp_path / "canonical.ttl"
    path.write_text(first, encoding="utf-8")
    assert main(["dump", "--setup", str(path)]) == 0
    assert capsys.readouterr().out == first


def test_trace_pretty_print(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(RUN_ARGS + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["trace", str(out_dir / "trace.log")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("   1  request  operator -> turtlebot")
    assert "[conv-Task_move_pallet_1]" in lines[0]


def test_trace_rejects_malformed_lines(tmp_path, capsys):
    path = tmp_path / "bad.log"
    path.write_text("1\trequest\tonly\tfour\tfields\n", encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    assert "6 tab-separated" in capsys.readouterr().err

    path.write_text("2\ta\tb\tc\td\t{}\n1\ta\tb\tc\td\t{}\n", encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    assert "increase" in capsys.readouterr().err


def test_check_clean_graph(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(RUN_ARGS + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_dir / "data.ttl")]) == 0
    assert capsys.readouterr().out == "no violations\n"


def test_check_flags_colocation(capsys):
    assert main(["check", fixture_path("colocated_data.ttl")]) == 1
    out = capsys.readouterr().out
    assert "physical_colocation" in out
    assert "at P1" in out
