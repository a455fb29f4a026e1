"""Command line behavior, driven through main() in process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import (fixture_path, fixture_text, reference_serialize,
                     setup_with_broken_protocol, setup_with_step_inside_pair)
from kgmas.cli import main
from kgmas.errors import ProtocolError
from kgmas.runtime import Scenario
from kgmas.turtle import parse_turtle


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
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


@pytest.mark.parametrize("args", [
    ["validate", "--setup", None], ["generate", "--setup", None], ["dump", "--setup", None],
    RUN_ARGS[:2] + [None] + RUN_ARGS[3:], RUN_ARGS[:4] + [None] + RUN_ARGS[5:],
    ["trace", None], ["check", None],
], ids=["validate", "generate", "dump", "run-setup", "run-world", "trace", "check"])
def test_an_input_that_is_not_utf8_exits_two(tmp_path, capsys, args):
    path = tmp_path / "latin"
    path.write_bytes(b"\xff\xfe")
    assert main([str(path) if arg is None else arg for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(path) in err


def test_a_non_utf8_world_beside_a_good_setup_is_the_file_named(tmp_path, capsys):
    world = tmp_path / "world.json"
    world.write_bytes(b"\xff\xfe")
    assert main(RUN_ARGS[:4] + [str(world)] + RUN_ARGS[5:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {world}: 'utf-8' codec can't decode byte 0xff")
    assert SETUP not in err


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


def test_run_reproduces_the_golden_artifacts_byte_for_byte(tmp_path, capsys):
    assert main(RUN_ARGS + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("trace.log", "data.ttl", "consistency.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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


@pytest.mark.parametrize("cell", ['["x",2]', "[null,2]", "[1.5,2]", "[true,2]"])
def test_run_non_integer_template_cell_fails_and_writes_artifacts(tmp_path, capsys,
                                                                  cell):
    """A perform template whose cell is not a pair of integers fails its step
    through the device's refusal instead of aborting or truncating."""
    step3_to = '\\"to\\":\\"cell:3,2\\"'
    text = fixture_text("fig3_setup.ttl")
    assert text.count(step3_to) == 1
    setup = write_setup(tmp_path, text.replace(
        step3_to, '\\"to\\":' + cell.replace('"', '\\"')))
    assert main(["validate", "--setup", setup]) == 0
    out_dir = tmp_path / "run"
    args = ["run", "--setup", setup, "--world", WORLD, "--task", "move_pallet",
            "--param", "from=P1", "--param", "to=P2", "--out", str(out_dir)]
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


@pytest.mark.parametrize("device,field,value", [
    ("roboticarm", "joints", [0, 0, 0]),
    ("turtlebot", "start", [9, 9]),
    ("turtlebot", "start", [0.5, 0]),
])
def test_run_bad_world_device_exits_two(tmp_path, capsys, device, field, value):
    doc = json.loads(fixture_text("warehouse_world.json"))
    doc["devices"][device][field] = value
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(RUN_ARGS[:4] + [str(path)] + RUN_ARGS[5:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_two_pallets_on_one_cell_exits_two(tmp_path, capsys):
    doc = json.loads(fixture_text("warehouse_world.json"))
    doc["pallets"]["Pallet0"] = "P1"
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(RUN_ARGS[:4] + [str(path)] + RUN_ARGS[5:]) == 2
    assert "share a cell" in capsys.readouterr().err


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


def write_setup(tmp_path, text: str) -> str:
    path = tmp_path / "setup.ttl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def exit_codes(setup: str) -> tuple[int, int, int]:
    """Exit codes of validate, generate and run on one setup."""
    return (main(["validate", "--setup", setup]),
            main(["generate", "--setup", setup]),
            main(["run", "--setup", setup, "--world", WORLD,
                  "--task", "move_pallet"]))


def test_empty_endpoint_is_a_no_everywhere(tmp_path, capsys):
    """A readable setup with an empty endpoint exits 1, never 2."""
    setup = write_setup(tmp_path, fixture_text("fig3_setup.ttl").replace(
        'kgmas:Turtlebot kgmas:hasEndpoint "localhost:9090"',
        'kgmas:Turtlebot kgmas:hasEndpoint ""'))
    assert exit_codes(setup) == (1, 1, 1)
    assert "endpoint must be non-empty" in capsys.readouterr().out


def test_one_topic_in_both_directions_is_a_no(tmp_path, capsys):
    """A transport binds a topic once per asset, so validation refuses an
    asset that publishes on and subscribes to one topic."""
    setup = write_setup(tmp_path, fixture_text("fig3_setup.ttl").replace(
        '"/pose"', '"/cmd_vel"'))
    assert main(["validate", "--setup", setup]) == 1
    assert main(["generate", "--setup", setup]) == 1
    captured = capsys.readouterr()
    issue = ("channel\thttp://kgmas.example/vocab#Turtlebot\t"
             "more than one channel on topic '/cmd_vel'\n")
    assert issue in captured.out and issue in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_validate_refuses_a_step_between_perform_and_report(tmp_path, capsys):
    setup = write_setup(tmp_path, setup_with_step_inside_pair())
    assert exit_codes(setup) == (1, 0, 1)
    out = capsys.readouterr().out
    assert "protocol\tmove_pallet\tstep 3: a perform step must be followed" in out


def test_validate_refuses_a_report_without_its_perform(tmp_path, capsys):
    setup = write_setup(tmp_path, fixture_text("fig3_setup.ttl").replace(
        "kgmas:MovePalletStep3 kgmas:actionKind kgmas:performAction",
        "kgmas:MovePalletStep3 kgmas:actionKind kgmas:queryNext"))
    assert main(["validate", "--setup", setup]) == 1
    assert capsys.readouterr().out == (
        "protocol\tmove_pallet\tstep 4: a report step must directly follow "
        "a perform step of the same role\n")


def test_validate_loads_every_protocol_run_loads(tmp_path, capsys):
    setup = write_setup(tmp_path, fixture_text("fig3_setup.ttl").replace(
        'kgmas:MovePalletStep3 kgmas:stepIndex "3"^^xsd:integer .\n', ""))
    assert main(["validate", "--setup", setup]) == 1
    assert capsys.readouterr().out == (
        "protocol\tmove_pallet\thttp://kgmas.example/vocab#MovePalletStep3: "
        "expected one step index\n")
    assert main(["run", "--setup", setup, "--world", WORLD,
                 "--task", "move_pallet"]) == 1


def test_a_broken_protocol_fails_only_its_own_task(tmp_path, capsys):
    """With a second, broken protocol in the setup the scenario still builds
    and ``move_pallet`` completes; running the broken task raises the error
    ``kgmas validate`` prints for it, and an unknown task raises as before."""
    setup = write_setup(tmp_path, setup_with_broken_protocol())
    with Scenario.from_files(setup, WORLD) as scenario:
        result = scenario.run_task("move_pallet", {"from": "P1", "to": "P2"})
        assert result.status == "completed"
        with pytest.raises(ProtocolError) as broken:
            scenario.run_task("stack_pallet")
        with pytest.raises(ProtocolError) as unknown:
            scenario.run_task("paint_fence")
    assert str(broken.value) == ("http://kgmas.example/vocab#StackPalletStep1: "
                                 "expected one step index")
    assert str(unknown.value) == "no protocol matches the requested task"
    assert main(["validate", "--setup", setup]) == 1
    assert capsys.readouterr().out == f"protocol\tstack_pallet\t{broken.value}\n"


def test_dump_is_a_fixed_point(tmp_path, capsys):
    assert main(["dump", "--setup", SETUP]) == 0
    first = capsys.readouterr().out
    # the store's index walk writes what the reference renders from the parsed triples
    assert first == reference_serialize(parse_turtle(fixture_text("fig3_setup.ttl")))
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

    # blank lines are skipped, and the line numbers count them
    path.write_text("1\ta\tb\tc\td\t{}\n\nx\ta\tb\tc\td\t{}\n", encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    assert "trace line 3: bad sequence number" in capsys.readouterr().err
    path.write_text("1\ta\tb\tc\td\t{}\n \n\n2\ta\tb\tc\td\t{}\n", encoding="utf-8")
    assert main(["trace", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


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
