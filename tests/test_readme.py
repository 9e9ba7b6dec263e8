import argparse
import re
import shlex
from pathlib import Path

from regret_miner import simkit
from regret_miner.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    scenario_id, mean_regret, collision_frames = capsys.readouterr().out.split()
    assert scenario_id.startswith("StrandedTruck-7-")
    assert 0.0 <= float(mean_regret) <= 1.0
    assert int(collision_frames) >= 0


def test_readme_command_lines_parse():
    parser = build_parser()
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"```\n(.*?)```", section, flags=re.S)
                for line in block.splitlines() if line.startswith("regret-miner ")]
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted({argv[0] for argv in commands}) == sorted(subcommands)


def test_readme_names_the_scene_schema_written():
    section = README.read_text().split("## Artifacts", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"scenes \(`(scene/\d+)`", section) == [simkit.SCENE_SCHEMA]
