import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    scenario_id, mean_regret, collision_frames = capsys.readouterr().out.split()
    assert scenario_id.startswith("StrandedTruck-7-")
    assert 0.0 <= float(mean_regret) <= 1.0
    assert int(collision_frames) >= 0
