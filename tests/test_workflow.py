"""The CI workflow's NumPy-only step, run here from the YAML as written.

The `NumPy-only install` step of .github/workflows/tests.yml is read with
yaml.safe_load and its `run` script is run under bash, with these
substitutions and no others:

- The `python -m venv` line and the `pip install` line are dropped: they
  need the network.  Every other line runs as written.
- RUNNER_TEMP is a fresh temporary directory.
- $RUNNER_TEMP/bare/bin/python runs this interpreter (sys.executable), and
  $RUNNER_TEMP/bare/bin/aoasim runs it on the console script's entry point,
  aoasim.cli:main.  Both put the tree's src first on the path, and before it
  a sitecustomize whose meta-path finder blocks scipy, as a venv without the
  test extra lacks it.
- bash runs with the options GitHub Actions gives a `shell: bash` step:
  --noprofile --norc -eo pipefail.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

_NO_SCIPY = """\
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _NoScipy())
"""

_SHIMS = {
    "python": '"$@"',
    "aoasim": "-c 'import sys; from aoasim.cli import main; sys.exit(main())' \"$@\"",
}


def numpy_only_script(workflow):
    """The step's run script without its venv and pip install lines."""
    steps = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]
    [step] = [step for step in steps if step.get("name") == "NumPy-only install"]
    assert step["shell"] == "bash"
    lines = step["run"].splitlines()
    kept = [line for line in lines
            if not line.startswith(("python -m venv ", '"$RUNNER_TEMP/bare/bin/pip" install '))]
    assert len(lines) - len(kept) == 2, "the venv and pip install lines are not as expected"
    return "\n".join(kept) + "\n"


def run_numpy_only_step(workflow, tmp_path):
    """Runs the step's script in the repository root; returns the finished process."""
    site, bin_dir = tmp_path / "site", tmp_path / "bare" / "bin"
    site.mkdir()
    bin_dir.mkdir(parents=True)
    (site / "sitecustomize.py").write_text(_NO_SCIPY, encoding="utf-8")
    for name, argv in _SHIMS.items():
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nPYTHONPATH="{site}:{ROOT / "src"}" exec "{sys.executable}" '
                        f"{argv}\n", encoding="utf-8")
        shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path))
    return subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                           numpy_only_script(workflow)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_numpy_only_step_passes_as_written(tmp_path):
    result = run_numpy_only_step(WORKFLOW, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    # what the step made: every command's files, and the two error records
    for made in ("bare-sim/report.json", "bare-sim-paths/spectrum.csv", "bare-sweep/sweep.csv",
                 "bare-tabulated/report.json", "bare-tabulated-binned/spectrum.csv",
                 "bare-hpbw60/report.json"):
        assert (tmp_path / made).is_file(), made
    # the sweep's last point, checked against the plain run at its beamwidth
    assert "sweep point at 60 degrees equals simulate: True\n" in result.stdout
    assert '"error": "seed ' in (tmp_path / "bad_seed.err").read_text(encoding="utf-8")
    [record] = (tmp_path / "deep.err").read_text(encoding="utf-8").splitlines()
    assert json.loads(record)["error"] == f"{tmp_path / 'deep.json'}: JSON nested too deeply to load"
