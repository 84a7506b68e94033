"""Set-up probe: a fresh interpreter imports critvar from the checkout's
`src/`, parses the scenario INI given as argv[1], builds its grid, and
prints `ready`.  `run.py` times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from critvar.harness import parse_scenario  # noqa: E402

parse_scenario(Path(sys.argv[1]).read_text()).build_grid()
print("ready", flush=True)
