"""Entry point of the repository benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload replay-short --seed 1 --seconds 25 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from wirabench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
