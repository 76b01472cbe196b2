import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# the benchmark's modules import one another as top-level modules, as they
# do when run.py runs as a script; statdisc comes from the source tree
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
