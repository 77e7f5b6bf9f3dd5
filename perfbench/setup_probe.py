"""One cold set-up of garnet, timed inside a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload>

Times `import garnet`, parsing the workload's generator fixtures, and
building and validating the first GeneratedAWFS; prints {"setup_s": ...}.
run.py starts this several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path

from jobs import load_env


def main():
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import garnet
    load_env(garnet, root / "fixtures", sys.argv[2])
    elapsed = time.perf_counter() - t0
    if not Path(garnet.__file__).resolve().is_relative_to(
            (root / "src").resolve()):
        sys.exit("garnet was not imported from the checkout")
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
