"""Write a scheme JSON file with its points permuted by a seeded shuffle.

Usage: python3 bench/relabel.py SOURCE TARGET SEED

The benchmark runs this in its own process. A child's peak RSS from
``os.wait4`` counts the parent's RSS at the moment of the fork. If the
benchmark parsed the 3.5 MB asl2:8 scheme itself, every later child would
read at least about 80 MiB.
"""

from __future__ import annotations

import json
import random
import sys


def main(argv):
    if len(argv) != 3:
        print("usage: relabel.py SOURCE TARGET SEED", file=sys.stderr)
        return 2
    source, target, seed = argv
    with open(source, encoding="utf-8") as handle:
        data = json.load(handle)
    perm = list(range(data["nu"]))
    random.Random(int(seed)).shuffle(perm)
    relations = [sorted([perm[x], perm[y], perm[z]] for x, y, z in rel)
                 for rel in data["relations"]]
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"nu": data["nu"], "relations": relations},
                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
