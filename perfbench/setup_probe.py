"""One set-up measurement, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <client> <input dir> <output dir>

Times importing ``common_eig``, parsing every input of the workload and
running its first pair once, then prints ``{"setup_s": ...}``.  Reading the
manifest and writing nothing else keeps the timed region to the program's
own work.  ``run.py`` starts this several times, one after another, and
reports the median.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

from pairs import load_manifest


def main(argv):
    src, client_name, input_dir, output_dir = argv
    pairs = load_manifest(Path(input_dir))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import workloads

    client = workloads.CLIENTS[client_name](pairs, Path(output_dir))
    client.load()
    client.answer(pairs[0], client.run(pairs[0]))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
