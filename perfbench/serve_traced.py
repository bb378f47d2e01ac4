"""``repro serve`` with the per-layer timing wrappers installed.

Usage: ``python serve_traced.py OUT.json serve [repro serve options]``.
Runs the service exactly as ``python -m repro`` would and, when the
server stops, writes its layer metrics to ``OUT.json``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.layers import LayerTracer
    from repro.cli import main as repro_main

    tracer = LayerTracer()
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump({"metrics": tracer.metrics(),
                       "layer_s": sum(tracer.self_s.values())}, fh)


if __name__ == "__main__":
    sys.exit(main())
