"""One benchmark stage in its own process, optionally traced.

    python bench/child.py setup --spec GEN --out NET --config CFG --result OUT [--trace SPANS]
    python bench/child.py cli --trace SPANS -- <hyperobs CLI arguments>

``setup`` times ``import hyperobs``, ``hyperobs generate`` and the config
loading and system build a design run starts with, and writes
``{"setup_s": ..., "hyperobs": <module path>}`` to ``--result``.  ``cli`` runs
one CLI command under the tracer; untraced CLI stages run
``python -m hyperobs.cli`` directly instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _tracer(path):
    if path is None:
        return None, []
    from spans import Tracer, install  # the bench directory is sys.path[0]

    tracer = Tracer()
    return tracer, install(tracer)


def setup(args) -> int:
    t0 = time.perf_counter()
    import hyperobs
    from hyperobs import cli, config

    tracer, missing = _tracer(args.trace)
    rc = cli.main(["generate", "--spec", args.spec, "--out", args.out])
    if rc != 0:
        return rc
    doc = config.load_config(args.config)
    network = config.resolve_hypergraph(doc, Path(args.config).resolve().parent)
    config.build_system(doc, network)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(args.trace, missing)
    Path(args.result).write_text(
        json.dumps({"setup_s": elapsed, "hyperobs": hyperobs.__file__}) + "\n"
    )
    return 0


def traced_cli(args) -> int:
    import hyperobs  # noqa: F401  (every module must be loaded before patching)
    from hyperobs import cli

    tracer, missing = _tracer(args.trace)
    rc = cli.main(args.argv)
    tracer.dump(args.trace, missing)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="stage", required=True)
    s = sub.add_parser("setup")
    for flag in ("--spec", "--out", "--config", "--result"):
        s.add_argument(flag, required=True)
    s.add_argument("--trace", default=None)
    s.set_defaults(func=setup)
    c = sub.add_parser("cli")
    c.add_argument("--trace", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=traced_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
