"""Command-line interface.

Commands operate on a ring-spec file (a path, or the name of a bundled
ring from parres/rings/) and write a report in text or structured JSON form.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .algebra import AlgebraError, PolyParseError
from .harness import (EXPERIMENTS, load_ring_spec, parse_ring_spec,
                      run_experiment)

BUNDLED = ("r1", "r2", "regular", "hypersurface", "nonflc")
DEFAULT_CAP = 4
DEFAULT_POWER_MAX = 4


def bundled_ring_text(name):
    ref = resources.files("parres.rings").joinpath(f"{name}.ring")
    return ref.read_text(encoding="utf-8")


def _load(ring_arg):
    import os
    if ring_arg in BUNDLED and not os.path.exists(ring_arg):
        return parse_ring_spec(bundled_ring_text(ring_arg), name=ring_arg)
    return load_ring_spec(ring_arg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parres",
        description="Graded free resolutions and Koszul homology over "
                    "quotient rings\nof polynomial rings over a prime field.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<14}{help_text}"
            for name, (help_text, _, _) in EXPERIMENTS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=list(EXPERIMENTS),
                        metavar="command", help="one of the commands below")
    parser.add_argument("--ring", required=True,
                        help="ring-spec file path, or bundled name: "
                             + ", ".join(BUNDLED))
    parser.add_argument("--sop", default=None,
                        help="name of the [sop <name>] section to use")
    parser.add_argument("--cap", type=int, default=None,
                        help="homological degree cap (default from [caps], "
                             f"else {DEFAULT_CAP})")
    parser.add_argument("--power-max", type=int, default=None,
                        help="largest sequence power scanned (default from "
                             f"[caps], else {DEFAULT_POWER_MAX})")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write the report to this path instead of stdout")
    return parser


def run(args):
    spec = _load(args.ring)
    cap = args.cap if args.cap is not None else spec.cap("homological",
                                                         DEFAULT_CAP)
    nmax = (args.power_max if args.power_max is not None
            else spec.cap("power", DEFAULT_POWER_MAX))
    # only invariants runs without a sop: it picks a reference one
    x = (None if args.command == "invariants" and not spec.sops
         else spec.sop(args.sop))
    return run_experiment(args.command, spec.ring, x, cap, nmax)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except (AlgebraError, PolyParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed() else 2


if __name__ == "__main__":
    sys.exit(main())
