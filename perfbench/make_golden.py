"""Write the golden reports that the benchmark compares byte for byte.

    python3 perfbench/make_golden.py

golden/default/<ring>.<subcommand>.json: the `--format structured` report of
every (subcommand, bundled ring) CLI run at its default caps (40 files).
golden/deep/<op>.json: the report of each `deep` op.  Rewrite them only
when a change to parres is meant to change these outputs.
"""

from __future__ import annotations

import sys

from run import SRC, Api

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main():
    api = Api()
    default = workloads.GOLDEN / "default"
    deep = workloads.GOLDEN / "deep"
    default.mkdir(parents=True, exist_ok=True)
    deep.mkdir(parents=True, exist_ok=True)
    for name, argv in workloads.default_cap_runs():
        (default / name).write_text(workloads.cli_report(api, argv),
                                    encoding="utf-8")
    for key, argv in workloads.Deep.CLI_OPS.items():
        (deep / f"{key}.json").write_text(workloads.cli_report(api, argv),
                                          encoding="utf-8")
    key, ring, cap = workloads.Deep.RESIDUE
    (deep / f"{key}.json").write_text(
        workloads.residue_field(api, ring, cap)[0], encoding="utf-8")


if __name__ == "__main__":
    main()
