#!/usr/bin/env python3
"""List the executable lines of ``src/coxembed`` that no benchmark op runs.

    python3 scripts/unbenched_lines.py --workload kernels --seed 1
    python3 scripts/unbenched_lines.py --workload verify-finite --workload verify-infinite \\
        --workload kernels --workload cli --seed 1 --seed 97 > unbenched.txt

Prepares and runs each op of the given workloads and seeds once, as
``scripts/op_digests.py`` does (CLI ops in process, ``--workload`` and
``--seed`` repeatable, the seed defaulting to 1), under the line
recorder of ``scripts/untested_lines.py``.  Then prints, in that
script's ``path:line: source`` format and with a count, the executable
lines of ``src/coxembed`` that neither preparing nor running any op
reached.  Each workload's setup imports coxembed afresh, so import-time
lines count as run.  Standard library only.  Exits 1 if an op failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import op_digests  # noqa: E402
import untested_lines  # noqa: E402


def main(argv=None) -> int:
    args = op_digests.parse_args(__doc__.splitlines()[0], argv)
    failed, ran = untested_lines.record(
        lambda: sum(line.startswith("FAILED") for *_, line in op_digests.run_ops(args.workload, args.seed))
    )
    untested_lines.report(ran)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
