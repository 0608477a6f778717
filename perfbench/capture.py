"""Writes perfbench/expected.json from the program as it stands.

Run it from the root of a checkout only when the program's output is meant
to change; the benchmark treats every difference from the captured values
as a failed job:

    python3 perfbench/capture.py

It records the sha256 of stdout for every fixed-input CLI job, the
dimension lists of the generic_profile library jobs, and, for each
dense_conjugates case, the conjugation-invariant parts of `verify` and
`analyze` on the unconjugated built-in at the same field and q.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402


def main():
    digests = {}
    for argv_list in jobs.FIXED_ARGV.values():
        for argv in argv_list:
            code, out = jobs.run_cli(argv)
            if code != 0:
                sys.exit("%s exited %d" % (" ".join(argv), code))
            digests[" ".join(argv)] = jobs.sha256(out)
    dims = {name: jobs.library_result(N, method, degrees) for name, N, method, degrees in jobs.LIBRARY_JOBS}
    references = {}
    for name, N, field_args in jobs.CONJUGATE_CASES:
        builtin = ["--builtin", "dj", "--dim", str(N)] + field_args
        ref = {}
        for command, project in (("verify", jobs.verify_invariants), ("analyze", jobs.analyze_invariants)):
            code, out = jobs.run_cli([command] + builtin)
            if code != 0:
                sys.exit("%s %s exited %d" % (command, builtin, code))
            ref[command] = project(json.loads(out))
        references[name] = ref
    with open(jobs.EXPECTED_PATH, "w") as fh:
        json.dump({"digests": digests, "dims": dims, "references": references}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
