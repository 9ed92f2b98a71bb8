"""Record the reference answers of every cohomology query into expected.json.

Run from the repository root on the commit whose answers are the reference:

    PYTHONPATH=src python3 perfbench/record_expected.py

A query that raises records the exception type instead of an answer, so a
known defect is checked as such.  The README numbers are checked as the
answers are recorded; the script exits 1 if any disagree.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    from hopfcyclic import cli

    out, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (spec, _) in sorted(workloads.COLD_JOBS.items()):
            if isinstance(spec, list):
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(["--output", tmp] + spec)
                if status != 0:
                    problems.append(f"{name}: nonzero exit status")
                report = json.loads(workloads.report_path(spec, Path(tmp)).read_text())
            else:
                report = workloads.run_query(spec)
            out[name] = workloads.summarize(report)
    for q in workloads.STREAM_CATALOG:
        key = workloads.query_key(q)
        try:
            out[key] = workloads.summarize(workloads.run_query(q))
        except Exception as exc:  # recorded as the query's reference outcome
            out[key] = {"error": type(exc).__name__, "message": str(exc)}
    for key, s in out.items():
        if "error" not in s:
            problems += [f"{key}: {p}" for p in workloads.readme_problems(key, s)]
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(out.items())]
    workloads.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for p in problems:
        print("README mismatch:", p, file=sys.stderr)
    print(f"recorded {len(out)} answers into {workloads.EXPECTED_PATH.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
