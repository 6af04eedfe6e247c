"""Golden outputs: each fixed benchmark job, run in-process with `--json`,
must print exactly the bytes whose sha256 the benchmark recorded, and the
counts stated in the paper must hold.  This is the gate for refactors that
promise unchanged results."""

import contextlib
import hashlib
import importlib.util
import io
import os

import pytest

from clawforge.cli import main

# perfbench/workloads.py is read, never edited: it holds the recorded hashes
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

JOBS = [(job, digest) for jobs in workloads.FIXED_JOBS.values()
        for job, digest in jobs.items()]


@pytest.mark.parametrize("job,digest", JOBS, ids=[job for job, _ in JOBS])
def test_fixed_job_output_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split() + ["--json"])
    out = buf.getvalue()
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert workloads.check_paper_counts(job, out)


def test_paper_counts_name_fixed_jobs():
    # the counts are checked only on jobs the test above runs
    assert set(workloads.PAPER_COUNTS) <= {job for job, _ in JOBS}
