"""Golden outputs: each fixed benchmark job, run in-process with `--json`,
must print exactly the bytes whose sha256 the benchmark recorded, and the
counts stated in the paper must hold.  The `verify gas3d` laws files of one
fixed verify-seeded seed must get the verdicts their construction fixes and
print the recorded bytes, and so must five `--verbose` mixed jobs, which
print the stripped laws and the trivial witnesses.  This is the gate for
refactors that promise unchanged results."""

import contextlib
import hashlib
import importlib.util
import io
import os
import random

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


# sha256 of the `verify gas3d FILE --json` report of each laws file that
# workloads.verify_files(random.Random(VERIFY_SEED)) generates
VERIFY_SEED = 7
VERIFY_DIGESTS = (
    "0510e2d7fa3386fbe43c5a1413a8b39b89cf4e3b96921930027e5eeb90489496",
    "92028cc086a759d1fb707eead04db506d1778edb2e631ca2831754cae542dd05",
)


def test_seeded_verify_output_unchanged(tmp_path):
    files = workloads.verify_files(random.Random(VERIFY_SEED))
    assert len(files) == len(VERIFY_DIGESTS)
    for i, ((text, expected), digest) in enumerate(zip(files, VERIFY_DIGESTS)):
        path = tmp_path / f"verify-{i}.laws"
        path.write_text(text, encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["verify", "gas3d", str(path), "--json"])
        out = buf.getvalue()
        assert workloads.check_verify_output(out, rc, expected)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `mixed kdv --generator X4 --verbose --json`: the trivial laws and
# their witnesses are printed only under --verbose, which no fixed job uses
VERBOSE_JOB = "mixed kdv --generator X4 --verbose --json"
VERBOSE_DIGEST = (
    "5f3e87e046ce0f0a4bb048e28540a81804857869a2346032377038615cfb0435")


def test_verbose_trivial_witnesses_unchanged():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(VERBOSE_JOB.split())
    out = buf.getvalue()
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERBOSE_DIGEST


# sha256 of `--verbose --json` of more mixed jobs, recorded like the pin
# above: the stripped forms and the trivial witnesses of every model with
# two independent variables
VERBOSE_PINS = {
    "mixed kdv --generator X2":
        "34b19ea8bdff99c37b73e1f1345345c97d3541e52d293923849dbe54587d9128",
    "mixed fw --generator X1":
        "205d9eba297b772eba2fd423d089d40aba457f69be6b2b56b0b0098b8e297302",
    "mixed sp --generator X3":
        "7550aa2c7b36ea09d6a6a242fef4f9eec6cbcf1799396eee49d16a7cb5f56841",
    "mixed gas1d --generator X0 --psi-degree 1":
        "5e9ed088c2212fe03c730e25f77381ab4498cc78af92a33d0b7e1a1a95e56bf2",
}


@pytest.mark.parametrize("job,digest", VERBOSE_PINS.items(),
                         ids=list(VERBOSE_PINS))
def test_verbose_mixed_output_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split() + ["--verbose", "--json"])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
