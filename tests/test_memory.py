"""Memory bounds of the score pipeline and the minor scan, measured with
tracemalloc.

A score file is records x labels floats, so every whole-matrix copy the
pipeline makes is a multiple of the data.  These tests hold the parse to
the array plus a fixed text budget and the whole ``metrics`` command to
twice the array.  The minor scan is held to a few blocks, however many
minors it checks, and the region sampler to a few chunks of logits,
however many probes it examines.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from argmaxable import reportio
from argmaxable.cli import run
from argmaxable.reportio import parse_scores

RECORDS, LABELS = 300, 3000
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module", params=["\n", "\r\n"], ids=["lf", "crlf"])
def score_files(request, tmp_path_factory):
    """A score file and its gold labels, both with the param's line ending."""
    end = request.param
    rng = np.random.default_rng(27)
    scores = rng.standard_normal((RECORDS, LABELS))
    directory = tmp_path_factory.mktemp("scores")
    target = directory / "scores.csv"
    target.write_bytes(
        "".join(",".join(map(repr, row)) + end for row in scores.tolist()).encode()
    )
    gold = directory / "gold.txt"
    gold.write_bytes(
        (
            f"n={LABELS}{end}"
            + "".join(
                ",".join(map(str, sorted(rng.choice(LABELS, 5, replace=False) + 1)))
                + end
                for _ in range(RECORDS)
            )
        ).encode()
    )
    return target, gold, scores.nbytes


def _peak(call):
    """The call's result and the most memory it held at once, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_parse_holds_the_array_and_one_block(score_files):
    target, _, nbytes = score_files
    arr, peak = _peak(lambda: parse_scores(target))
    assert arr.nbytes == nbytes
    # np.loadtxt reading an iterator does not know the row count, so it
    # grows its array by about a quarter at a time; the text it is fed
    # is one block's raw bytes, decoded text and lines.
    budget = 16 * reportio._BLOCK_BYTES
    assert peak <= 1.25 * nbytes + budget, (peak, nbytes)


def test_metrics_command_stays_under_twice_the_array(score_files, tmp_path):
    target, gold, nbytes = score_files
    argv = ["metrics", "--scores", str(target), "--gold", str(gold)]
    argv += ["--k", "1,5,10", "--deterministic", "--out", str(tmp_path / "m.json")]
    code, peak = _peak(lambda: run(argv))
    assert code == 0
    assert peak <= 2 * nbytes, (peak, nbytes)


MINOR_SCAN = r"""
import json, tracemalloc
import numpy as np
from argmaxable import linalg
w = linalg.WeightMatrix(np.random.default_rng(28).standard_normal((400, 2)))
tracemalloc.start()
status = linalg.gr_plus_status(w)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([status.checked_minors, peak, linalg._MINOR_CHUNK]))
"""


def test_minor_scan_holds_a_few_blocks():
    # 79,800 minors of a 400 x 2 layer in 337 blocks of as many distinct
    # shapes: an index block kept per shape, or a buffer for every minor,
    # breaks the bound.  A fresh interpreter keeps what earlier scans left
    # in this process out of the count.
    done = subprocess.run(
        [sys.executable, "-c", MINOR_SCAN],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    checked, peak, chunk = json.loads(done.stdout.strip().splitlines()[-1])
    assert checked == 79_800
    d = 2
    assert peak <= 4 * chunk * d * (d + 1) * 8, peak


SAMPLER = r"""
import json, sys, tracemalloc
import numpy as np
from argmaxable import oracle
from argmaxable.dftlayer import build_dft_matrix
from argmaxable.linalg import WeightMatrix
if sys.argv[1] == "spectral":
    w = build_dft_matrix(10, 2)
else:
    w = WeightMatrix(np.random.default_rng(29).standard_normal((70, 3)))
# A first call imports what seeding needs (numpy pulls in ``secrets``,
# ~0.7 MB), which is no part of what the sampler holds.
oracle.enumerate_regions_sampled(w, budget=1)
tracemalloc.start()
regions = oracle.enumerate_regions_sampled(w, budget=10**6)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([w.n, regions.samples_used, peak, oracle._SAMPLE_CHUNK]))
"""


@pytest.mark.parametrize("layer", ["spectral", "gaussian-70x3"])
def test_sampler_holds_a_few_chunks_of_logits(layer):
    # One chunk's logits are chunk x n floats, and its 0/1 signs cast to
    # int64 for the coding as many.  The bound leaves room for one of
    # those and little else: a sampler that holds both at once, the
    # logits of every probe of the budget, or several chunks, breaks it.
    # A fresh interpreter keeps what earlier runs left in this process
    # out of it.
    done = subprocess.run(
        [sys.executable, "-c", SAMPLER, layer],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    n, used, peak, chunk = json.loads(done.stdout.strip().splitlines()[-1])
    assert used > chunk
    assert peak <= 2 * chunk * n * 8, peak
