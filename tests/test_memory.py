"""Memory bounds of the score pipeline and the minor scan, measured with
tracemalloc.

A score file is records x labels floats, so every whole-matrix copy the
pipeline makes is a multiple of the data.  These tests hold the parse to
the array plus a fixed text budget and the whole ``metrics`` command to
twice the array.  The minor scan is held to a few blocks, however many
minors it checks, the region sampler to a few chunks of logits, however
many probes it examines, and a report's file write to the text and one
slice of it.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from argmaxable import cli, reportio
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


def test_emit_holds_the_text_and_one_slice(tmp_path):
    # Written whole, a report is held as a str and as its encoded bytes at
    # once, twice the text.  The text is made inside the measured call, so
    # the bound is the text plus a few slices.
    target = tmp_path / "report.json"
    line, lines = "[0.5, 1e-3]\n", 2 * cli._EMIT_SLICE + 1234
    _, peak = _peak(lambda: cli._emit(line * lines, str(target)))
    size = len(line) * lines
    assert peak <= size + 3 * cli._EMIT_SLICE, (peak, size)
    assert target.read_bytes() == (line * lines).encode()
    # A small report, one slice, with non-ASCII text and newlines, has the
    # bytes a whole write gives.
    small = '{"members": ["+\u2212+"]}\n' * 1000
    cli._emit(small, str(target))
    assert target.read_bytes() == small.encode("utf-8")


MINOR_SCAN = r"""
import json, sys, tracemalloc
import numpy as np
from argmaxable import linalg
from argmaxable.dftlayer import build_dft_matrix
if sys.argv[1] == "spectral":
    w = build_dft_matrix(20, 4)
else:
    w = linalg.WeightMatrix(np.random.default_rng(28).standard_normal((400, 2)))
tracemalloc.start()
status = linalg.gr_plus_status(w)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([status.checked_minors, peak, linalg._MINOR_CHUNK]))
"""


def _scan_peak(layer):
    """The minors a scan of ``layer`` checked, its peak and the chunk, from
    a fresh interpreter, which keeps what earlier scans left in this
    process out of the count."""
    done = subprocess.run(
        [sys.executable, "-c", MINOR_SCAN, layer],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_minor_scan_holds_a_few_blocks():
    # 79,800 minors of a 400 x 2 layer in 337 blocks of as many distinct
    # shapes: an index block kept per shape, or a buffer for every minor,
    # breaks the bound.
    checked, peak, chunk = _scan_peak("gaussian-400x2")
    assert checked == 79_800
    d = 2
    assert peak <= 4 * chunk * d * (d + 1) * 8, peak


def test_minor_scan_of_a_deep_layer_holds_two_levels_and_its_tables():
    # The 20 x 9 layer runs the recursion through nine levels.  The scan
    # holds two of them, at most levels d - 2 and d - 1 since level d
    # streams in blocks; the reads and ranks of its d + 1 colex tables and
    # one level's gathers of the signed column through those reads, each
    # of the three at most chunk d(d+1)/2 values; and a block.  A buffer
    # for every minor, 1.3 MB, breaks the bound.
    checked, peak, chunk = _scan_peak("spectral")
    n, d = 20, 9
    assert checked == math.comb(n, d)
    levels = 8 * (math.comb(n, d - 2) + math.comb(n, d - 1))
    bound = levels + 3 * 8 * chunk * d * (d + 1) // 2
    assert peak <= bound < peak + 8 * math.comb(n, d), (peak, bound)


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
# The largest chunk the sampler walks, read from its calls.
chunks = []
walk = oracle._walk_logits
oracle._walk_logits = lambda *args: chunks.append(args[2]) or walk(*args)
tracemalloc.start()
regions = oracle.enumerate_regions_sampled(w, budget=10**6)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([w.n, regions.samples_used, peak, max(chunks)]))
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


DECODE = r"""
import json, sys, tracemalloc
import numpy as np
from argmaxable import oracle
from argmaxable.linalg import WeightMatrix
n, d = map(int, sys.argv[1:3])
w = WeightMatrix(np.random.default_rng(30).standard_normal((n, d)))
oracle.enumerate_regions_sampled(w, budget=1)
chunks = []
walk = oracle._walk_logits
oracle._walk_logits = lambda *args: chunks.append(args[2]) or walk(*args)
tracemalloc.start()
regions = oracle.enumerate_regions_sampled(w, budget=20_000)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([w.n, len(regions.members), peak, max(chunks)]))
"""


@pytest.mark.parametrize(
    "shape", [(300, 3), (60, 6)], ids=["byte-codes-300x3", "int-codes-60x6"]
)
def test_sampler_holds_its_members_packed(shape):
    # 20,000 probes find ~29,000 members of the 300 x 3 layer and ~39,000
    # of the 60 x 6 one.  The sampler holds one chunk's logits, rounded up
    # to whole circles, and per member its packed code twice (the set's
    # bytes or int, then the sorted rows) and under 256 bytes of objects
    # (the set's entry and the object's header).  Members decoded to one
    # byte per label break the bound at 300 labels, and a frozenset of
    # assignments at both shapes.
    done = subprocess.run(
        [sys.executable, "-c", DECODE, *map(str, shape)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    n, members, peak, chunk = json.loads(done.stdout.strip().splitlines()[-1])
    code = 8 if n <= 64 else (n + 7) // 8
    assert peak <= (chunk + n) * n * 8 + members * (2 * code + 256), (peak, members)
    assert 8 * members * n > 2 * chunk * n * 8
