"""The draws streamed chunk by chunk behind the Schmidt tail and the
projector moment, and the size guards on the Monte Carlo builders.

A block is drawn by successive calls, one a chunk of whole rows, each into
the same chunk-sized buffer through ``out``: ``haar_state_batch`` for Haar
states, ``schmidt_spectrum_batch`` for the Schmidt tail's chi-squares and
tridiagonals, and ``Generator.standard_gamma`` for the projector moment's
gamma pairs.  Their rows, and the state they leave the block generator in,
must equal one whole-block draw.
"""

import tracemalloc
from math import exp

import numpy as np
import pytest

from symsub.cli import main
from symsub.concentration import experiment_schmidt_tail
from symsub.guards import DimensionGuardError, set_max_dim
from symsub.randomness import (
    RngStream,
    chunk_rows,
    haar_state_batch,
    haar_unitary,
    mc_projector_moment,
    random_projector,
    schmidt_spectrum_batch,
)
from symsub.tensorspace import tensor_power_span_rank


@pytest.mark.parametrize("d", [1, 9, 1024, 16384])
def test_chunk_sized_buffer_gives_batch_rows_and_generator_state(d):
    rows = chunk_rows(d)
    count = 3 * rows + max(1, rows // 2)  # several whole chunks, then a partial one
    batch_gen = RngStream(40, d).block_generator(0)
    want = haar_state_batch(d, batch_gen, count)
    gen = RngStream(40, d).block_generator(0)
    z = np.full((rows + 2, d), np.nan, dtype=complex)
    starts, chunks = [], []
    for start in range(0, count, rows):
        chunks.append(haar_state_batch(d, gen, min(rows, count - start), out=z).copy())
        starts.append(start)
    assert starts == list(range(0, count, rows))
    got = np.concatenate(chunks)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.isnan(z[rows:]).all()
    assert gen.standard_normal(5).tobytes() == batch_gen.standard_normal(5).tobytes()


@pytest.mark.parametrize("d", [1, 2, 9, 90])
def test_chunked_schmidt_spectra_give_batch_rows_and_generator_state(d):
    rows = chunk_rows(d * d)
    count = 3 * rows + max(1, rows // 2)  # several whole chunks, then a partial one
    batch_gen = RngStream(42, d).block_generator(0)
    want = schmidt_spectrum_batch(d, batch_gen, count)
    gen = RngStream(42, d).block_generator(0)
    t = np.full((rows + 2, d * d), np.nan)
    got = np.concatenate(
        [schmidt_spectrum_batch(d, gen, min(rows, count - start), out=t) for start in range(0, count, rows)]
    )
    assert got.shape == (count, d) and got.tobytes() == want.tobytes()
    assert np.isnan(t[rows:]).all()
    assert gen.standard_normal(5).tobytes() == batch_gen.standard_normal(5).tobytes()


@pytest.mark.parametrize("dim,rank", [(1, 1), (4, 1), (64, 8), (16384, 3)])
def test_chunked_gamma_pairs_give_batch_rows_and_generator_state(dim, rank):
    rows = 300  # a block of gamma pairs fits one chunk, but any split of whole rows must draw alike
    count = 3 * rows + 17
    batch_gen = RngStream(43, dim).block_generator(0)
    want = batch_gen.standard_gamma([rank, dim - rank], size=(count, 2))
    gen = RngStream(43, dim).block_generator(0)
    pairs = np.empty((rows, 2))
    got = np.concatenate(
        [gen.standard_gamma([rank, dim - rank], out=pairs[: min(rows, count - start)]).copy() for start in range(0, count, rows)]
    )
    assert got.tobytes() == want.tobytes()
    assert gen.standard_normal(5).tobytes() == batch_gen.standard_normal(5).tobytes()


def test_schmidt_tail_traced_peak_is_a_few_chunks():
    # a whole block of real parts at d = 32 is 8 MiB; a few chunks are under 2 MiB
    experiment_schmidt_tail(16, 10, 0.2, RngStream(25))  # first-call imports and caches
    tracemalloc.start()
    try:
        experiment_schmidt_tail(32, 3000, 0.2, RngStream(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_projector_moment_traced_peak_is_a_few_chunks():
    # a whole block of draws at dim = 1024 is 16 MiB; a chunk a thread is 0.25 MiB
    mc_projector_moment(64, 8, 2, 10, RngStream(26))  # first-call imports and caches
    tracemalloc.start()
    try:
        mc_projector_moment(1024, 8, 2, 4096, RngStream(26))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_schmidt_tail_draws_2d_minus_1_chisquares_a_sample(monkeypatch):
    # the bidiagonal model draws no normals
    normals, chisquares = [], []  # outside the generator, so copies of it count here too

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            x = self.gen.standard_normal(*args, **kwargs)
            normals.append(np.size(x))
            return x

        def chisquare(self, *args, **kwargs):
            x = self.gen.chisquare(*args, **kwargs)
            chisquares.append(np.size(x))
            return x

    block_generator = RngStream.block_generator
    monkeypatch.setattr(RngStream, "block_generator", lambda self, block: Counting(block_generator(self, block)))
    d, samples = 8, 1500
    experiment_schmidt_tail(d, samples, 0.2, RngStream(27))
    assert sum(chisquares) == (2 * d - 1) * samples
    assert sum(normals) == 0


def test_schmidt_tail_two_blocks_of_four_row_chunks_match_whole_block_svd():
    # d = 90: four 90 x 90 float tridiagonals fill a chunk; the reference draws
    # and diagonalises each block whole
    d, samples, epsilon, stream = 90, 1025, 0.2, RngStream(41)
    assert chunk_rows(d * d) == 4
    threshold = 16.0 / (np.e * d) * exp(epsilon)
    df = 2.0 * np.array(list(range(d, 0, -1)) + list(range(d - 1, 0, -1)))
    i = np.arange(d)
    exceed, top_sum = 0, 0.0
    for block, start in enumerate(range(0, samples, 1024)):
        size = min(1024, samples - start)
        sq = stream.block_generator(block).chisquare(df, size=(size, 2 * d - 1))
        a, s = sq[:, :d], sq[:, d:]
        t = np.zeros((size, d, d))
        t[:, i, i] = a
        t[:, i[1:], i[1:]] += s
        t[:, i[1:], i[:-1]] = np.sqrt(a[:, :-1] * s)
        lam = np.linalg.eigvalsh(t)[:, -1] / sq.sum(axis=1)
        exceed += int(np.sum(lam >= threshold))
        top_sum += float(lam.sum())
    report = experiment_schmidt_tail(d, samples, epsilon, stream)
    assert (report.threshold, report.exceedances) == (threshold, exceed)
    assert report.mean_top_schmidt == top_sum / samples


# ---------------------------------------------------------------------------
# size guards; each size is just past its cap, so that a missing guard
# allocates little and fails the test instead of the machine
# ---------------------------------------------------------------------------

@pytest.fixture
def cap_64():
    set_max_dim(64)
    yield
    set_max_dim(None)


@pytest.mark.parametrize(
    "call",
    [
        lambda: haar_unitary(65, RngStream(1)),
        lambda: random_projector(65, 2, RngStream(1)),
        lambda: mc_projector_moment(65, 1, 2, 10, RngStream(1)),
        lambda: tensor_power_span_rank(9, 1, 100, RngStream(1)),  # rows of width 81
    ],
    ids=["haar_unitary", "random_projector", "mc_projector_moment", "tensor_power_span_rank"],
)
def test_builders_refuse_past_the_cap(cap_64, call):
    with pytest.raises(DimensionGuardError, match="refusing to materialize"):
        call()


def test_guards_keep_the_argument_checks_first(cap_64):
    with pytest.raises(ValueError, match="need 1 <= rank <= dim") as err:
        random_projector(65, 66, RngStream(1))
    assert not isinstance(err.value, DimensionGuardError)
    with pytest.raises(ValueError, match="need at least 86 samples") as err:
        tensor_power_span_rank(9, 1, 10, RngStream(1))
    assert not isinstance(err.value, DimensionGuardError)


@pytest.mark.parametrize(
    "argv,what",
    [
        (["mc", "moment", "--D", "16385", "--r", "1", "--n", "2", "--samples", "10"], "sample rows of dimension 16385"),
        (["--max-dim", "64", "mc", "productfree", "--dims", "5,13", "--r", "2", "--trials", "1"],
         "operator of dimension 65"),
        (["--max-dim", "100", "verify", "spans", "--d", "11", "--n", "1"], "span rows of dimension 121"),
    ],
)
def test_oversized_monte_carlo_requests_exit_3(capsys, argv, what):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"dimension guard: refusing to materialize {what} (cap ")
