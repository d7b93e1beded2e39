"""The Haar states streamed chunk by chunk behind the Schmidt tail and the
projector moment, and the size guards on the Monte Carlo builders.

A block is drawn by successive ``haar_state_batch`` calls, each drawing one
chunk of rows straight into the same chunk-sized complex buffer through
``out``; their rows, and the state they leave the block generator in, must
equal one whole ``haar_state_batch`` draw.
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


def test_schmidt_tail_draws_two_normals_per_entry(monkeypatch):
    drawn = []  # outside the generator, so copies of it count here too

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            x = self.gen.standard_normal(*args, **kwargs)
            drawn.append(np.size(x))
            return x

    block_generator = RngStream.block_generator
    monkeypatch.setattr(RngStream, "block_generator", lambda self, block: Counting(block_generator(self, block)))
    d, samples = 8, 1500
    experiment_schmidt_tail(d, samples, 0.2, RngStream(27))
    assert sum(drawn) == 2 * d * d * samples


def test_schmidt_tail_two_blocks_of_four_row_chunks_match_whole_block_svd():
    d, samples, epsilon, stream = 64, 1025, 0.2, RngStream(41)
    assert chunk_rows(d * d) == 4
    threshold = 16.0 / (np.e * d) * exp(epsilon)
    exceed, top_sum = 0, 0.0
    for block, start in enumerate(range(0, samples, 1024)):
        size = min(1024, samples - start)
        psi = haar_state_batch(d * d, stream.block_generator(block), size)
        lam = np.linalg.svd(psi.reshape(size, d, d), compute_uv=False)[:, 0] ** 2
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
