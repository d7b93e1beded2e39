"""The Monte Carlo blocks on the calling thread plus one helper.

``randomness._map_blocks`` runs the Schmidt tail's and the projector moment's
blocks on two threads when more than one CPU is usable.  Every report must be
bit-identical to the one-thread run, whatever the block count; an exception on
either thread must reach the caller with no thread left behind; and a helper
that cannot start must leave the same bits on the calling thread.  The CPU
count is patched through ``os.sched_getaffinity``.
"""

import os
import threading
import time

import numpy as np
import pytest

from symsub.cli import main
from symsub.concentration import MultiPartition, experiment_product_free, experiment_schmidt_tail
from symsub.randomness import BLOCK_SIZE, SPLIT_LIMIT, RngStream, _map_blocks, mc_projector_moment

SAMPLES = [1, 1024, 1025, 2048, 2049, 3 * 1024 + 1]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def _schmidt_bits(d, samples):
    report = experiment_schmidt_tail(d, samples, 0.05, RngStream(50, d))
    return report.exceedances, np.float64(report.mean_top_schmidt).tobytes()


def _moment_bits(dim, rank, samples):
    est = mc_projector_moment(dim, rank, 3, samples, RngStream(51, dim))
    return np.float64(est.mean).tobytes(), np.float64(est.stderr).tobytes()


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("d", [1, 2, 16, 32])
def test_schmidt_tail_on_two_threads_is_the_one_thread_report(monkeypatch, d, samples):
    _cpus(monkeypatch, 1)
    serial = _schmidt_bits(d, samples)
    _cpus(monkeypatch, 2)
    started = _count_starts(monkeypatch)
    assert _schmidt_bits(d, samples) == serial
    assert len(started) == (samples > BLOCK_SIZE)


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("dim,rank", [(64, 8), (4, 1), (65, 3)])
def test_projector_moment_on_two_threads_is_the_one_thread_estimate(monkeypatch, dim, rank, samples):
    _cpus(monkeypatch, 1)
    serial = _moment_bits(dim, rank, samples)
    _cpus(monkeypatch, 2)
    started = _count_starts(monkeypatch)
    assert _moment_bits(dim, rank, samples) == serial
    assert len(started) == (samples > BLOCK_SIZE)


def test_blocks_split_between_the_caller_and_one_helper_in_block_order(monkeypatch):
    _cpus(monkeypatch, 4)  # still one helper: two slots whatever the CPU count
    caller = threading.get_ident()
    made_on = []

    def scratch():
        made_on.append(threading.get_ident())
        return []

    def fn(block, size, buffers):
        buffers.append(block)  # each thread keeps its own buffers
        return block, size, threading.get_ident(), buffers

    results = _map_blocks(fn, 5 * BLOCK_SIZE - 1, scratch)
    assert [r[:2] for r in results] == [(b, BLOCK_SIZE) for b in range(4)] + [(4, BLOCK_SIZE - 1)]
    assert made_on == [caller, caller]
    threads = [r[2] for r in results]
    assert threads[0::2] == [caller] * 3
    assert len(set(threads[1::2])) == 1 and threads[1] != caller
    assert results[0][3] == [0, 2, 4] and results[1][3] == [1, 3]


def test_one_cpu_or_one_block_runs_on_the_calling_thread(monkeypatch):
    started = _count_starts(monkeypatch)
    fn = lambda block, size, buffers: threading.get_ident()
    _cpus(monkeypatch, 1)
    assert set(_map_blocks(fn, 3 * BLOCK_SIZE, lambda: None)) == {threading.get_ident()}
    _cpus(monkeypatch, 2)
    assert _map_blocks(fn, BLOCK_SIZE, lambda: None) == [threading.get_ident()]
    assert started == []


def test_an_exception_on_the_helper_reraises_in_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)
    caller = threading.current_thread()
    before = threading.active_count()

    def fn(block, size, buffers):
        if threading.current_thread() is not caller:
            raise ValueError(f"helper failed on block {block}")
        return block

    with pytest.raises(ValueError, match="helper failed on block 1"):
        _map_blocks(fn, 4 * BLOCK_SIZE, lambda: None)
    assert threading.active_count() == before


def test_an_exception_on_the_caller_stops_the_helper(monkeypatch):
    _cpus(monkeypatch, 2)
    caller = threading.current_thread()
    before = threading.active_count()
    helper_blocks = []

    def fn(block, size, buffers):
        if threading.current_thread() is caller:
            raise ValueError("caller failed")
        helper_blocks.append(block)
        time.sleep(0.005)  # 32 helper blocks would take 0.16 s
        return block

    with pytest.raises(ValueError, match="caller failed"):
        _map_blocks(fn, 64 * BLOCK_SIZE, lambda: None)
    assert threading.active_count() == before
    assert 0 < len(helper_blocks) < 32


def test_a_helper_that_cannot_start_leaves_the_same_bits(monkeypatch):
    _cpus(monkeypatch, 1)
    serial = _schmidt_bits(16, 2049), _moment_bits(64, 8, 2049)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.active_count()
    assert (_schmidt_bits(16, 2049), _moment_bits(64, 8, 2049)) == serial
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# split indices that would reach another stream's substreams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [-1, SPLIT_LIMIT, 65536, 1 << 20])
def test_split_refuses_indices_past_its_16_bits(index):
    with pytest.raises(ValueError, match="split index must be in"):
        RngStream(7).split(index)


def test_accepted_split_indices_keep_their_streams():
    assert SPLIT_LIMIT == 65535
    assert RngStream(7).split(65534) == RngStream(7, 65535)
    assert RngStream(7, 3).split(65534) == RngStream(7, (3 << 16) ^ 65535)
    assert RngStream(7, 1).split(0) == RngStream(7, (1 << 16) ^ 1)


def test_product_free_refuses_a_trial_count_before_its_first_trial(monkeypatch):
    import symsub.randomness as randomness

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(randomness, "random_projector", no_trial)
    part = MultiPartition((2, 2))  # rank 2 misses the threshold: no trial runs when accepted
    assert experiment_product_free(part, 2, 1, RngStream(3), trials=32767).trials == 0
    with pytest.raises(ValueError, match="32768 trials take stream split index 65535"):
        experiment_product_free(part, 2, 1, RngStream(3), trials=32768)
    with pytest.raises(ValueError, match="32768 trials take stream split index 65535"):
        experiment_product_free(MultiPartition((2, 3)), 2, 1, RngStream(3), trials=32768)


def test_productfree_past_the_trial_limit_exits_2(capsys):
    code = main(["mc", "productfree", "--dims", "2,3", "--r", "2", "--trials", "32768"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "symsub: error: 32768 trials take stream split index 65535: split index must be in [0, 65535), got 65535\n"
    )
