import numpy as np

from dmst import autodiff as ad
from dmst.memcount import AllocationCounter, count_floats, track


def test_track_registers_sizes_with_active_counter():
    with count_floats() as counter:
        track(np.zeros((3, 4)))
        track(np.zeros(5))
    assert counter.total_floats == 17


def test_track_is_a_no_op_without_a_counter():
    arr = np.zeros(6)
    assert track(arr) is arr


def test_track_returns_the_array_inside_a_counter():
    with count_floats():
        arr = np.zeros(2)
        assert track(arr) is arr


def test_nested_counters_both_accumulate():
    with count_floats() as outer:
        track(np.zeros(10))
        with count_floats() as inner:
            track(np.zeros(7))
        track(np.zeros(1))
    assert inner.total_floats == 7
    assert outer.total_floats == 18


def test_counter_stops_at_block_exit():
    with count_floats() as counter:
        track(np.zeros(4))
    track(np.zeros(100))
    assert counter.total_floats == 4


def test_counter_direct_accumulation():
    counter = AllocationCounter()
    counter.add(3)
    counter.add(4)
    assert counter.total_floats == 7


def test_autodiff_nodes_count_owned_arrays_and_skip_views():
    a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.Tensor(np.ones((4, 5)))
    with count_floats() as counter:
        c = a @ b  # owns 15 floats
        view = ad.transpose(ad.reshape(c, (5, 3)), (1, 0))  # views of c: not counted
        scaled = view * 2.0  # owns 15
        flat = ad.reshape(ad.transpose(c, (1, 0)), (15,))  # a non-contiguous reshape copies: 15
        total = ad.sum_(scaled) + ad.sum_(flat)  # 1 + 1 + 1
    assert counter.total_floats == 48
    assert total.data.shape == ()

