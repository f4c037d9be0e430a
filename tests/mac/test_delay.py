"""Tests for the per-transmission latency composition."""

import pytest

from repro.core.metadata import DataDescriptor
from repro.core.packets import BROADCAST, Packet, PacketType
from repro.mac.contention import QuadraticContention
from repro.mac.delay import MacDelayModel
from repro.sim.rng import RandomStreams

from tests.helpers import RecordingChannel, build_network

ADV_BYTES = 2


def _broadcasts_with_contenders(contenders, count):
    """*count* ADV broadcasts from a node with *contenders* - 1 neighbours.

    Returns the network and the ready time of each transmission; a node
    far outside the zone keeps the field at two nodes or more.
    """
    positions = [(0.5 * i, 0.0) for i in range(contenders)] + [(1000.0, 0.0)]
    sandbox = build_network(positions, radius_m=20.0, seed=7, random_backoff=True)
    network = sandbox.network
    network.channel = channel = RecordingChannel()
    for _ in range(count):
        network.broadcast(
            0,
            Packet(
                packet_type=PacketType.ADV,
                descriptor=DataDescriptor("x"),
                sender=0,
                receiver=BROADCAST,
                origin=0,
                final_target=BROADCAST,
                size_bytes=ADV_BYTES,
            ),
        )
    return network, channel.ready_times


class TestMacDelayModel:
    def test_deterministic_without_rng(self):
        model = MacDelayModel(contention=QuadraticContention(g=0.01))
        timing = model.timing(size_bytes=40, contenders=10)
        assert timing.backoff_ms == 0.0
        assert timing.contention_ms == pytest.approx(1.0)
        assert timing.airtime_ms == pytest.approx(2.0)
        assert timing.processing_ms == pytest.approx(0.02)
        assert timing.total_ms == pytest.approx(1.0 + 2.0 + 0.02)
        assert timing.sender_delay_ms == pytest.approx(1.0)

    def test_backoff_bounded_by_window(self):
        model = MacDelayModel(rng=RandomStreams(1), slot_time_ms=0.1, num_slots=20)
        for _ in range(200):
            backoff = model.backoff_ms(contenders=50)
            assert 0.0 <= backoff <= 19 * 0.1 + 1e-12

    def test_backoff_window_scales_with_contenders(self):
        model = MacDelayModel(rng=RandomStreams(2), slot_time_ms=0.1, num_slots=20)
        # With a single contender the window collapses to one slot (no wait).
        assert all(model.backoff_ms(contenders=1) == 0.0 for _ in range(20))
        crowded = [model.backoff_ms(contenders=100) for _ in range(200)]
        assert max(crowded) > 0.5

    def test_backoff_without_contenders_uses_full_window(self):
        model = MacDelayModel(rng=RandomStreams(3), slot_time_ms=0.1, num_slots=20)
        draws = {model.backoff_ms() for _ in range(300)}
        assert max(draws) > 1.0

    def test_backoff_draws_as_randint_for_every_window(self):
        # backoff_ms draws with randrange(window), and the network's link
        # table with getrandbits(window.bit_length()) until a draw falls
        # below the window.  Both must draw what randrange(window) and
        # randint(0, window - 1) draw on a twin stream, and leave its state.
        model = MacDelayModel(rng=RandomStreams(7), slot_time_ms=0.1, num_slots=20)
        twin = RandomStreams(7).stream(MacDelayModel.BACKOFF_STREAM)
        for window in range(1, model.num_slots + 1):
            # A one-slot window draws nothing.
            expected = [
                (twin.randint(0, window - 1) if window > 1 else 0) * 0.1 for _ in range(50)
            ]
            assert [model.backoff_ms(contenders=window) for _ in range(50)] == expected
        assert model.rng.stream(MacDelayModel.BACKOFF_STREAM).getstate() == twin.getstate()
        for window in range(1, model.num_slots + 1):
            network, ready_times = _broadcasts_with_contenders(window, count=50)
            mac = network.mac_delay
            contention_ms, _, _ = mac.delay_parts(ADV_BYTES, window)
            twin = RandomStreams(network.sim.rng.master_seed).stream(mac.BACKOFF_STREAM)
            slots = [twin.randrange(window) if window > 1 else 0 for _ in range(50)]
            # Simulator.now is 0.0: the ready time is now + contention + backoff.
            assert ready_times == [0.0 + contention_ms + slot * 0.1 for slot in slots]
            assert network.sim.rng.stream(mac.BACKOFF_STREAM).getstate() == twin.getstate()

    def test_negative_contenders_rejected(self):
        model = MacDelayModel(rng=RandomStreams(1))
        with pytest.raises(ValueError):
            model.backoff_ms(contenders=-1)

    def test_airtime_validation(self):
        model = MacDelayModel()
        with pytest.raises(ValueError):
            model.airtime_ms(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MacDelayModel(slot_time_ms=-1.0)
        with pytest.raises(ValueError):
            MacDelayModel(num_slots=0)
        with pytest.raises(ValueError):
            MacDelayModel(t_tx_per_byte_ms=0.0)
        with pytest.raises(ValueError):
            MacDelayModel(t_proc_ms=-0.1)

    def test_spin_vs_spms_access_asymmetry(self):
        """The mechanism of the paper's delay argument: the same packet pays a
        much larger access delay when the whole zone contends than when only
        the low-power neighbourhood does."""
        model = MacDelayModel(contention=QuadraticContention(g=0.01))
        zone_access = model.timing(40, contenders=45).contention_ms
        local_access = model.timing(40, contenders=5).contention_ms
        assert zone_access / local_access == pytest.approx((45 / 5) ** 2)
