"""`MacDelayModel.timing` must equal the formula built from the model's parts.

The oracle composes the breakdown from the model's primitives (contention,
backoff, airtime, processing delay) on a second model carrying an
identically-seeded RNG.  Any divergence — a wrong value, a skipped or
reordered RNG draw — fails equality or desynchronises the streams.
"""

from hypothesis import given, settings, strategies as st

from repro.mac.delay import MacDelayModel, TransmissionTiming
from repro.sim.rng import RandomStreams

CALLS = st.lists(
    st.tuples(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=200)),
    min_size=1,
    max_size=40,
)


def oracle_timing(model: MacDelayModel, size_bytes: int, contenders: int) -> TransmissionTiming:
    """The timing formula, one primitive per component."""
    return TransmissionTiming(
        contention_ms=model.contention.access_delay_ms(contenders),
        backoff_ms=model.backoff_ms(contenders),
        airtime_ms=model.airtime_ms(size_bytes),
        processing_ms=model.t_proc_ms,
    )


class TestTimingEqualsFormula:
    @given(calls=CALLS, seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_timing_equals_formula_with_rng(self, calls, seed):
        model = MacDelayModel(rng=RandomStreams(seed))
        oracle = MacDelayModel(rng=RandomStreams(seed))
        # Replay the call list twice so every (size, contenders) pair recurs.
        for size_bytes, contenders in calls + calls:
            got = model.timing(size_bytes, contenders)
            assert got == oracle_timing(oracle, size_bytes, contenders)
        # timing must consume RNG draws exactly like the formula: after
        # identical call sequences both streams are in the same state.
        probe = MacDelayModel.BACKOFF_STREAM
        assert model.rng.randint(probe, 0, 10**6) == oracle.rng.randint(probe, 0, 10**6)

    @given(calls=CALLS)
    @settings(max_examples=50)
    def test_timing_equals_formula_without_rng(self, calls):
        model = MacDelayModel()
        oracle = MacDelayModel()
        for size_bytes, contenders in calls + calls:
            got = model.timing(size_bytes, contenders)
            assert got == oracle_timing(oracle, size_bytes, contenders)
            assert got.backoff_ms == 0.0

    def test_repeated_call_returns_equal_breakdown(self):
        model = MacDelayModel(rng=RandomStreams(3), num_slots=1)
        # num_slots=1 forces a zero backoff, so repeated calls are fully
        # deterministic and must compare equal.
        assert model.timing(40, 7) == model.timing(40, 7)

    def test_single_contender_draws_nothing_from_rng(self):
        model = MacDelayModel(rng=RandomStreams(9))
        before = model.rng.randint(MacDelayModel.BACKOFF_STREAM, 0, 10**6)
        reference = MacDelayModel(rng=RandomStreams(9))
        reference.rng.randint(MacDelayModel.BACKOFF_STREAM, 0, 10**6)
        # contenders=1 -> window 1 -> no draw, however often it is asked.
        model.timing(40, 1)
        model.timing(40, 1)
        reference.timing(40, 1)
        assert model.rng.randint(MacDelayModel.BACKOFF_STREAM, 0, 10**6) == (
            reference.rng.randint(MacDelayModel.BACKOFF_STREAM, 0, 10**6)
        )
        assert isinstance(before, int)
