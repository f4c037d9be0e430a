"""Property tests for descriptor interning (hash-consing) semantics.

Interning is an optimisation only: an interned descriptor and a hand-built
one must be interchangeable everywhere — equal and equal-hashing — and the
interning table must not leak (weak values) nor be observable through
pickling.
"""

import gc
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metadata import DataDescriptor, intern_descriptor

names = st.sampled_from(["a", "b", "item/x", "item/y", "temp/r3"])


class TestInternIdentity:
    @given(names)
    def test_same_arguments_same_object(self, name):
        assert DataDescriptor.intern(name) is DataDescriptor.intern(name)

    @given(names)
    def test_module_level_alias_shares_the_table(self, name):
        assert intern_descriptor(name) is DataDescriptor.intern(name)

    @given(names, names)
    def test_distinct_arguments_distinct_objects(self, a, b):
        if a == b:
            return
        assert DataDescriptor.intern(a) is not DataDescriptor.intern(b)


class TestValueSemantics:
    """Interned and plain descriptors are interchangeable value-wise."""

    @given(names)
    def test_plain_equals_interned_and_hashes_alike(self, name):
        plain = DataDescriptor(name)
        interned = DataDescriptor.intern(name)
        assert plain == interned
        assert interned == plain
        assert hash(plain) == hash(interned)

    @given(names)
    def test_interchangeable_as_dict_keys(self, name):
        table = {DataDescriptor.intern(name): "value"}
        assert table[DataDescriptor(name)] == "value"

    def test_equality_against_other_types(self):
        descriptor = DataDescriptor.intern("a")
        assert descriptor != "a"
        assert descriptor != ("a",)


class TestImmutability:
    def test_set_and_delete_rejected(self):
        descriptor = DataDescriptor("a")
        with pytest.raises(AttributeError):
            descriptor.name = "b"
        with pytest.raises(AttributeError):
            del descriptor.name

    def test_slots_reject_new_attributes(self):
        descriptor = DataDescriptor("a")
        with pytest.raises(AttributeError):
            descriptor.extra = 1


class TestPickleAndLifetime:
    @given(names)
    def test_pickle_round_trip_is_value_equal(self, name):
        descriptor = DataDescriptor.intern(name)
        clone = pickle.loads(pickle.dumps(descriptor))
        assert clone == descriptor
        assert hash(clone) == hash(descriptor)

    def test_interning_table_is_weak(self):
        """Descriptors no longer referenced anywhere are released: a sweep of
        many runs must not accumulate every descriptor it ever saw."""
        key = "ephemeral/leak-check"
        descriptor = DataDescriptor.intern(key)
        assert key in DataDescriptor._interned
        del descriptor
        gc.collect()
        assert key not in DataDescriptor._interned

    def test_reinterning_after_release_works(self):
        DataDescriptor.intern("ephemeral/second")
        gc.collect()
        fresh = DataDescriptor.intern("ephemeral/second")
        assert fresh is DataDescriptor.intern("ephemeral/second")


class TestRepr:
    def test_repr_round_trips_through_eval(self):
        descriptor = DataDescriptor.intern("a")
        assert eval(repr(descriptor)) == descriptor
