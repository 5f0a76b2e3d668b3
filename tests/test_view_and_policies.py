"""Unit and property tests for PSS views and the view-selection policy
(healer, Π floor, ``cap_public``) that :meth:`View.merge` owns."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nat.traversal import NodeDescriptor
from repro.nat.types import NatType
from repro.net.address import Endpoint, NodeKind
from repro.pss.gossip import PeerSamplingService, PssConfig
from repro.pss.view import View, ViewEntry
from repro.sim.engine import Simulator


def descriptor(node_id: int, public: bool = False) -> NodeDescriptor:
    if public:
        return NodeDescriptor(
            node_id=node_id, kind=NodeKind.PUBLIC, nat_type=NatType.OPEN,
            public_endpoint=Endpoint(f"pub-{node_id}", 7000),
        )
    return NodeDescriptor(
        node_id=node_id, kind=NodeKind.NATTED, nat_type=NatType.FULL_CONE,
        route=(999,),
    )


def entry(node_id: int, age: int = 0, public: bool = False) -> ViewEntry:
    return ViewEntry(descriptor=descriptor(node_id, public), age=age)


class TestView:
    def test_replace_and_lookup(self):
        view = View(capacity=5)
        view.replace_all([entry(1), entry(2)])
        assert len(view) == 2
        assert 1 in view and 3 not in view
        assert view.get(2).node_id == 2

    def test_capacity_enforced(self):
        view = View(capacity=2)
        with pytest.raises(ValueError):
            view.replace_all([entry(1), entry(2), entry(3)])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            View(capacity=0)

    def test_oldest_prefers_highest_age(self):
        view = View(capacity=5)
        view.replace_all([entry(1, age=2), entry(2, age=7), entry(3, age=4)])
        assert view.oldest().node_id == 2

    def test_oldest_of_empty_view(self):
        assert View(capacity=5).oldest() is None

    def test_increment_ages(self):
        view = View(capacity=5)
        view.replace_all([entry(1, age=0), entry(2, age=3)])
        view.increment_ages()
        assert view.get(1).age == 1
        assert view.get(2).age == 4

    def test_remove(self):
        view = View(capacity=5)
        view.replace_all([entry(1), entry(2)])
        view.remove(1)
        assert 1 not in view
        view.remove(42)  # absent: no-op

    def test_public_helpers(self):
        view = View(capacity=5)
        view.replace_all([entry(1, public=True), entry(2), entry(3, public=True)])
        assert view.count_public() == 2
        assert {e.node_id for e in view.public_entries()} == {1, 3}

    def test_sample_bounds(self):
        view = View(capacity=5)
        view.replace_all([entry(i) for i in range(1, 5)])
        rng = random.Random(1)
        assert len(view.sample(rng, 2)) == 2
        assert len(view.sample(rng, 10)) == 4

    def test_sample_and_reads_carry_absolute_ages(self):
        view = View(capacity=5)
        view.replace_all([entry(1, age=0), entry(2, age=3)])
        view.increment_ages()
        view.increment_ages()
        view.put(entry(3, age=1))  # stored below the offset
        ages = {1: 2, 2: 5, 3: 1}
        assert {e.node_id: e.age for e in view.sample(random.Random(1), 5)} == ages
        assert {e.node_id: e.age for e in view.entries()} == ages
        assert all(ages[e.node_id] == e.age for e in view.sample(random.Random(1), 2))
        assert view.oldest() == entry(2, age=5)
        assert view.random_entry(random.Random(1)).age in ages.values()

    def test_sample_draws_over_slot_order(self):
        view = View(capacity=5)
        view.replace_all([entry(i) for i in range(1, 6)])
        expected = random.Random(4).sample(view.node_ids(), 3)
        assert [e.node_id for e in view.sample(random.Random(4), 3)] == expected

    def test_merge_refresh_keeps_slot(self):
        view = View(capacity=3)
        view.replace_all([entry(1, age=4), entry(2, age=4), entry(3, age=4)])
        view.increment_ages()
        view.merge([entry(2, age=1), entry(3, age=9)], sent=[], self_id=99)
        assert view.entries() == [entry(1, age=5), entry(2, age=1), entry(3, age=5)]

    def test_merge_evict_and_insert_appends(self):
        view = View(capacity=3)
        view.replace_all([entry(1, age=2), entry(2, age=2), entry(3, age=2)])
        # Node 1 was shipped: it gives way first; then healing takes the
        # oldest (highest node id on an age tie) for a strictly fresher entry.
        view.merge([entry(7, age=1), entry(8, age=0)], sent=[entry(1)], self_id=99)
        assert view.node_ids() == [2, 8, 7]
        view.merge([entry(9, age=2)], sent=[], self_id=99)  # not strictly fresher
        assert view.node_ids() == [2, 8, 7]

    def test_merge_ties_break_on_node_id_then_arrival(self):
        view = View(capacity=2)
        first = ViewEntry(descriptor(5), age=1)
        second = ViewEntry(descriptor(5, public=True), age=1)
        view.merge([entry(6, age=1), first, second], sent=[], self_id=99)
        # 5 sorts before 6; of its two copies the first to arrive is kept.
        assert view.entries() == [first, entry(6, age=1)]

    def test_merge_drops_self_and_overlong_routes(self):
        import dataclasses
        view = View(capacity=3)
        long_route = dataclasses.replace(descriptor(5), route=tuple(range(100, 110)))
        view.merge([entry(99), ViewEntry(long_route, 0)], sent=[], self_id=99)
        assert len(view) == 0

    def test_merge_floor_evicts_oldest_natted_for_spare_public(self):
        view = View(capacity=3)
        view.replace_all([entry(1, age=0), entry(2, age=1), entry(3, age=0)])
        view.merge([entry(50, age=9, public=True)], sent=[], self_id=99, pi=1)
        assert view.node_ids() == [1, 3, 50]

    def test_random_entry_empty(self):
        assert View(capacity=3).random_entry(random.Random(1)) is None

    def test_entry_via_extends_route(self):
        e = entry(4)
        assert e.via(77).descriptor.route == (77, 999)
        assert e.via(77).age == e.age


def select(capacity: int, candidates, pi: int = 0, cap_public: bool = False):
    """What a view keeps of ``candidates`` when it starts empty — the merge
    a bootstrap runs on the introducer list."""
    view = View(capacity)
    view.merge(candidates, sent=[], self_id=-1, pi=pi, cap_public=cap_public)
    return view.entries()


def service(view_size: int = 5, pi: int = 0, seed: int = 1) -> PeerSamplingService:
    cm = SimpleNamespace(nat_type=NatType.OPEN)
    return PeerSamplingService(
        0, cm, Simulator(), random.Random(seed),
        config=PssConfig(view_size=view_size), pi=pi,
    )


class TestHealerPolicy:
    def test_keeps_freshest(self):
        kept = select(2, [entry(1, 5), entry(2, 1), entry(3, 3)])
        assert {e.node_id for e in kept} == {2, 3}

    def test_no_truncation_needed(self):
        kept = select(5, [entry(1, 5), entry(2, 1)])
        assert len(kept) == 2


class TestBiasedPolicy:
    def test_pi_zero_equals_healer(self):
        candidates = [entry(i, age=i) for i in range(10)]
        assert select(4, candidates, pi=0) == candidates[:4]

    def test_guarantees_pi_public_nodes(self):
        # 8 fresh N-nodes, 2 stale P-nodes; unbiased would evict the P-nodes.
        candidates = [entry(i, age=0) for i in range(8)]
        candidates += [entry(100, age=50, public=True), entry(101, age=60, public=True)]
        kept = select(5, candidates, pi=2)
        publics = [e for e in kept if e.is_public]
        assert len(publics) == 2
        assert len(kept) == 5

    def test_keeps_freshest_public_nodes(self):
        candidates = [entry(i, age=0) for i in range(8)]
        candidates += [
            entry(100, age=50, public=True),
            entry(101, age=60, public=True),
            entry(102, age=10, public=True),
        ]
        kept = select(5, candidates, pi=2)
        public_ids = {e.node_id for e in kept if e.is_public}
        assert 102 in public_ids  # the freshest P-node must be guaranteed
        assert 101 not in public_ids or 100 not in public_ids

    def test_cannot_exceed_capacity(self):
        candidates = [entry(i, age=i, public=(i % 2 == 0)) for i in range(30)]
        assert len(select(10, candidates, pi=3)) == 10

    def test_fewer_publics_than_pi_keeps_what_exists(self):
        candidates = [entry(i, age=0) for i in range(8)]
        candidates += [entry(100, age=50, public=True)]
        kept = select(5, candidates, pi=3)
        assert sum(1 for e in kept if e.is_public) == 1

    def test_pi_validation(self):
        with pytest.raises(ValueError):
            service(view_size=5, pi=-1)
        with pytest.raises(ValueError):
            service(view_size=5, pi=6)
        assert service(view_size=5, pi=5).pi == 5

    def test_aggressive_variant_caps_publics(self):
        candidates = [entry(i, age=1) for i in range(8)]
        candidates += [entry(100 + i, age=0, public=True) for i in range(6)]
        kept = select(10, candidates, pi=2, cap_public=True)
        # 14 candidates, capacity 10: the 4 P-nodes above Pi give way to
        # the 4 N-nodes that found no slot.
        assert sum(1 for e in kept if e.is_public) == 2
        assert len(kept) == 10

    @settings(max_examples=60, deadline=None)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=0, max_size=40),
        public_mask=st.lists(st.booleans(), min_size=0, max_size=40),
        capacity=st.integers(1, 12),
        pi=st.integers(0, 12),
    )
    def test_invariants_property(self, ages, public_mask, capacity, pi):
        pi = min(pi, capacity)
        n = min(len(ages), len(public_mask))
        candidates = [
            entry(i, age=ages[i], public=public_mask[i]) for i in range(n)
        ]
        kept = select(capacity, candidates, pi=pi)
        # Never exceeds capacity and never invents entries.
        assert len(kept) <= capacity
        assert {e.node_id for e in kept} <= {e.node_id for e in candidates}
        assert len({e.node_id for e in kept}) == len(kept)
        # The Pi invariant holds whenever enough P-node candidates exist.
        available_public = sum(1 for e in candidates if e.is_public)
        kept_public = sum(1 for e in kept if e.is_public)
        assert kept_public >= min(pi, available_public)
        # If the pool exceeds capacity, the view is filled completely.
        if len(candidates) >= capacity:
            assert len(kept) == capacity


class TestBootstrap:
    """``init()`` installs the introducers through ``View.merge``."""

    def test_view_is_in_age_then_node_id_order(self):
        pss = service(view_size=5)
        pss.init([descriptor(i, public=True) for i in (7, 3, 9, 0, 5)])
        assert pss.view.node_ids() == [3, 5, 7, 9]  # 0 is the node itself
        assert all(e.age == 0 for e in pss.view.entries())

    def test_honours_the_pi_floor(self):
        pss = service(view_size=3, pi=1)
        pss.init([descriptor(1), descriptor(2), descriptor(3), descriptor(8, public=True)])
        assert pss.view.node_ids() == [1, 2, 8]

    def test_surplus_introducers_dropped_without_an_rng_draw(self):
        pss, twin = service(view_size=3, seed=11), random.Random(11)
        pss.init([descriptor(i, public=True) for i in (6, 5, 4, 3, 2, 1)])
        assert pss.view.node_ids() == [1, 2, 3]
        twin.uniform(0, pss.config.cycle_time)  # init()'s one draw: the phase
        assert pss._rng.getstate() == twin.getstate()

    def test_rebootstrap_reinstalls_the_introducers(self):
        pss = service(view_size=5)
        pss.init([descriptor(4, public=True), descriptor(2, public=True)])
        for node_id in pss.view.node_ids():
            pss.view.increment_ages()
            pss.view.remove(node_id)
        # The partner is the oldest: the highest node id on an age tie.
        assert pss._rebootstrap() == ViewEntry(descriptor(4, public=True), 0)
        assert pss.view.node_ids() == [2, 4]
