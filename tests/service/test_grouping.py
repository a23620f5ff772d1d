"""Unit tests for the pure per-tick grouping rule shared by all fleet paths.

:func:`repro.service.grouping.plan_tick_groups` is the single implementation
behind the runner's RF-fit, GP-fit, VAE-refresh and candidate-scoring
grouping (fixed and elastic runner alike), so its contract is
pinned here once: partition completeness, first-appearance ordering, member
order preservation, the ``min_fused`` threshold and the distinct-identity
requirement.
"""

from hypothesis import given, strategies as st

from repro.service.grouping import TickGroup, plan_tick_groups


class TestPlanTickGroups:
    def test_empty_input_yields_no_groups(self):
        assert plan_tick_groups([], key_of=lambda x: x) == []

    def test_partitions_by_key_in_first_appearance_order(self):
        items = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
        groups = plan_tick_groups(items, key_of=lambda item: item[0])
        assert [g.key for g in groups] == ["a", "b", "c"]
        assert [g.members for g in groups] == [
            [("a", 1), ("a", 3)],
            [("b", 2), ("b", 5)],
            [("c", 4)],
        ]

    def test_every_item_lands_in_exactly_one_group(self):
        items = list(range(17))
        groups = plan_tick_groups(items, key_of=lambda n: n % 3)
        flattened = [m for g in groups for m in g.members]
        assert sorted(flattened) == items
        assert len(flattened) == len(items)

    def test_singletons_are_not_fused(self):
        groups = plan_tick_groups([1, 2, 3], key_of=lambda n: n)
        assert all(not g.fused for g in groups)
        assert all(len(g.members) == 1 for g in groups)

    def test_min_fused_threshold(self):
        items = ["x"] * 3 + ["y"] * 2
        by_three = plan_tick_groups(items, key_of=lambda s: s, min_fused=3)
        assert [g.fused for g in by_three] == [True, False]
        by_two = plan_tick_groups(items, key_of=lambda s: s, min_fused=2)
        assert [g.fused for g in by_two] == [True, True]

    def test_duplicate_identities_block_fusion(self):
        shared = object()
        other = object()
        items = [("k", shared), ("k", shared), ("k", other)]
        groups = plan_tick_groups(
            items,
            key_of=lambda item: item[0],
            identity_of=lambda item: id(item[1]),
        )
        assert len(groups) == 1
        assert not groups[0].fused
        # Without the identity check the same group fuses.
        unchecked = plan_tick_groups(items, key_of=lambda item: item[0])
        assert unchecked[0].fused

    def test_distinct_identities_fuse(self):
        items = [("k", object()) for _ in range(4)]
        groups = plan_tick_groups(
            items,
            key_of=lambda item: item[0],
            identity_of=lambda item: id(item[1]),
        )
        assert groups == [TickGroup(key="k", members=items, fused=True)]

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
        min_fused=st.integers(min_value=1, max_value=4),
    )
    def test_properties_hold_for_any_key_sequence(self, keys, min_fused):
        items = list(enumerate(keys))
        groups = plan_tick_groups(
            items, key_of=lambda item: item[1], min_fused=min_fused
        )
        # Partition: every item exactly once, member order = arrival order.
        flattened = [m for g in groups for m in g.members]
        assert sorted(flattened) == items
        for group in groups:
            assert group.members == [i for i in items if i[1] == group.key]
            assert group.fused == (len(group.members) >= min_fused)
        # Keys are unique and in first-appearance order.
        seen = []
        for _, key in items:
            if key not in seen:
                seen.append(key)
        assert [g.key for g in groups] == seen
