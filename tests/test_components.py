"""Unit tests for the merge process (repro.core.components)."""

import pytest

from repro.core.components import FaultComponent, find_components
from repro.geometry.rectangle import Rectangle


class TestFaultComponent:
    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            FaultComponent(index=0, nodes=frozenset())

    def test_bounding_box_and_coordinates(self):
        component = FaultComponent(0, frozenset({(2, 3), (4, 5), (3, 3)}))
        assert component.bounding_box == Rectangle(2, 3, 4, 5)
        assert (component.min_x, component.min_y) == (2, 3)
        assert (component.max_x, component.max_y) == (4, 5)
        assert component.extent == 3

    def test_membership_iteration_and_size(self):
        component = FaultComponent(0, frozenset({(1, 1), (1, 2)}))
        assert (1, 1) in component
        assert (2, 2) not in component
        assert list(component) == [(1, 1), (1, 2)]
        assert len(component) == 2

    def test_is_adjacent_uses_definition_2(self):
        component = FaultComponent(0, frozenset({(2, 2)}))
        assert component.is_adjacent((3, 3))
        assert component.is_adjacent((1, 2))
        assert not component.is_adjacent((4, 2))
        assert not component.is_adjacent((2, 2))  # members are not adjacent

    def test_perimeter(self):
        component = FaultComponent(0, frozenset({(0, 0), (1, 0)}))
        assert component.perimeter == 6


class TestFindComponents:
    def test_no_faults(self):
        assert find_components([]) == []

    def test_single_fault(self):
        components = find_components([(3, 3)])
        assert len(components) == 1
        assert components[0].nodes == frozenset({(3, 3)})

    def test_diagonal_faults_merge(self):
        components = find_components([(0, 0), (1, 1)])
        assert len(components) == 1

    def test_knight_move_faults_stay_separate(self):
        components = find_components([(0, 0), (1, 2)])
        assert len(components) == 2

    def test_without_diagonal_adjacency(self):
        components = find_components([(0, 0), (1, 1)], diagonal=False)
        assert len(components) == 2

    def test_figure4_has_two_components(self, figure4_faults):
        components = find_components(figure4_faults)
        assert len(components) == 2
        sizes = sorted(c.size for c in components)
        assert sizes == [2, 4]

    def test_component_indices_are_sequential_and_deterministic(self):
        faults = [(5, 5), (0, 0), (9, 9), (1, 1)]
        components = find_components(faults)
        assert [c.index for c in components] == list(range(len(components)))
        again = find_components(list(reversed(faults)))
        assert [c.nodes for c in components] == [c.nodes for c in again]

    def test_components_partition_the_fault_set(self, figure3_faults):
        components = find_components(figure3_faults)
        union = set()
        total = 0
        for component in components:
            assert not (union & component.nodes)
            union |= component.nodes
            total += component.size
        assert union == set(figure3_faults)
        assert total == len(set(figure3_faults))

    def test_long_snake_is_one_component(self):
        snake = [(x, x // 2) for x in range(20)]
        assert len(find_components(snake)) == 1


class TestShapeMemo:
    def test_concurrent_lookups_lose_no_update(self):
        """Threads sharing a memo past its bound get every value right and
        count every lookup (a lost update would break either)."""
        import sys
        import threading

        from repro.core import components

        memo = components.ShapeMemo(lambda keys: [key * 2 for key in keys])
        per_thread, threads = 3000, 6
        failures = []

        def work(offset):
            for step in range(per_thread):
                key = (offset * 7919 + step * 31) % (2 * components.SHAPE_MEMO_SIZE)
                if memo.lookup([key, key + 1]) != [key * 2, key * 2 + 2]:
                    failures.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            components._SHAPE_MEMOS.remove(memo)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert memo.hits + memo.misses == 2 * per_thread * threads
        assert len(memo._entries) <= components.SHAPE_MEMO_SIZE
