import random
import re
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from rotwalk import (
    ConsistencyReport,
    FormatError,
    RegularGraph,
    RotationMap,
    ShiftOperator,
    ValidationError,
    check_involution_consistent,
    check_permutation_consistent,
    complete_graph,
    cycle_graph,
    cycle_rotation,
    greedy_rotation,
    hypercube_graph,
    build_shift,
    parse_rotation,
    random_regular_graph,
    serialize_rotation,
    validate_against_graph,
)

from oracles import (
    involution_consistent_by_following,
    involution_violations_by_following,
    mismatches_by_sets,
    permutation_consistent_by_sorting,
    permutation_violations_by_counting,
)

# 0-based rows frozen from the worked 4-cycle examples: the greedy table
# lists each vertex's neighbors in ascending order, the canonical table
# sends label 1 around the cycle one way and label 2 the other way.
GREEDY_SQUARE = [[1, 3], [0, 2], [1, 3], [0, 2]]
CANONICAL_SQUARE = [[1, 3], [2, 0], [3, 1], [0, 2]]
INVOLUTION_SQUARE = [[1, 3], [0, 2], [3, 1], [2, 0]]


class TestConstruction:
    def test_greedy_square(self):
        rot = greedy_rotation(cycle_graph(4))
        assert rot.entries.tolist() == GREEDY_SQUARE

    def test_greedy_complete(self):
        rot = greedy_rotation(complete_graph(4))
        assert rot.entries.tolist() == [
            [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]

    def test_cycle_rotation_square(self):
        rot = cycle_rotation(4)
        assert rot.entries.tolist() == CANONICAL_SQUARE

    def test_cycle_rotation_minimum(self):
        with pytest.raises(Exception):
            cycle_rotation(2)

    def test_entries_read_only(self):
        rot = cycle_rotation(4)
        with pytest.raises(ValueError):
            rot.entries[0, 0] = 2

    def test_equality_and_hash(self):
        assert cycle_rotation(4) == RotationMap(np.array(CANONICAL_SQUARE))
        assert cycle_rotation(4) != cycle_rotation(5)
        assert hash(cycle_rotation(4)) == hash(cycle_rotation(4))

    def test_tables_compare_by_type_and_value(self):
        table = np.array(GREEDY_SQUARE)
        graph, rot = RegularGraph(table), RotationMap(table)
        assert graph != rot and rot != graph
        shift = build_shift(rot)
        for value, again in [(graph, RegularGraph(table)), (rot, greedy_rotation(graph)),
                             (shift, build_shift(greedy_rotation(graph)))]:
            assert value == again and hash(value) == hash(again)
        assert hash(rot) == hash((4, 2, table.astype(np.int64).tobytes()))
        assert hash(shift) == hash((4, 2, shift.col_to_row.tobytes()))
        # Equal tables, but n and d differ: the shifts of a 6 x 2 and a 4 x 3 map.
        wide = ShiftOperator(RotationMap([[2, 1], [3, 0], [0, 5], [1, 4], [5, 3], [4, 2]]))
        tall = ShiftOperator(RotationMap([[2, 1, 3], [3, 0, 2], [0, 3, 1], [1, 2, 0]]))
        assert np.array_equal(wide.col_to_row, tall.col_to_row) and wide != tall
        assert [repr(graph), repr(rot), repr(shift)] == [
            "RegularGraph(n=4, d=2)", "RotationMap(n=4, d=2)", "ShiftOperator(n=4, d=2)",
        ]

    @pytest.mark.parametrize("entries, message", [
        # Row 1 repeats an entry; row 2's entry 8 is past n.
        ([[1, 1], [0, 7], [0, 1]], "row for vertex 1 has repeated entries"),
        ([[1, 2], [0, 7], [0, 1]], "entry 8 out of range 1..3"),
        ([[1, 2], [-1, 1], [0, 1]], "entry 0 out of range 1..3"),
        # Within a row the first stray entry is named.
        ([[1, 2], [1, 9], [0, 1]], "vertex 2 maps to itself"),
        # No rows to name: a 1-D or an empty table.
        ([1, 0], "rotation map must be 2-dimensional"),
        (np.zeros((0, 2)), "rotation map needs n >= 1 and d >= 1"),
        (np.zeros((2, 0)), "rotation map needs n >= 1 and d >= 1"),
        # Entries at int64's ends and past it, in uint64.
        (np.array([[2**64 - 1], [0]], dtype=np.uint64), "rotation map entry out of range"),
        (np.array([[2**63], [0]], dtype=np.uint64), "rotation map entry out of range"),
        (np.array([[2**63 - 1], [0]], dtype=np.uint64), f"entry {2**63} out of range 1..2"),
    ])
    def test_first_bad_row_named(self, entries, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RotationMap(entries)

    @pytest.mark.parametrize("shape, stubs", [((2**31, 1), 2**31), ((2**30, 3), 3 * 2**30)])
    def test_past_stub_ceiling_refused_without_allocating(self, shape, stubs):
        # A read-only broadcast view: refused from its shape, before the int64 copy.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                RotationMap(np.broadcast_to(np.int64(1), shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"rotation map needs n*d < 2**31 (the stub ceiling), got n*d={stubs}"
        assert peak < 1 << 20

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_constructor_and_parser_agree(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        table = np.array(data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=d, max_size=d), min_size=n, max_size=n,
        ), label="table"))
        # At least one entry breaks a rule: out of range, or its row's vertex.
        for _ in range(data.draw(st.integers(1, 3), label="bad entries")):
            v, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
            table[v, j] = data.draw(st.sampled_from([-2, -1, v, n, n + 3]), label="bad entry")
        text = f"{n} {d}\n" + "".join(" ".join(map(str, row)) + "\n" for row in (table + 1).tolist())
        with pytest.raises(ValidationError) as built:
            RotationMap(table)
        with pytest.raises(FormatError) as parsed:
            parse_rotation(text)
        assert re.sub(r"^line \d+: ", "", str(parsed.value)) == str(built.value)

    def test_self_map_rejected(self):
        with pytest.raises(ValidationError) as exc:
            RotationMap(np.array([[0, 1], [0, 2], [1, 0]]))
        assert "vertex 1 maps to itself" in str(exc.value)

    def test_repeated_row_entry_rejected(self):
        with pytest.raises(ValidationError):
            RotationMap(np.array([[1, 1], [0, 2], [0, 1]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            RotationMap(np.array([[1, 3], [0, 2], [0, 1]]))

    @pytest.mark.parametrize("entries", [
        [[1.5], [0.2]],
        np.array([[np.nan], [0.0]]),
        [[1.0], [np.inf]],
        [[1.0], [1e30]],
        [["1"], ["0"]],
        [[Fraction(1)], [Fraction(1, 2)]],
        [[1 + 0j], [0]],
    ])
    def test_non_integer_entries_rejected(self, entries):
        with pytest.raises(ValidationError, match="entries must be integers"):
            RotationMap(entries)

    def test_integer_beyond_int64_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            RotationMap([[2**70], [0]])

    def test_ragged_table_rejected(self):
        with pytest.raises(ValidationError, match="rows must all have the same length"):
            RotationMap([[1, 2], [0]])

    @pytest.mark.parametrize("entries", [
        [[1], [0]],
        [[1.0], [0.0]],
        [[True], [False]],
        np.array([[1], [0]], dtype=np.uint8),
        np.array([[1], [0]], dtype=np.int32),
        np.array([[1], [0]], dtype=object),
        [[Fraction(1)], [np.int16(0)]],
    ])
    def test_exact_integers_accepted(self, entries):
        assert RotationMap(entries).entries.tolist() == [[1], [0]]

    def test_caller_array_left_writable(self):
        entries = np.array([[1], [0]])
        RotationMap(entries)
        entries[0, 0] = 1


class TestConsistency:
    def test_canonical_square_is_permutation_consistent(self):
        report = check_permutation_consistent(cycle_rotation(4))
        assert report.consistent
        assert report.criterion == "permutation"
        assert report.violations.tolist() == []

    def test_canonical_square_is_not_involution_consistent(self):
        report = check_involution_consistent(cycle_rotation(4))
        assert not report.consistent
        # label 1 sends vertex 1 to 2, but label 1 sends 2 onward to 3
        assert [1, 1, 0] in report.violations.tolist()

    def test_involution_square(self):
        rot = RotationMap(np.array(INVOLUTION_SQUARE))
        assert check_involution_consistent(rot).consistent
        assert check_permutation_consistent(rot).consistent

    def test_greedy_square_violations(self):
        report = check_permutation_consistent(greedy_rotation(cycle_graph(4)))
        assert not report.consistent
        assert report.violations.tolist() == [
            [1, 1, 2],
            [1, 2, 2],
            [1, 3, 0],
            [1, 4, 0],
            [2, 1, 0],
            [2, 2, 0],
            [2, 3, 2],
            [2, 4, 2],
        ]

    @pytest.mark.parametrize("check", [check_permutation_consistent, check_involution_consistent])
    @pytest.mark.parametrize("table", [CANONICAL_SQUARE, GREEDY_SQUARE, INVOLUTION_SQUARE])
    def test_witnesses_are_a_read_only_int64_array(self, check, table):
        report = check(RotationMap(np.array(table)))
        witnesses = report.violations
        assert isinstance(witnesses, np.ndarray) and witnesses.dtype == np.int64
        assert witnesses.ndim == 2 and witnesses.shape[1] == 3
        assert report.consistent == (witnesses.shape == (0, 3))
        with pytest.raises(ValueError, match="read-only"):
            witnesses[...] = 0

    def test_report_is_a_frozen_record(self):
        # The report compares and hashes as the record (criterion,
        # violations), the witnesses by value.
        report = check_permutation_consistent(greedy_rotation(cycle_graph(4)))
        record = ConsistencyReport("permutation", report.violations.tolist())
        assert report == record and hash(report) == hash(record)
        assert repr(report).startswith("ConsistencyReport(criterion='permutation', violations=array(")
        assert report != ConsistencyReport("permutation", report.violations[:-1])
        assert report != ConsistencyReport("permutation", report.violations[::-1])
        assert report != check_involution_consistent(greedy_rotation(cycle_graph(4)))
        with pytest.raises(AttributeError):
            report.consistent = True
        with pytest.raises(AttributeError):
            report.violations = ()

    def test_verdict_is_read_from_the_witnesses(self):
        # A report has no verdict argument, so it cannot contradict its
        # witnesses: consistent exactly when there is none.
        with pytest.raises(TypeError):
            ConsistencyReport("permutation", True, [[1, 1, 2]])
        assert not ConsistencyReport("permutation", [[1, 1, 2]]).consistent
        assert ConsistencyReport("permutation", np.zeros((0, 3))).consistent

    def test_given_witnesses_are_copied(self):
        rows = np.array([[1, 2, 0]])
        report = ConsistencyReport("involution", rows)
        rows[0, 0] = 5
        assert rows.flags.writeable and report.violations.tolist() == [[1, 2, 0]]
        empty = ConsistencyReport("permutation", ())
        assert empty.violations.shape == (0, 3) and empty.violations.dtype == np.int64
        assert empty.consistent

    def test_matches_sorting_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(3, 9)
            d = 2 if n < 5 else rng.choice([2, 3, 4])
            if (n * d) % 2:
                d -= 1
            g = random_regular_graph(n, max(d, 2), seed=rng.randrange(10**6))
            rows = [list(map(int, row)) for row in g.neighbors]
            for row in rows:
                rng.shuffle(row)
            rot = RotationMap(np.array(rows))
            assert (check_permutation_consistent(rot).consistent
                    == permutation_consistent_by_sorting(rot.entries))
            assert (check_involution_consistent(rot).consistent
                    == involution_consistent_by_following(rot.entries))

    def test_witnesses_match_loop_oracles(self):
        rng = random.Random(17)
        for _ in range(40):
            n, d = rng.choice([(6, 3), (10, 4), (31, 2), (40, 5)])
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            rows = [rng.sample(list(map(int, row)), d) for row in g.neighbors]
            for rot in (RotationMap(np.array(rows)), greedy_rotation(g)):
                assert (check_permutation_consistent(rot).violations.tolist()
                        == list(map(list, permutation_violations_by_counting(rot.entries))))
                assert (check_involution_consistent(rot).violations.tolist()
                        == list(map(list, involution_violations_by_following(rot.entries))))

    def test_involution_implies_permutation(self):
        # random row orderings of even cycles hit involution-consistent
        # tables often enough (the two pairing maps) to exercise the claim
        rng = random.Random(9)
        found = 0
        for _ in range(400):
            g = cycle_graph(rng.choice([4, 6]))
            rows = [list(map(int, row)) for row in g.neighbors]
            for row in rows:
                rng.shuffle(row)
            rot = RotationMap(np.array(rows))
            if check_involution_consistent(rot).consistent:
                found += 1
                assert check_permutation_consistent(rot).consistent
        # the implication must actually fire for the test to mean much
        assert found > 0


class TestValidation:
    def test_greedy_always_valid(self):
        for g in [cycle_graph(5), complete_graph(4), hypercube_graph(3),
                  random_regular_graph(14, 3, seed=2)]:
            validate_against_graph(greedy_rotation(g), g)

    def test_mismatch_reported_one_based(self):
        # Vertices 1, 3 and 4 mismatch; the first is named, the others counted.
        rot = RotationMap(np.array([[1, 2], [0, 2], [0, 1], [0, 1]]))
        message = "vertex 1: entry 3 is not a neighbor, neighbor 4 unused (3 of 4 rows mismatch)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_against_graph(rot, cycle_graph(4))

    def test_matches_set_oracle(self):
        # A map of one random graph checked against another of the same size.
        rng = random.Random(21)
        for _ in range(20):
            n, d = rng.choice([(8, 3), (10, 4), (12, 5)])
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            other = random_regular_graph(n, d, seed=rng.randrange(10**6))
            rows = [rng.sample(list(map(int, row)), d) for row in other.neighbors]
            rot = RotationMap(np.array(rows))
            lines = mismatches_by_sets(rot.entries, g.neighbors)
            if not lines:
                validate_against_graph(rot, g)
                continue
            message = f"{lines[0]} ({len(lines)} of {n} rows mismatch)"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                validate_against_graph(rot, g)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            validate_against_graph(cycle_rotation(5), cycle_graph(4))


class TestTextFormat:
    def test_serialized_canonical_square(self):
        assert serialize_rotation(cycle_rotation(4)) == "4 2\n2 4\n3 1\n4 2\n1 3\n"

    def test_serialized_greedy_square(self):
        rot = greedy_rotation(cycle_graph(4))
        assert serialize_rotation(rot) == "4 2\n2 4\n1 3\n2 4\n1 3\n"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.choice([6, 8, 10])
            g = random_regular_graph(n, 3, seed=rng.randrange(10**6))
            rot = greedy_rotation(g)
            assert parse_rotation(serialize_rotation(rot)) == rot

    def test_comments_allowed(self):
        text = "# square, canonical\n4 2\n2 4\n3 1\n# halfway\n4 2\n1 3\n"
        assert parse_rotation(text) == cycle_rotation(4)

    def test_bad_header(self):
        with pytest.raises(FormatError) as exc:
            parse_rotation("4\n")
        assert exc.value.line == 1

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            parse_rotation("4 2\n2 4\n1 3\n")

    def test_wrong_entry_count(self):
        with pytest.raises(FormatError) as exc:
            parse_rotation("4 2\n2 4 1\n1 3\n2 4\n1 3\n")
        assert exc.value.line == 2

    def test_non_integer_entry(self):
        with pytest.raises(FormatError):
            parse_rotation("4 2\n2 x\n1 3\n2 4\n1 3\n")

    def test_out_of_range_entry(self):
        with pytest.raises(FormatError):
            parse_rotation("4 2\n2 5\n1 3\n2 4\n1 3\n")

    def test_self_map_entry(self):
        with pytest.raises(FormatError) as exc:
            parse_rotation("4 2\n1 4\n1 3\n2 4\n1 3\n")
        assert exc.value.line == 2

    def test_repeated_entry_in_row(self):
        with pytest.raises(FormatError):
            parse_rotation("4 2\n2 2\n1 3\n2 4\n1 3\n")
