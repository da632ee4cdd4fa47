"""Mutation check: every recorded mutant must make its named tests fail.

Run it as ``python tests/mutants.py``.  It needs only the standard library
and pytest, and pytest does not collect it (its test files are
``test_*.py``).

Each mutant is data: the file it edits, an old text that must occur there
exactly once, the new text, and the tests that must fail with it.  The
script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, checks that the named tests pass on the unmutated copy, then
applies one mutant at a time and runs its tests with ``pytest -x``.  It
exits 1 when a mutant survives (its tests pass) or when an old text no
longer occurs exactly once, so the list keeps up with the code.  A mutant
that loops forever counts as caught through the suite's per-test timeout,
which ends pytest with exit status 1 after 300 s; such mutants are left out
of the list so that a run stays short.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIALIZABILITY = "src/pvguard/serializability.py"
CLASS_TESTS = "tests/test_serializability.py::"
DEADLOCK = "src/pvguard/deadlock.py"
SEARCH_TESTS = "tests/test_deadlock.py::"
VIEW_TEST = SEARCH_TESTS + "test_orbit_view_matches_brute_force_on_interleaved_groups"
RECORD_TEST = CLASS_TESTS + "test_family_choice_point_view_matches_concrete_routes"
REPORT = "src/pvguard/report.py"
CORE = "src/pvguard/core.py"
GEOMETRY = "src/pvguard/geometry.py"
CLI = "src/pvguard/cli.py"
PARSER = "src/pvguard/parser.py"
CLI_TESTS = "tests/test_cli.py::"
SWEEP_TEST = SEARCH_TESTS + "test_potential_matches_naive_sweep"
BRUTE_FORCE_TEST = SEARCH_TESTS + "test_sweep_matches_brute_force_over_the_grid"
VALIDATE_TEST = "tests/test_geometry.py::test_validate_matches_three_pass_oracle"
NON_TUPLE_TEST = "tests/test_core.py::test_non_tuple_states_are_value_errors"
DIGEST_TEST = SEARCH_TESTS + "test_witness_paths_match_recorded_digests"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the class DP's configuration key, which shares step tables between
    # end states: each wrong key hands some end state another's table
    Mutant(
        "class-key-without-totals",
        SERIALIZABILITY,
        "held = [radix**n * (n + 1) ** r for r in range(radix - 2)]",
        "held = [0] * (radix - 2)",
        (CLASS_TESTS + "test_classes_match_level_dp_oracle_on_powers",),
    ),
    Mutant(
        "class-key-top-as-release",
        SERIALIZABILITY,
        "for r in requests[:-1]] + [1]",
        "for r in requests[:-1]] + [0]",
        (CLASS_TESTS + "test_classes_match_level_dp_oracle_on_powers",),
    ),
    Mutant(
        "class-key-of-parent-state",
        SERIALIZABILITY,
        "to = at + shift",
        "to = at",
        (CLASS_TESTS + "test_classes_match_level_dp_oracle_on_powers",),
    ),
    # the run ends: a release before a release is not silent, since it
    # changes the point use that other threads' steps and squares read
    # (``Program._silent_idx``, the class DP's table of silent steps)
    Mutant(
        "class-silent-without-point-check",
        CORE,
        "r is None and p == q for",
        "r is None and True for",
        (
            CLASS_TESTS + "test_classes_match_level_dp_oracle",
            "tests/test_core.py::test_index_tables_match_point_use_and_action_at",
        ),
    ),
    # the cheap pair bound without its per-class factor 2 ** n: it then
    # rules out limits that a level of the DP over all states exceeds
    Mutant(
        "class-cheap-bound-per-class-factor",
        SERIALIZABILITY,
        "total * n > limit // most",
        "total * n > limit",
        (CLASS_TESTS + "test_class_pair_bound_is_exact",),
    ),
    # the representatives' silent steps put back only for the stepping
    # thread: a smaller thread's pending silent step then waits behind a
    # non-silent step, and the path is not its class's least
    Mutant(
        "class-lift-out-of-turn",
        SERIALIZABILITY,
        "pending & ((2 << d) - 1)",
        "pending & (1 << d)",
        (CLASS_TESTS + "test_classes_match_enumeration_oracle",),
    ),
    # a y-side halving step that marks y a root, detaching it and its
    # subtree, and goes on from its grandparent; of the oracle test's
    # inputs only the four-thread program is split by it (81 classes, not 80)
    Mutant(
        "class-find-detaches-y",
        SERIALIZABILITY,
        "parent[y] = y = q",
        "parent[y], y = -1, q",
        (CLASS_TESTS + "test_classes_match_level_dp_oracle",),
    ),
    # a y-side find that marks y a root and stops, leaving the rest of its
    # old set apart
    Mutant(
        "class-find-stops-at-y",
        SERIALIZABILITY,
        "parent[y] = y = q",
        "parent[y] = -1",
        (CLASS_TESTS + "test_classes_match_level_dp_oracle",),
    ),
    # the reduced search: a copy must be able to step onto its own ceiling
    Mutant(
        "search-ceiling-strict",
        DEADLOCK,
        "bisect.bisect_left(lows, y)",
        "bisect.bisect_right(lows, y)",
        (SEARCH_TESTS + "test_reduced_search_matches_full_search",),
    ),
    # the orbit codes: a digit's radix one too small, in either row, lets
    # two count vectors of one group share a code, a weight not carried on
    # to the next group lets two groups' digits share one; either merges
    # distinct orbits.  A group kept to its counts gives long threads codes
    # with a digit per position
    Mutant(
        "search-code-radix-too-small",
        DEADLOCK,
        "accumulate([n + 1] * (top - 1)",
        "accumulate([n] * (top - 1)",
        (DIGEST_TEST,),
    ),
    Mutant(
        "search-code-power-radix-too-small",
        DEADLOCK,
        "(n * c ** len(sums) + 1)",
        "(n * c ** len(sums))",
        (DIGEST_TEST,),
    ),
    Mutant(
        "search-code-weight-not-carried",
        DEADLOCK,
        "_row(len(g), lows[-1], top, weight)",
        "_row(len(g), lows[-1], top, 1)",
        (DIGEST_TEST,),
    ),
    Mutant(
        "search-code-counts-only",
        DEADLOCK,
        "if sums[-1] < last:",
        "if False:",
        (SEARCH_TESTS + "test_stored_codes_of_long_threads_with_few_copies",),
    ),
    # a step out of an acquire that goes through one release only, so a
    # copy may stop at the next one
    Mutant(
        "search-release-run-cut-short",
        DEADLOCK,
        "ends[x] = ends[x + 1]",
        "ends[x] = x + 2",
        (SEARCH_TESTS + "test_reduced_search_stores_only_what_it_decides",),
    ),
    # every ⊥ run steps at once: same flags, more stored orbits
    Mutant(
        "search-bottom-rule-dropped",
        DEADLOCK,
        "bottoms = [block.start for block in blocks] if reduced else []",
        "bottoms = []",
        (SEARCH_TESTS + "test_release_first_search_stored_orbits",),
    ),
    # a step that acquires a full resource
    Mutant(
        "search-gate-ignored",
        DEADLOCK,
        "if hi > above and (not gate or free & gate):",
        "if hi > above:",
        (SEARCH_TESTS + "test_orbit_search_matches_sorting_oracle",),
    ),
    # the sub-program enumerator taking each group's last indices first
    Mutant(
        "subprograms-last-indices",
        DEADLOCK,
        "for r, i in enumerate(g)}",
        "for r, i in enumerate(g[::-1])}",
        (SEARCH_TESTS + "test_subprogram_indices_are_the_sorted_count_vectors",),
    ),
    # the sub-program stack: a pop hands the group's copy back
    Mutant(
        "subprograms-taken-kept-on-pop",
        DEADLOCK,
        "        taken[place[i][0]] -= 1\n",
        "",
        (SEARCH_TESTS + "test_subprogram_indices_are_the_sorted_count_vectors",),
    ),
    # the orbit view's ``in``: it compares the record the state stands for
    Mutant(
        "view-in-without-record",
        DEADLOCK,
        "return orbit in self._orbits and self._record(state, self._orbits[orbit][1]) == item",
        "return orbit in self._orbits",
        (RECORD_TEST,),
    ),
    # the candidate sweep over count vectors: a slot whose resource is
    # exactly full still takes copies, ⊤ (no copy requesting) is no hit, and
    # a backtrack hands the copy and its request back
    Mutant(
        "sweep-prune-at-capacity",
        DEADLOCK,
        "c = left[k] if totals[r] <= kappa[r] else 0",
        "c = left[k] if totals[r] < kappa[r] else 0",
        (SWEEP_TEST,),
    ),
    Mutant(
        "sweep-top-a-hit",
        DEADLOCK,
        "and any(asks) and (value := leaf(",
        "and (value := leaf(",
        (SWEEP_TEST,),
    ),
    Mutant(
        "sweep-copy-kept-on-backtrack",
        DEADLOCK,
        "counts[-1] -= 1\n            left[k] += 1\n",
        "counts[-1] -= 1\n",
        (SWEEP_TEST,),
    ),
    Mutant(
        "sweep-request-kept-on-backtrack",
        DEADLOCK,
        "asks[r] -= 1",
        "asks[r] -= 0",
        (
            SEARCH_TESTS + "test_potential_deadlock_allows_unrequested_overflow",
            CLASS_TESTS + "test_choice_points_match_naive_sweep",
        ),
    ),
    # the bounds of the walk: a slot holding a requested resource takes at
    # most its free room (one more hands the leaf a resource over capacity;
    # one less can leave a count below zero, which never pops, so that
    # mutant is left out); what a requested resource may still gain counts
    # the copies of later groups and those of its own group left at ⊤; and
    # choice points allow one resource one short
    Mutant(
        "sweep-cap-past-the-room",
        DEADLOCK,
        "                    c = kappa[s] - totals[s]\n",
        "                    c = kappa[s] - totals[s] + 1\n",
        (BRUTE_FORCE_TEST,),
    ),
    Mutant(
        "sweep-room-without-later-groups",
        DEADLOCK,
        "later[s] += len(groups[group])",
        "later[s] += 0",
        (BRUTE_FORCE_TEST,),
    ),
    Mutant(
        "sweep-room-without-own-copies",
        DEADLOCK,
        "totals[s] + (left[k] if own_later else 0) < need",
        "totals[s] < need",
        (SWEEP_TEST,),
    ),
    # the deadlock leaf: a potential deadlock may hold an unrequested
    # resource over capacity, and the search must not target it
    Mutant(
        "deadlock-leaf-always-admissible",
        DEADLOCK,
        "return all(map(operator.le, totals, kappa))",
        "return True",
        (SEARCH_TESTS + "test_potential_deadlock_allows_unrequested_overflow",),
    ),
    Mutant(
        "sweep-choice-point-allowance",
        SERIALIZABILITY,
        "_hit_orbits(program, _one_short, 1, max_states)",
        "_hit_orbits(program, _one_short, 0, max_states)",
        (CLASS_TESTS + "test_choice_points_match_naive_sweep",),
    ),
    # the orbit size, counted at a hit: the copies of a group placed at one
    # slot are no longer there to choose at its next
    Mutant(
        "sweep-size-unplaced-kept",
        DEADLOCK,
        "                    unplaced[k] -= c\n",
        "",
        (SEARCH_TESTS + "test_sweep_sizes_match_orbit_members",),
    ),
    # the parser builds each distinct action of a source once
    Mutant(
        "parser-action-built-per-token",
        CORE,
        "action = built[word] = Action(word[0], word[1:])",
        "action = Action(word[0], word[1:])",
        ("tests/test_parser.py::test_each_distinct_action_is_built_once_per_source",),
    ),
    # the one-pass parser: the declared-resource check on a new action, the
    # error offset of an action after a spaced one, the program reader's stop
    # at text no token starts, and a cached property's value kept
    Mutant(
        "parser-scan-skips-known",
        CORE,
        "if known is not None and word[1:] not in known:",
        "if False:",
        (
            "tests/test_parser.py::test_unknown_resource_in_thread",
            "tests/test_parser.py::test_parser_matches_the_token_walker",
        ),
    ),
    Mutant(
        "parser-offset-counts-the-spaced-resource-word",
        CORE,
        "        if len(m.group()) == 1:\n            next(words, None)\n",
        "",
        (
            "tests/test_parser.py::test_action_token_errors",
            "tests/test_parser.py::test_parser_matches_the_token_walker",
        ),
    ),
    Mutant(
        "parser-program-skips-junk",
        PARSER,
        r"|(\d+)|(?=\S))",
        r"|(\d+))",
        (
            "tests/test_parser.py::test_program_expression_errors_are_located",
            "tests/test_parser.py::test_parser_matches_the_token_walker",
        ),
    ),
    Mutant(
        "cached-property-not-kept",
        CORE,
        "value = instance.__dict__[self.name] = self.func(instance)",
        "value = self.func(instance)",
        ("tests/test_core.py::test_each_cached_property_runs_once_per_instance",),
    ),
    # the choice-point leaf: one requester of the short resource is no choice
    Mutant(
        "choice-point-one-requester",
        SERIALIZABILITY,
        "asks[short[0]] >= 2",
        "asks[short[0]] >= 1",
        (CLASS_TESTS + "test_choice_points_match_naive_sweep",),
    ),
    # the guards: each count is exact, and each bound admits what it counts
    Mutant(
        "guard-paths-without-the-start-state",
        DEADLOCK,
        "count * (sum(orbit) + 1)",
        "count * sum(orbit)",
        (SEARCH_TESTS + "test_find_deadlocks_bounds_witness_paths",),
    ),
    Mutant(
        "cli-family-print-cap-removed",
        CLI,
        "shown = verdict.witnesses",
        "shown = ()",
        (CLI_TESTS + "test_family_deadlock_print_bound_is_exact",),
    ),
    Mutant(
        "cli-family-choice-point-print-cap-removed",
        CLI,
        "shown = verdict.choice_points",
        "shown = ()",
        (CLI_TESTS + "test_family_serializability_print_bound_is_exact",),
    ),
    Mutant(
        "subprogram-count-short-slice",
        DEADLOCK,
        "coeffs[max(0, m - len(g)) : m + 1]",
        "coeffs[max(0, m - len(g) + 1) : m + 1]",
        (SEARCH_TESTS + "test_subprogram_indices_are_the_sorted_count_vectors",),
    ),
    Mutant(
        "program-verdict-resource-free-to-subprograms",
        DEADLOCK,
        "if program.n <= cutoff or not cutoff:",
        "if program.n <= cutoff:",
        (SEARCH_TESTS + "test_program_verdict_with_resource_free_threads_matches_find_deadlocks",),
    ),
    Mutant(
        "orbit-states-one-value-short",
        CORE,
        "comb(self.tops[g[0]] + len(g), len(g))",
        "comb(self.tops[g[0]] + len(g) - 1, len(g))",
        (SEARCH_TESTS + "test_orbit_states_counts_multisets",),
    ),
    # the orbit view: membership, permutations, ``==``, ``len`` and
    # iteration order
    Mutant(
        "view-in-without-length-check",
        DEADLOCK,
        "if not isinstance(state, tuple) or len(state) != sum(map(len, self._groups)):",
        "if not isinstance(state, tuple):",
        (VIEW_TEST,),
    ),
    Mutant(
        "view-in-sorts-whole-state",
        DEADLOCK,
        "orbit = _canon(self._groups, state)",
        "orbit = tuple(sorted(state))",
        (VIEW_TEST,),
    ),
    Mutant(
        "permutations-reverse-stepping-group-only",
        DEADLOCK,
        "tails = [[q for q in g if q > i] for g in groups]",
        "tails = [[q for q in g if q > i] for g in groups if i in g]",
        (VIEW_TEST,),
    ),
    Mutant(
        "view-eq-ignores-length",
        DEADLOCK,
        "return size == self._len and all(map(operator.eq, self, other))",
        "return all(map(operator.eq, self, other))",
        (VIEW_TEST,),
    ),
    Mutant(
        "view-len-counts-orbits",
        DEADLOCK,
        "return sum(size for size, _ in self._orbits.values())",
        "return len(self._orbits)",
        (VIEW_TEST,),
    ),
    Mutant(
        "view-iteration-chained",
        DEADLOCK,
        "return heapq.merge(*members, key=self._key)",
        "return itertools.chain(*members)",
        (VIEW_TEST,),
    ),
    # the witness chain: which copy a replayed step moves, and how tied copies
    # of a state are paired with the chain's end
    Mutant(
        "chain-replays-the-last-copy",
        DEADLOCK,
        "d = next(i for i in g if q[i] == x)",
        "d = next(i for i in reversed(g) if q[i] == x)",
        (DIGEST_TEST,),
    ),
    Mutant(
        "onto-state-ties-reversed",
        DEADLOCK,
        "sorted(g, key=state.__getitem__)",
        "sorted(g[::-1], key=state.__getitem__)",
        (DIGEST_TEST,),
    ),
    # the path validator: a step onto a full resource, and a step past ⊤
    Mutant(
        "validate-edge-admits-full-resource",
        GEOMETRY,
        "if r is not None and totals[r] >= kappa[r]:",
        "if r is not None and totals[r] > kappa[r]:",
        ("tests/test_geometry.py::test_lattice_path_validate_messages",),
    ),
    Mutant(
        "validate-step-past-top-unchecked",
        GEOMETRY,
        "if x >= tops[c]:",
        "if x > tops[c]:",
        (VALIDATE_TEST,),
    ),
    # the scans of steps(), which validate reads: a later state's coordinates
    # typed only through their differences, a state that is a list of ints,
    # and a longer state padded with a non-int
    Mutant(
        "validate-without-the-type-scan",
        GEOMETRY,
        "            or operator.countOf(map(type, coords), int) != n * len(states)\n",
        "",
        (VALIDATE_TEST, "tests/test_core.py::test_non_integer_coordinates_are_value_errors"),
    ),
    Mutant(
        "validate-without-the-tuple-scan",
        GEOMETRY,
        "operator.countOf(map(isinstance, states, itertools.repeat(tuple)), True) != len(states)\n"
        "            or ",
        "",
        (NON_TUPLE_TEST,),
    ),
    Mutant(
        "steps-admits-ragged-states",
        GEOMETRY,
        "            or operator.countOf(map(len, states), n) != len(states)\n",
        "",
        (CLASS_TESTS + "test_steps_refuse_states_of_different_lengths",),
    ),
    Mutant(
        "serial-order-ignores-start",
        SERIALIZABILITY,
        "    if any(path.start):\n        return None\n",
        "",
        (CLASS_TESTS + "test_serial_order_needs_a_start_at_bottom_and_every_thread_run",),
    ),
    Mutant(
        "check-state-admits-non-tuples",
        CORE,
        "        if not isinstance(state, tuple):\n"
        '            raise ValueError(f"state of type {type(state).__name__} is not a tuple")\n',
        "",
        (NON_TUPLE_TEST,),
    ),
    # the encoder: JSON's spelling of NaN (``repr`` writes ``nan``), and
    # keys in sorted order
    Mutant(
        "encoder-lowercase-nan",
        REPORT,
        "return json.dumps(value)",
        "return repr(value)",
        ("tests/test_report.py::test_dumps_matches_json_on_edge_values",),
    ),
    Mutant(
        "encoder-unsorted-keys",
        REPORT,
        '(sorted(obj.items()), "{}")',
        '(obj.items(), "{}")',
        ("tests/test_report.py::test_dumps_matches_json_on_edge_values",),
    ),
    # the per-thread index tables: the point of a P holds what was held
    # before it, and each point lists its resources in ascending order
    Mutant(
        "index-point-after-acquire",
        CORE,
        "points.append(tuple(held))\n                    requests.append(r)\n"
        "                    insort(held, r)",
        "insort(held, r)\n                    points.append(tuple(held))\n"
        "                    requests.append(r)",
        ("tests/test_core.py::test_index_tables_match_point_use_and_action_at",),
    ),
    Mutant(
        "index-unsorted-append",
        CORE,
        "insort(held, r)",
        "held.append(r)",
        ("tests/test_core.py::test_index_tables_match_point_use_and_action_at",),
    ),
    # thread identity, decided once: equal threads built as distinct objects
    # form one group, and every coordinate of a group gets its tables
    Mutant(
        "groups-by-object-only",
        CORE,
        "groups.setdefault(t.actions, [])",
        "groups.setdefault(id(t), [])",
        ("tests/test_core.py::test_groups_and_tables_of_equal_distinct_threads",),
    ),
    # the group key as a multiset of actions: ``Pa Pb Vb Va`` and
    # ``Pb Pa Va Vb`` then share a group
    Mutant(
        "groups-key-order-free",
        CORE,
        "groups.setdefault(t.actions, [])",
        "groups.setdefault(tuple(sorted(t.actions, key=str)), [])",
        ("tests/test_core.py::test_groups_and_tables_of_equal_distinct_threads",),
    ),
    Mutant(
        "index-tables-to-the-first-coordinate-only",
        CORE,
        "for i in g:\n                point[i], request[i] = tables",
        "for i in g[:1]:\n                point[i], request[i] = tables",
        ("tests/test_core.py::test_index_tables_match_point_use_and_action_at",),
    ),
    Mutant(
        "silent-table-to-the-first-coordinate-only",
        CORE,
        "for i in g:\n                silent[i] = table",
        "for i in g[:1]:\n                silent[i] = table",
        ("tests/test_core.py::test_index_tables_match_point_use_and_action_at",),
    ),
    # a state's coordinates are ints: a bool passes ``isinstance(x, int)``
    Mutant(
        "check-state-admits-bools",
        CORE,
        "if type(x) is not int:",
        "if not isinstance(x, int):",
        ("tests/test_core.py::test_non_integer_coordinates_are_value_errors",),
    ),
    # the choice-point records: contenders read from the state itself, ``==``
    # comparing payloads, the reachable flag from the search, and the
    # concrete choice points bounded before they are listed
    Mutant(
        "choice-point-contenders-from-sorted-state",
        SERIALIZABILITY,
        "asked = map(operator.getitem, request, state)",
        "asked = map(operator.getitem, request, sorted(state))",
        (CLASS_TESTS + "test_choice_points_match_naive_sweep",),
    ),
    Mutant(
        "view-eq-orbit-keys-without-payloads",
        DEADLOCK,
        "and other._orbits == self._orbits",
        "and other._orbits.keys() == self._orbits.keys()",
        (RECORD_TEST,),
    ),
    Mutant(
        "choice-points-without-reachability",
        SERIALIZABILITY,
        "index.is_reachable(o)",
        "True",
        (CLASS_TESTS + "test_choice_point_flags_match_a_reachability_oracle",),
    ),
    Mutant(
        "choice-points-unguarded",
        SERIALIZABILITY,
        "    _guard_members(hits, max_states)\n",
        "",
        (CLASS_TESTS + "test_choice_points_bound_is_exact_on_a_listable_instance",),
    ),
    # the front end: decimal capacities, the thread bound at its value in the
    # parser, ``Program.power`` and the witness constructors, the grid size
    # past the int-to-str limit, and library errors as exit 2
    Mutant(
        "parser-capacity-isdigit",
        PARSER,
        "cap_text.isdecimal()",
        "cap_text.isdigit()",
        ("tests/test_parser.py::test_capacity_takes_decimal_digits_only",),
    ),
    Mutant(
        "parser-thread-bound-off-by-one",
        PARSER,
        "if len(threads) + count > _MAX_THREADS:",
        "if len(threads) + count >= _MAX_THREADS:",
        ("tests/test_parser.py::test_program_at_the_thread_bound_parses",),
    ),
    # the one check of a counted cap refusing a count that fits its bound
    # exactly: the threads of a power, the witness paths, the concrete
    # candidates and the sub-programs each have an exact-bound test
    Mutant(
        "counted-cap-at-the-bound",
        CORE,
        "if count > limit:",
        "if count >= limit:",
        (
            "tests/test_core.py::test_power_bounds_the_copy_count",
            SEARCH_TESTS + "test_find_deadlocks_bounds_witness_paths",
            SEARCH_TESTS + "test_potential_deadlocks_bound_counts_concrete_states",
            SEARCH_TESTS + "test_program_verdict_bounds_the_subprogram_count",
        ),
    ),
    Mutant(
        "thread-unchecked",
        CORE,
        "        bad = thread_violations(self.actions)\n        if bad:\n",
        "        bad = thread_violations(self.actions)\n        if False:\n",
        ("tests/test_core.py::test_thread_checks_its_use_discipline_when_built",),
    ),
    Mutant(
        "power-admits-bools",
        CORE,
        "if type(n) is not int:",
        "if not isinstance(n, int):",
        ("tests/test_core.py::test_power_takes_an_integer_copy_count",),
    ),
    Mutant(
        "witness-thread-bound-off-by-one",
        DEADLOCK,
        "if cutoff > _MAX_THREADS:",
        "if cutoff >= _MAX_THREADS:",
        (CLI_TESTS + "test_witness_at_the_thread_bound_parses_back",),
    ),
    Mutant(
        "cli-check-size-fallback-removed",
        CLI,
        "{_count_text(p.grid_states())}",
        "{p.grid_states()}",
        (CLI_TESTS + "test_check_states_a_grid_past_the_digit_limit_as_its_magnitude",),
    ),
    Mutant(
        "cli-main-without-value-error",
        CLI,
        "except (OSError, ValueError, PvError) as exc:",
        "except (OSError, PvError) as exc:",
        (CLI_TESTS + "test_family_needs_thread_name_when_ambiguous",),
    ),
    # the reader tables: a call they decide runs no argparse pass, so each
    # rule the reader keeps must match argparse's (the argv shapes, each
    # against the top parser alone) or leave the call to argparse (the
    # random differential): a value's type and choices, help, a positional
    # after an option, words left over, and a first word naming no command
    # the output streams: a stderr line that cannot be written is dropped,
    # stdout drops only a reader gone, and a stream never open is a sink, so
    # nothing meant for it lands on the other
    Mutant(
        "cli-stderr-failure-escapes",
        CLI,
        r'_write(sys.stderr, (f"{line}\n",), OSError)',
        r'_write(sys.stderr, (f"{line}\n",), ())',
        (CLI_TESTS + "test_closed_stderr_keeps_the_exit_code[reader-gone]",),
    ),
    Mutant(
        "cli-stderr-none-prints-to-stdout",
        CLI,
        "redirect_stderr(sys.stderr or sink)",
        "redirect_stderr(sys.stderr)",
        (CLI_TESTS + "test_closed_stderr_keeps_the_exit_code[closed]",),
    ),
    Mutant(
        "cli-stdin-none-unchecked",
        CLI,
        "if sys.stdin is None:",
        "if False:",
        (CLI_TESTS + "test_never_open_stdin_is_an_input_error",),
    ),
    Mutant(
        "cli-stdout-drops-every-oserror",
        CLI,
        "_write(sys.stdout, pieces, BrokenPipeError)",
        "_write(sys.stdout, pieces, OSError)",
        (CLI_TESTS + "test_full_stdout_is_reported_with_exit_2",),
    ),
    Mutant(
        "cli-no-sink-for-a-never-open-stream",
        CLI,
        "if None in (sys.stdout, sys.stderr):",
        "if False:",
        (
            CLI_TESTS + "test_never_open_stdout_ends_quietly",
            CLI_TESTS + "test_closed_stderr_keeps_the_exit_code[closed]",
        ),
    ),
    Mutant(
        "cli-reader-skips-type",
        CLI,
        "    value = action.type(word) if action.type else word\n",
        "    value = word\n",
        (CLI_TESTS + "test_each_argv_shape_keeps_its_exit_code_and_output",),
    ),
    Mutant(
        "cli-reader-skips-choices",
        CLI,
        "if action.choices is not None and value not in action.choices:",
        "if False:",
        (CLI_TESTS + "test_each_argv_shape_keeps_its_exit_code_and_output",),
    ),
    Mutant(
        "cli-reader-reads-help",
        CLI,
        "if a.default != argparse.SUPPRESS]",
        "]",
        (
            CLI_TESTS + "test_each_argv_shape_keeps_its_exit_code_and_output",
            CLI_TESTS + "test_reader_gives_argparse_namespace_or_leaves_the_call",
        ),
    ),
    Mutant(
        "cli-reader-takes-a-positional-after-an-option",
        CLI,
        'if word[:1] == "-" and word != "-" or given:',
        'if word[:1] == "-" and word != "-":',
        (CLI_TESTS + "test_reader_gives_argparse_namespace_or_leaves_the_call",),
    ),
    Mutant(
        "cli-reader-ignores-leftover-words",
        CLI,
        "        if free:\n            return None\n",
        "",
        (CLI_TESTS + "test_each_argv_shape_keeps_its_exit_code_and_output",),
    ),
    Mutant(
        "cli-reader-skips-the-top-parser",
        CLI,
        "reader = readers.get(argv[0]) if argv else None",
        'reader = readers.get(argv[0], readers["check"]) if argv else None',
        (CLI_TESTS + "test_each_argv_shape_keeps_its_exit_code_and_output",),
    ),
)


def pytest_run(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    # no bytecode: a mutated module and its restored original may share a
    # size and an mtime, and a cached .pyc of one would serve the other
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="pvguard-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)

        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        clean = pytest_run(tree, tests)
        if clean.returncode != 0:
            print(clean.stdout)
            print("mutants: the named tests fail without a mutant")
            return 1
        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            found = original.count(m.old)
            if found != 1:
                print(f"{m.name}: STALE, the old text occurs {found} times in {m.path}")
                failures.append(m.name)
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                run = pytest_run(tree, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if run.returncode == 0:
                print(f"{m.name}: SURVIVED {' '.join(m.tests)}")
                failures.append(m.name)
            else:
                print(f"{m.name}: caught (pytest exit {run.returncode})")
    print(f"mutants: {len(MUTANTS) - len(failures)} of {len(MUTANTS)} caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
