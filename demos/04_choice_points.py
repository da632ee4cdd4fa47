#!/usr/bin/env python3
"""Local choice points, and the deadlock algorithm one copy up.

When capacities are at least 2, non-serializability always leaves a trace:
a reachable state where the last free slot of some resource must go to one
of several requesters and the outcomes never reconverge. No such state at
(capacity sum + 1) copies means no such state at any copy count. This demo
finds the choice points of a nearly-tight thread, shows that each one sits
inside a potential deadlock one copy up, and runs the family verdict on both
a dirty and a clean thread.
"""

from pvguard import (
    CapacityMap,
    Program,
    Thread,
    dihomotopy_classes,
    family_serializability_verdict,
    local_choice_points,
    potential_deadlocks,
    sharpserializable_witness,
)

caps = CapacityMap((("a", 2), ("b", 2)))
plan = sharpserializable_witness(caps)
print(f"generated thread over a:2 b:2: {plan.thread}")
print(f"  choice-point cut-off {plan.cutoff}, first obstruction expected at "
      f"n={plan.instance_n}, state {plan.expected_state} on {plan.expected_resource!r}")
print()

program = Program.power(plan.thread, plan.instance_n, caps)
cps = local_choice_points(program)
print(f"local choice points of the {plan.instance_n}-copy instance:")
for cp in cps:
    print(f"  state {cp.state}  resource {cp.resource}  "
          f"contenders {cp.contenders}  reachable={cp.reachable}")
print()

# the obstructions may be found by a deadlock algorithm one copy up: a copy
# added where a holder of the contended resource stands blocks every contender
up = set(potential_deadlocks(Program.power(plan.thread, plan.instance_n + 1, caps)))


def lifted(cp):
    spans = plan.thread.hold_intervals[cp.resource]
    holder = next(x for x in cp.state if any(i < x < j for i, j in spans))
    return (holder,) + cp.state


print(f"the {plan.instance_n + 1}-copy instance has {len(up)} potential deadlock(s); "
      "each choice point embeds into one:")
for cp in cps:
    print(f"  {cp.state} -> {lifted(cp)}, potential deadlock: {lifted(cp) in up}")
print()

print("family verdict for the generated thread:")
v = family_serializability_verdict(plan.thread, caps)
print(f"  {v.verdict} ({v.rule}, cut-off {v.cutoff}): {v.detail}")
print("  the obstruction is real but one-sided; small instances are still")
print("  serializable, as the class count shows:")
for n in (2, 3):
    rep = dihomotopy_classes(Program.power(plan.thread, n, caps))
    print(f"    n={n}: {rep.class_count} class(es), "
          f"serializable={rep.serializable}")
print()

clean = Thread.from_text("Pa Va Pb Vb Pa Va")
print(f"family verdict for {clean} (no nesting, same capacities):")
v = family_serializability_verdict(clean, caps)
print(f"  {v.verdict} ({v.rule}, cut-off {v.cutoff}): {v.detail}")
n = v.cutoff + 1
print(f"  one copy up agrees: {len(potential_deadlocks(Program.power(clean, n, caps)))} "
      f"potential deadlock(s) among {n} copies")
