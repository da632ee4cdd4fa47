#!/usr/bin/env python3
"""Verdicts about every number of thread copies at once.

Running n identical copies of a thread gives a family of programs, one per
n. Searching each n separately never ends; instead, a single bounded search
at a cut-off size decides the whole family. This demo shows the cut-off at
work and generates a thread proving the bound cannot be lowered.
"""

from pvguard import (
    CapacityMap,
    Program,
    Thread,
    deadsharp_witness,
    family_deadlock_verdict,
    find_deadlocks,
    program_deadlock_verdict,
)

caps = CapacityMap((("a", 1), ("b", 1), ("c", 1)))
ring = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
print("thread:", ring)
print()

v = family_deadlock_verdict(ring, caps)
print(f"deadlock-free for every n?  {v.verdict}")
print(f"  decided by rule {v.rule!r} at cut-off {v.cutoff}")
if v.manifests_at_n:
    print(f"  first failure at n = {v.manifests_at_n}, e.g. state {next(iter(v.witnesses))}")
print()

print("The cut-off is the capacity sum. Below it everything is clean:")
for n in (1, 2, 3):
    dls = find_deadlocks(Program.power(ring, n, caps)).deadlocks
    print(f"  n={n}: {len(dls)} deadlock(s)")
print()

print("The bound is tight for every capacity map: a chain thread that walks")
print("all resources and then grabs the first one again deadlocks exactly")
print("when the copies can fill every slot.")
for entries in [(("a", 1), ("b", 1)), (("a", 2), ("b", 1)), (("a", 2), ("b", 2))]:
    cm = CapacityMap(entries)
    plan = deadsharp_witness(cm)
    label = " ".join(f"{r}:{c}" for r, c in cm.items())
    m = plan.cutoff
    at_cutoff = find_deadlocks(Program.power(plan.thread, m, cm)).deadlocks
    below = find_deadlocks(Program.power(plan.thread, m - 1, cm)).deadlocks if m > 1 else ()
    print(f"  {label}: thread {plan.thread}")
    print(f"    n={m}: deadlock at {plan.expected_state} "
          f"(found {len(at_cutoff)}), n={m - 1}: {len(below)}")
print()

print("A program of different threads reduces to its sub-programs of cut-off")
print("size: a deadlock among more threads restricts to the ones still running.")
texts = ("Pa Pb Vb Va", "Pa Va Pb Vb", "Pa Va Pb Vb", "Pb Pa Va Vb")
mixed = Program(tuple(map(Thread.from_text, texts)), CapacityMap((("a", 1), ("b", 1))))
v = program_deadlock_verdict(mixed)
print(f"  {' | '.join(map(str, mixed.threads))} at a:1 b:1")
print(f"  deadlock-free?  {v.verdict} ({v.rule}, cut-off {v.cutoff}): {v.detail}")
print(f"  witness {next(iter(v.witnesses))}")
