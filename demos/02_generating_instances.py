"""
Generating benchmark instances
==============================

Five built-in recipes (NRP-1 .. NRP-5) produce layered dependency
graphs: requirements sit in levels, edges only point from one level
into the next, and costs grow with depth.  Generation is a pure
function of (recipe, seed).
"""

from nrpbench import (InvalidInstanceError, builtin_names, builtin_spec, generate,
                      make_instance, read_instance, write_instance)

print("built-in families:", ", ".join(builtin_names()))
for name in builtin_names():
    spec = builtin_spec(name)
    shape = " + ".join(str(lv.count) for lv in spec.levels)
    print(f"  {name}: {shape} requirements in {len(spec.levels)} levels,",
          f"{spec.customer_count} customers")

# Generate the smallest family and poke at it.
inst = generate(builtin_spec("NRP-1"), seed=42)
print()
print("NRP-1 seed 42 ->", inst)
print("level sizes:", inst.level_sizes)
print("first level costs:", [r.cost for r in inst.requirements[:20]])
print("a customer:", inst.customers[0])

# Same seed, same instance -- the text serialization is byte-stable.
again = generate(builtin_spec("NRP-1"), seed=42)
print()
print("regenerated text identical:", write_instance(inst) == write_instance(again))
other = generate(builtin_spec("NRP-1"), seed=43)
print("seed 43 differs:", write_instance(inst) != write_instance(other))

# The text format round-trips through plain strings (or files, via
# write_instance_file / read_instance_file).
back = read_instance(write_instance(inst))
print("round-trip preserves the instance:",
      write_instance(back) == write_instance(inst))

# Every instance that exists is valid: malformed data (here a two-node
# dependency cycle, a zero cost and a request for a requirement that does
# not exist) is refused when the instance is built, with every issue listed.
try:
    make_instance([0, 3], [(1, 2), (2, 1)], [(10, [2]), (5, [7])])
except InvalidInstanceError as err:
    print()
    print("refused:", len(err.issues), "issues")
    for issue in err.issues:
        print("  ", issue)
