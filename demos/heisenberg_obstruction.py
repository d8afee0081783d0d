"""Why the Heisenberg group admits no RFRS filtration, at desk scale.

The Heisenberg group H = <x, y, z | [x, y] = z, z central> is the smallest
nonabelian torsion-free nilpotent group.  Its center <z> dies rationally
in the abelianization Z^2, and that single fact traps z in every chain of
normal finite-index subgroups satisfying the step condition

    next term contains ker(term -> term^ab tensor Q).

The bounded certificate below makes this exhaustive for every normal
subgroup of index at most 8: whenever z lies in such a subgroup, its image
in that subgroup's abelianization is torsion again, so z can never be
dropped.  A chain that keeps z in every term has nontrivial intersection,
so it is not exhaustive.
"""

from rfrskit import (
    Filtration,
    Subgroup,
    center_ab_report,
    heisenberg,
    obstruction_certificate,
    subgroup_closure,
    trapped_central_witness,
    verify_rfrs_chain,
)

h = heisenberg()
rep = center_ab_report(h)
print("center basis:", rep.center_basis)
print("center injects into abelianization:", rep.injective)
print("witness with torsion image:", rep.kernel_witness)

print()
print("a chain satisfying the step conditions:  H > <x^2,y,z> > <x^2,y^2,z>")
chain = Filtration.from_subgroups(
    h,
    [
        Subgroup.whole_group(h),
        subgroup_closure(h, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
        subgroup_closure(h, [(2, 0, 0), (0, 2, 0), (0, 0, 1)]),
    ],
)
report = verify_rfrs_chain(chain)
for k, step in enumerate(report.steps):
    print(f"  step {k}: index {step.index}, normal {step.normal_in_g}, "
          f"kernel contained {step.kernel_contained}")
print("  trapped witness:", trapped_central_witness(report))
print("  intersection still contains z:", report.intersection.contains((0, 0, 1)))

print()
print("a chain violating the step condition:    H > <x^2,y^2,z^2>")
bad = Filtration.from_subgroups(
    h,
    [Subgroup.whole_group(h), subgroup_closure(h, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])],
)
report = verify_rfrs_chain(bad)
print("  kernel contained:", report.steps[0].kernel_contained, " (z is left outside)")

print()
cert = obstruction_certificate(h, max_index=8)
print(f"certificate at index bound {cert.index_bound}:")
print(f"  normal subgroups checked: {cert.checked_subgroups}")
print(f"  all_pass: {cert.all_pass}")
print(" ", cert.depth_note)
