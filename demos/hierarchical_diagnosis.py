"""The full two-level story on the surrogate plant, one seed.

Three slow fault modes (classes 3, 9, 11) hide below the noise floor of
routine records, so a flat 13-class model mostly misses them. Level 1
merges them with normal operation and stays sharp on the loud faults;
the level-2 specialist re-examines anything routed to that merged class
on records taken while a band-limited probing signal runs. Runtime is
about a minute.
"""

from fddkit.metrics import format_report
from fddkit.pipeline import (ExperimentSpec, default_excitation,
                             evaluate_classifier, fit_flat, fit_hierarchical,
                             hierarchical_report, level2_accuracies,
                             level2_scores, scenario_batch)

spec = ExperimentSpec()
seed = 1
incipient = spec.incipient

flat = fit_flat(seed, spec)
test_b = scenario_batch(seed, "test", spec)
flat_report = evaluate_classifier(flat, test_b,
                                  metadata={"model": "flat", "seed": seed})
flat_inc = [flat_report.fdr_by_class[c] for c in incipient]
flat_rest = [flat_report.fdr_by_class[c]
             for c in spec.classes if c and c not in incipient]
print("flat 13-class model on quiet records:")
print(f"  mean detection, overt faults:   "
      f"{100 * sum(flat_rest) / len(flat_rest):5.1f}%")
print(f"  mean detection, slow faults:    "
      f"{100 * sum(flat_inc) / len(flat_inc):5.1f}%")

plan = default_excitation(spec.plant_factory(seed=0))
hmodel = fit_hierarchical(seed, spec, prbs=plan)
# level 1 routes on the quiet test records built above; level 2 reads
# them again or their probed twins
quiet = hierarchical_report(hmodel, test_b, test_b)
excited = hierarchical_report(hmodel, test_b,
                              scenario_batch(seed, "test", spec, prbs=plan))

for name, report in (("quiet", quiet), ("probed routing", excited)):
    inc = [report.fdr_by_class[c] for c in incipient]
    rest = [report.fdr_by_class[c]
            for c in spec.classes if c and c not in incipient]
    print(f"hierarchical, {name}:")
    print(f"  mean detection, overt faults:   "
          f"{100 * sum(rest) / len(rest):5.1f}%")
    print(f"  mean detection, slow faults:    "
          f"{100 * sum(inc) / len(inc):5.1f}%")

# hmodel.level2 is already the probed specialist, so only the quiet one
# is trained here
quiet_acc = level2_accuracies(seed, spec)
probed_acc = level2_scores(hmodel.level2, seed, spec, prbs=plan)
q = sum(quiet_acc[c] for c in incipient) / len(incipient)
e = sum(probed_acc[c] for c in incipient) / len(incipient)
print("standalone level-2 specialist, slow-fault accuracy:")
print(f"  trained and tested quiet:  {100 * q:5.1f}%")
print(f"  trained and tested probed: {100 * e:5.1f}%")
print(f"  probing gain:              {100 * (e - q):+5.1f} points")

print()
print(format_report(excited), end="")
