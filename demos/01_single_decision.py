"""Evaluate single secondary users and look inside the inference.

A candidate brings four measurements: received signal strength on the target
channel (dBm), own velocity (km/h), the ratio of spectrum it needs to the
spectrum currently free, and its distance to the licensed primary user (m).
The model turns those into one access possibility in [0, 1].
"""

from fuzzyspectrum import Candidate, decision_possibility, default_model, infer

model = default_model()

# Three textbook situations: ideal conditions, mid-range everything, and a
# channel whose primary user is strong and close.
candidates = [
    Candidate("ideal", signal_dbm=-95.0, velocity_kmh=10.0, spectrum_ratio=0.1, distance_m=15.0),
    Candidate("typical", signal_dbm=-60.0, velocity_kmh=50.0, spectrum_ratio=0.5, distance_m=50.0),
    Candidate("hopeless", signal_dbm=-25.0, velocity_kmh=90.0, spectrum_ratio=0.9, distance_m=80.0),
]

print("=== crisp decisions (admission threshold 0.5) ===")
for c in candidates:
    result = decision_possibility(c, model, threshold=0.5)
    verdict = "admit" if result.admitted else "reject"
    print(f"{c.id:>9}: possibility {result.possibility:.4f} -> {verdict}")

# infer explains the same inference: per-term memberships, the firing
# strength of each rule, the aggregated output curve and the same centroid.
print()
print("=== inside the 'typical' evaluation ===")
trace = infer(model, candidates[1].inputs())

for var, degrees in zip(model.inputs, trace.memberships):
    rendered = ", ".join(f"{t.name}={d:.4f}" for t, d in zip(var.terms, degrees))
    print(f"{var.name:>15}: {rendered}")

print()
print("strongest rules:")
ranked = sorted(enumerate(trace.firing_strengths, start=1), key=lambda rs: -rs[1])
for row, strength in ranked[:5]:
    # each rule is an (antecedent term indices, consequent term index, weight) triple
    antecedents, consequent, weight = model.rules[row - 1]
    names = ", ".join(model.term_names(antecedents))
    print(f"  row {row:2d}: IF ({names}) THEN {model.output.terms[consequent].name} (weight {weight})"
          f"   strength {strength:.4f}")

print()
print(f"aggregated curve has {len(trace.aggregated_curve)} samples; "
      f"centroid = {trace.crisp_output:.6f}")

# Out-of-range measurements are clamped to the modeled universe, so a very
# weak -110 dBm reading decides exactly like the -100 dBm edge.
weak = decision_possibility(Candidate("weak", -110.0, 50.0, 0.5, 50.0), model)
edge = decision_possibility(Candidate("edge", -100.0, 50.0, 0.5, 50.0), model)
print()
print(f"clamping: -110 dBm -> {weak.possibility:.6f}, -100 dBm -> {edge.possibility:.6f}")
