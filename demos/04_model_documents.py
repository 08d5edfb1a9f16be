"""Work with model documents: the JSON file that carries the whole model.

The rule base ships as data, so an experiment with a different rule table or
different membership widths is a file edit, not a code change.  Documents
round-trip losslessly and the validator catches structural damage.
"""

import json
from pathlib import Path

from fuzzyspectrum import (
    Candidate,
    decision_possibility,
    validate_model,
)
from fuzzyspectrum.serialization import (
    default_document,
    parse_document,
    serialize_document,
)

work = Path("documents")
work.mkdir(exist_ok=True)

# Write the shipped model out and read it back: identical object, identical bytes.
doc = default_document()
path = work / "model.json"
path.write_text(serialize_document(doc), encoding="utf-8", newline="\n")
again = parse_document(path.read_text())
print("round trip object-equal:", again == doc)
print("round trip byte-stable: ", serialize_document(again) == serialize_document(doc))

# Both models decide identically, bit for bit.
probe = Candidate("probe", -67.0, 42.0, 0.35, 28.0)
a = decision_possibility(probe, doc.model).possibility
b = decision_possibility(probe, again.model).possibility
print("same decision from the reloaded model:", a == b, f"({a:.6f})")

# Damage the document: drop one rule and soften one weight, then validate.
raw = json.loads(serialize_document(doc))
del raw["rules"][8]
raw["rules"][0]["weight"] = 0.7
broken = parse_document(json.dumps(raw))
report = validate_model(broken.model)
print()
print(f"validator findings ({len(report.failures)}):")
for failure in report.failures:
    print("  -", failure)

# Strict parsing: unknown fields are rejected by name instead of ignored,
# so typos cannot silently change an experiment.
raw = json.loads(serialize_document(doc))
raw["settings"]["grid_pts"] = 500
try:
    parse_document(json.dumps(raw))
except Exception as exc:
    print()
    print("strict parser said:", exc)
