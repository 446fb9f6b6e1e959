"""Fail when a bench/e2e run allocates more than a ceiling.

    python3 .github/words_gate.py RESULT_FILE CEILING

RESULT_FILE holds the stdout of `sh bench/e2e/run.sh`, whose last line
is the JSON result.  Exits 1 when its minor_words_per_event exceeds
CEILING.  Words per event are exact for a given compiler, so a closure
or box added on the packet path shows up here even where timings
cannot resolve it.
"""
import json
import sys

path, ceiling = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    result = json.loads(f.read().splitlines()[-1])
words = result["metrics"]["minor_words_per_event"]["value"]
print(f"minor_words_per_event {words:.4f}, ceiling {ceiling}")
sys.exit(0 if words <= ceiling else 1)
