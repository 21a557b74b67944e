"""Check entries of the ``result`` section of a ``barydeg fit``/``identify`` report.

Usage: python check_result.py REPORT KEY=JSON [KEY=JSON ...]

Exits nonzero unless, for every KEY=JSON, the report's ``result`` holds KEY
and its value equals the JSON value with the same type: ``true`` does not
match 1, nor ``-4`` match -4.0, and ``null`` does not match a missing key.
"""

import json
import sys

path, checks = sys.argv[1], sys.argv[2:]
if not checks:
    sys.exit("usage: check_result.py REPORT KEY=JSON [KEY=JSON ...]")
with open(path, encoding="utf-8") as fh:
    result = json.load(fh)["result"]
wrong = []
for check in checks:
    key, _, text = check.partition("=")
    want = json.loads(text)
    if key not in result:
        wrong.append(f"{key} missing (expected {text})")
    elif type(result[key]) is not type(want) or result[key] != want:
        wrong.append(f"{key} = {json.dumps(result[key])} (expected {text})")
if wrong:
    sys.exit(f"{path}: " + "; ".join(wrong))
