#!/usr/bin/env bash
# Run one compare and one validate of a small heterogeneous config with the
# package at $BASE/src and at ./src, writing under $WORK/base and $WORK/head.
# When pyproject.toml's version is unchanged the artifacts must match byte
# for byte.  When it changed, the file sets and every CSV's header row must
# still match, and each CSV that differs gets its largest relative cell
# difference printed as a GitHub ::notice::.
#
# usage: BASE=<checkout of the base commit> WORK=<scratch dir> bash .github/bytes.sh
set -euo pipefail

version() {
  python -c 'import sys, tomllib; print(tomllib.load(open(sys.argv[1], "rb"))["project"]["version"])' "$1/pyproject.toml"
}

mkdir -p "$WORK"
cat > "$WORK/config.json" <<'JSON'
{"schools": 4, "teachers_per_school": [2, 4, 6, 8], "students_per_school": [5, 17, 30, 11],
 "teacher_vc": {"sigma_v2": 1.6, "sigma_eps2": 14.4},
 "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 14.4},
 "designs": ["within_schools", "crd"], "assignment": {"policy": "with_replacement", "c": 3},
 "q": 0.3, "replicates": 300, "seed": 1, "effect_size_diff": 1.0}
JSON
for side in base head; do
  src=$([ "$side" = base ] && echo "$BASE/src" || echo "$PWD/src")
  for mode in compare validate; do
    # exit code 2 (a failed validation row) still writes every artifact
    PYTHONPATH="$src" python -m multilevel_design.cli "$mode" \
      --config "$WORK/config.json" --out "$WORK/$side/$mode" || [ $? -eq 2 ]
  done
done

if [ "$(version "$BASE")" = "$(version .)" ]; then
  diff -r "$WORK/base" "$WORK/head"
  exit 0
fi
echo "::notice::pyproject.toml's version changed ($(version "$BASE") -> $(version .)); comparing file sets, headers and cells"
python - "$WORK/base" "$WORK/head" <<'PY'
import csv
import sys
from pathlib import Path


def files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def relative(a, b):
    """|a - b| / |a| for two numeric cells, 0 for equal text, inf otherwise."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    return abs(x - y) / abs(x) if x else float("inf")


base, head = Path(sys.argv[1]), Path(sys.argv[2])
failed = False
if files(base) != files(head):
    print(f"::error::artifact sets differ: {sorted(set(files(base)) ^ set(files(head)))}")
    failed = True
for name in sorted(set(files(base)) & set(files(head))):
    if (base / name).read_bytes() == (head / name).read_bytes():
        continue
    if not name.endswith(".csv"):
        print(f"::notice::{name} differs")
        continue
    old, new = rows(base / name), rows(head / name)
    if old[:1] != new[:1]:
        print(f"::error::{name}: header {old[:1]} became {new[:1]}")
        failed = True
        continue
    if len(old) != len(new):
        print(f"::notice::{name}: {len(old)} rows became {len(new)}")
        continue
    worst = max(relative(a, b) for r, s in zip(old, new) for a, b in zip(r, s))
    print(f"::notice::{name}: largest relative cell difference {worst:.3g}")
sys.exit(1 if failed else 0)
PY
