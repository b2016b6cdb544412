#!/bin/sh
# Byte-compare the repro/ outputs of two commits.
#
#     sh tools/repro_diff.sh BASE HEAD
#
# Both commits are exported with `git archive` into a temporary directory, and
# repro/run_all.sh runs in each with an `ldp-hull` shim on PATH
# (`python3 -m ldp_hull.cli` on that export's src/).  Prints nothing and exits
# 0 when the two repro/out trees are byte-identical; prints their `diff -r`
# and exits 1 otherwise.  Only committed files take part, and the working tree
# is left untouched.
set -eu
if [ $# -ne 2 ]; then
  echo "usage: sh tools/repro_diff.sh BASE HEAD" >&2
  exit 2
fi
ROOT="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM
mkdir "$TMP/bin"
printf '#!/bin/sh\nexec python3 -m ldp_hull.cli "$@"\n' > "$TMP/bin/ldp-hull"
chmod +x "$TMP/bin/ldp-hull"

run() {  # run COMMIT DIR: export COMMIT into DIR and regenerate its repro/out
  mkdir "$2"
  git -C "$ROOT" archive "$1" | tar -x -C "$2"
  (cd "$2" && PATH="$TMP/bin:$PATH" PYTHONPATH="$2/src" sh repro/run_all.sh > /dev/null)
}

run "$1" "$TMP/base"
run "$2" "$TMP/head"
diff -r "$TMP/base/repro/out" "$TMP/head/repro/out"
