#!/bin/sh
# Prints the lines added to, removed from and net change of src/ (every
# *.cpp and *.h below it) between a base commit and the working tree, as
# counted by `git diff --numstat`. New files count once staged (git add).
# Run from the repository root.
#
#   scripts/src_delta.sh [base-ref]      default: HEAD (uncommitted changes)
#
# For a committed change, pass its parent: scripts/src_delta.sh HEAD~1
BASE=${1:-HEAD}
git diff --numstat "$BASE" -- 'src/*.cpp' 'src/*.h' |
  awk '{ add += $1; del += $2 }
       END { printf "src/: +%d -%d net %+d\n", add, del, add - del }'
