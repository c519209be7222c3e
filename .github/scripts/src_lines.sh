#!/usr/bin/env bash
# Lines added, deleted and net under src/ between a base commit and HEAD,
# as a Markdown table (CI appends it to the job summary of every PR).
#
#   bash .github/scripts/src_lines.sh <base>
#
# The diff runs from the merge base of <base> and HEAD, so it counts
# only this branch's changes.
set -euo pipefail
base="${1:?usage: src_lines.sh <base commit>}"
git diff --numstat "${base}...HEAD" -- src/ | awk '
    # Binary files show "-" for both counts; awk reads them as 0.
    { added += $1; deleted += $2 }
    END {
        print "| `src/` lines | added | deleted | net |"
        print "|---|---:|---:|---:|"
        printf "| vs base | %d | %d | %+d |\n", added, deleted, added - deleted
    }'
