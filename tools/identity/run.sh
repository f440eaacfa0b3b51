#!/usr/bin/env bash
# make identity: the identity manifest of make reach's outputs.
#
# Takes the SHA-256 of every file make reach left under .reach_build/work —
# run dirs, data dirs, every perfrecup view, export and figure, whatif -json,
# watch -once -json — except the ones IDENTITY.txt's header excludes by name
# ("# exclude GLOB REASON"), and compares the (path, digest) rows with the
# ones IDENTITY.txt holds. A file that differs, appears or is missing fails
# the target, and the diff names it.
#
#   make reach && make identity
#
# The manifest it computed is left in .reach_build/IDENTITY.txt, header
# included: a change that means to move bytes copies it over IDENTITY.txt,
# and the diff of IDENTITY.txt names every file that moved.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
work=$root/.reach_build/work
want=$root/IDENTITY.txt
got=$root/.reach_build/IDENTITY.txt
if [ ! -d "$work" ]; then
	echo "identity: $work is missing; run make reach first" >&2
	exit 1
fi

mapfile -t excluded < <(sed -n 's/^# exclude \([^ ]*\) .*/\1/p' "$want")
kept() {
	local f
	while IFS= read -r -d '' f; do
		f=${f#./}
		for g in "${excluded[@]}"; do
			# shellcheck disable=SC2053 # $g is a glob
			[[ $f == $g ]] && continue 2
		done
		printf '%s\0' "$f"
	done
}
{
	grep '^#' "$want"
	(cd "$work" && find . -type f -print0 | kept | LC_ALL=C sort -z | xargs -0 sha256sum |
		awk '{ print substr($0, 67), $1 }')
} >"$got"

if diff -u --label IDENTITY.txt --label .reach_build/IDENTITY.txt \
	<(grep -v '^#' "$want") <(grep -v '^#' "$got"); then
	echo "identity: $(grep -vc '^#' "$got") files as IDENTITY.txt lists them"
else
	echo "identity: make reach's outputs differ from IDENTITY.txt (- listed, + made);" \
		"if the change means to move them, cp .reach_build/IDENTITY.txt IDENTITY.txt" >&2
	exit 1
fi
