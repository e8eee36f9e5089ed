#!/bin/sh
# Non-test Go line counts per package: the working tree against a base
# revision, for the net line delta each change records in CHANGES.md.
#
# Usage: scripts/loc.sh [BASE]
#   BASE defaults to HEAD. Lists every package (directory) whose
#   non-test .go files differ between BASE and the working tree, with
#   both counts and the delta, then the module-wide totals. Test files,
#   perfbench/ and testdata/ are excluded. Untracked files count as
#   part of the working tree; BASE is read with git show.
set -eu

base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "loc.sh: unknown revision $base" >&2
	exit 2
}

# nontest keeps the counted paths of a list of .go file names.
nontest() {
	grep '\.go$' | grep -v '_test\.go$' | grep -Ev '(^|/)(perfbench|testdata)/' || true
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git ls-files -co --exclude-standard | nontest | sort -u | while read -r f; do
	if [ -f "$f" ]; then
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	fi
done >"$tmp/tree"

git ls-tree -r --name-only "$base" | nontest | while read -r f; do
	printf '%s %s\n' "$(dirname "$f")" "$(git show "$base:$f" | wc -l)"
done >"$tmp/base"

{
	git diff --name-only "$base" --
	git ls-files -o --exclude-standard
} | nontest | xargs -r -n1 dirname | sort -u >"$tmp/touched"

awk -v touchedf="$tmp/touched" '
	BEGIN { while ((getline d < touchedf) > 0) touched[d] = 1 }
	FILENAME == ARGV[1] { b[$1] += $2; tb += $2; next }
	{ w[$1] += $2; tw += $2 }
	END {
		printf "%-28s %8s %8s %8s\n", "package", "base", "tree", "delta"
		n = 0
		for (d in touched) list[++n] = d
		for (i = 2; i <= n; i++) {
			v = list[i]
			for (j = i - 1; j >= 1 && list[j] > v; j--) list[j + 1] = list[j]
			list[j + 1] = v
		}
		for (i = 1; i <= n; i++) {
			d = list[i]
			printf "%-28s %8d %8d %+8d\n", d, b[d], w[d], w[d] - b[d]
		}
		printf "%-28s %8d %8d %+8d\n", "total (module)", tb, tw, tw - tb
	}
' "$tmp/base" "$tmp/tree"
