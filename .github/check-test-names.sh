#!/usr/bin/env bash
# Fails when a test-name pattern in a workflow matches no test.
#
#   bash .github/check-test-names.sh [.github/workflows/ci.yml]
#
# For every `go test` line of the workflow, each |-separated alternative
# of its -run and -fuzz patterns must match a name (test, benchmark,
# fuzz target or example) that `go test -list` finds in the packages the
# line names. A package path holding a loop variable of its step
# (`for p in a b; do ... ./internal/$p`) is checked once per value.
# `-run '^$'` selects nothing on purpose and is skipped.
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
declare -A listed # package pattern -> the names go test -list prints
failed=0

# list PKG fills listed[PKG] once.
list() {
	[[ -n ${listed[$1]+set} ]] && return
	local out
	out=$(go test -list . "$1" </dev/null) || {
		echo "go test -list failed in $1"
		exit 1
	}
	listed[$1]=$(grep -vE '^(ok|\?|FAIL)[[:space:]]' <<<"$out" || true)
}

# check STEP LINE PKG... checks the patterns of LINE against PKG...
check() {
	local step=$1 line=$2 flag alt pkg found alts
	shift 2
	while read -r flag; do
		flag=${flag#-run}
		flag=${flag#-fuzz}
		flag=${flag#[ =]}
		flag=${flag//\'/}
		[[ $flag == '^$' ]] && continue
		IFS='|' read -ra alts <<<"$flag"
		for alt in "${alts[@]}"; do
			found=
			for pkg in "$@"; do
				list "$pkg"
				if grep -qE -- "${alt%%/*}" <<<"${listed[$pkg]}"; then
					found=1
					break
				fi
			done
			if [[ -z $found ]]; then
				echo "step \"$step\": '$alt' matches no test in $*"
				failed=1
			fi
		done
	done < <(grep -oE -- "-(run|fuzz)([ =]'[^']*'|=[^ ]+)" <<<"$line" || true)
}

# step STEP BODY checks every go test line of one step.
step() {
	local name=$1 body=$2 line var vals v pkgs
	local -A loops=()
	while read -r var vals; do
		loops[$var]=$vals
	done < <(grep -oE 'for [A-Za-z_]+ in [^;]*;' <<<"$body" | sed -E 's/for ([A-Za-z_]+) in ([^;]*);/\1 \2/' || true)
	while IFS= read -r line; do
		[[ $line == *"go test"* ]] && [[ $line == *-run* || $line == *-fuzz* ]] || continue
		mapfile -t pkgs < <(grep -oE '\./[^ ;"]*' <<<"$line")
		var=$(grep -oE '\$[A-Za-z_]+' <<<"${pkgs[*]}" | head -n1 || true)
		var=${var#\$}
		if [[ -n $var && -n ${loops[$var]+set} ]]; then
			for v in ${loops[$var]}; do
				check "$name" "$line" "${pkgs[@]//\$$var/$v}"
			done
		else
			check "$name" "$line" "${pkgs[@]}"
		fi
	done <<<"$body"
}

name= body=
while IFS= read -r line; do
	if [[ $line =~ ^[[:space:]]*-\ name:\ (.*)$ ]]; then
		[[ -n $name ]] && step "$name" "$body"
		name=${BASH_REMATCH[1]} body=
	else
		body+=$line$'\n'
	fi
done <"$wf"
[[ -n $name ]] && step "$name" "$body"
exit $failed
