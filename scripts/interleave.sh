#!/usr/bin/env bash
# Interleaved A/B runner for Go micro-benchmarks, used by `make obs-overhead`
# and `make bench-compare`:
#
#   scripts/interleave.sh ROUNDS BENCHTIME OUT A_BIN A_RE B_BIN B_RE
#
# Each round runs side A (test binary A_BIN, benchmarks matching A_RE) and
# side B once, one process each, alternating which side goes first so host
# drift lands on both. Every benchmark line is appended to OUT behind its
# side letter. The summary prints, per side and benchmark, the run count and
# the median, first and third quartile of ns/op; then, for each benchmark
# name on both sides, the B-vs-A median delta. Fails when a binary fails
# or times out, or when either side printed no benchmark line.
set -euo pipefail
if [ $# -ne 7 ]; then
	echo "usage: $0 ROUNDS BENCHTIME OUT A_BIN A_RE B_BIN B_RE" >&2
	exit 2
fi
rounds=$1 benchtime=$2 out=$3
bins=("$4" "$6") res=("$5" "$7") sides=(A B)

run() {
	"${bins[$1]}" -test.run '^$' -test.bench "${res[$1]}" -test.benchtime "$benchtime" -test.timeout 10m |
		awk -v side="${sides[$1]}" '/^Benchmark/ { print side, $0 }' >>"$out"
}

: >"$out"
for ((round = 1; round <= rounds; round++)); do
	if ((round % 2)); then
		run 0
		run 1
	else
		run 1
		run 0
	fi
done

awk '
	# q returns the p-quantile of a[1..n] (sorted in place), interpolating
	# at rank (n+1)p as Python statistics.quantiles does.
	function q(a, n, p,    i, j, v, r, k) {
		for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j > 0 && a[j] > v; j--) a[j+1] = a[j]; a[j+1] = v }
		r = (n + 1) * p
		if (r < 1) r = 1
		if (r > n) r = n
		k = int(r)
		return k < n ? a[k] + (r - k) * (a[k+1] - a[k]) : a[n]
	}
	{ key = $1 " " $2; if (!(key in n)) order[++keys] = key; n[key]++; v[key, n[key]] = $4; sides[$1]++ }
	END {
		if (!sides["A"] || !sides["B"]) { print "interleave: no benchmark output from side " (sides["A"] ? "B" : "A") > "/dev/stderr"; exit 1 }
		printf "%-5s %-40s %5s %14s %14s %14s\n", "side", "benchmark", "runs", "median ns/op", "q1", "q3"
		for (i = 1; i <= keys; i++) {
			key = order[i]; split(key, f, " ")
			for (j = 1; j <= n[key]; j++) s[j] = v[key, j]
			med[key] = q(s, n[key], 0.5)
			printf "%-5s %-40s %5d %14.0f %14.0f %14.0f\n", f[1], f[2], n[key], med[key], q(s, n[key], 0.25), q(s, n[key], 0.75)
		}
		for (i = 1; i <= keys; i++) {
			split(order[i], f, " ")
			if (f[1] == "A" && ("B " f[2]) in med)
				printf "delta %-40s %+.2f%% (B vs A median)\n", f[2], (med["B " f[2]] - med[order[i]]) * 100 / med[order[i]]
		}
	}' "$out"
