#!/bin/sh
# Alternating parent/change pairs of one perfbench workload. Pair i runs
# both binaries with `--seed <first-seed + i> --trace 0` (first seed 0
# unless given), the parent first on even i and the change first on odd i, and prints each run's end-to-end metrics
# beside `attempted`, `failed` and `correct`. Then, per metric: each
# side's quartiles (q1 median q3, linear interpolation), change / parent
# of the medians, on how many pairs the change was better (higher for
# `*_rps`, lower for everything else; ties count for neither), and
# whether a gain claim holds: the change wins at least 9 of every 10
# pairs and its median is better than the parent's by more than the
# parent's interquartile range (`claim`, else `-`).
#
#   scripts/paired_bench.sh <parent-bench> <change-bench> <workload> <pairs> <seconds> [first-seed]
#
# Build `bench` in each tree first (`cargo build --release --offline
# --manifest-path perfbench/Cargo.toml`) and copy
# `perfbench/target/release/bench` aside: the binary needs nothing from
# its tree at run time. Run nothing else meanwhile.
set -eu
[ $# -eq 5 ] || [ $# -eq 6 ] || {
    echo "usage: $0 <parent-bench> <change-bench> <workload> <pairs> <seconds> [first-seed]" >&2
    exit 2
}
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5 first=${6:-0}
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: its result line (the last on stdout) as `pair side key value`
# rows, appended to $runs and echoed as one line.
run() {
    bin=$parent
    [ "$1" = change ] && bin=$change
    "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1 |
        awk -v side="$1" -v pair="$2" '{
            gsub(/[{}",:]/, " ")
            for (i = 1; i <= NF; i++) {
                if ($i == "correct" || $i == "attempted" || $i == "failed")
                    print pair, side, $i, $(i + 1)
                else if ($i == "value")
                    print pair, side, $(i - 1), $(i + 1)
            }
        }' | tee -a "$runs" | awk -v side="$1" -v pair="$2" '
            { line = line " " $3 " " $4 }
            END { printf "pair %s %-6s%s\n", pair, side, line }'
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    i=$((i + 1))
done

echo
echo "metric parent_q1 parent_median parent_q3 change_q1 change_median change_q3 change/parent change_better claim"
awk '$3 != "correct" && $3 != "attempted" && $3 != "failed"' "$runs" |
    sort -k3,3 -k2,2 -k4,4g |
    awk '
        function quantile(side, key, p,    n, h, lo) {
            n = count[side, key]
            h = (n - 1) * p + 1
            lo = int(h)
            if (lo >= n) return vals[side, key, n]
            return vals[side, key, lo] + (h - lo) * (vals[side, key, lo + 1] - vals[side, key, lo])
        }
        {
            vals[$2, $3, ++count[$2, $3]] = $4
            at[$1, $2, $3] = $4
            if (!($3 in seen)) { seen[$3] = 1; keys[++nkeys] = $3 }
            pairs[$1] = 1
        }
        END {
            for (k = 1; k <= nkeys; k++) {
                key = keys[k]
                higher = key ~ /_rps$/
                wins = 0
                total = 0
                for (p in pairs) {
                    if (!(((p, "parent", key) in at) && ((p, "change", key) in at))) continue
                    total++
                    a = at[p, "parent", key]
                    b = at[p, "change", key]
                    if (higher ? b > a : b < a) wins++
                }
                p1 = quantile("parent", key, 0.25)
                pm = quantile("parent", key, 0.5)
                p3 = quantile("parent", key, 0.75)
                c1 = quantile("change", key, 0.25)
                cm = quantile("change", key, 0.5)
                c3 = quantile("change", key, 0.75)
                gain = higher ? cm - pm : pm - cm
                claim = (total > 0 && 10 * wins >= 9 * total && gain > p3 - p1) ? "claim" : "-"
                printf "%s %.4g %.4g %.4g %.4g %.4g %.4g %.3f %d/%d %s\n", key, p1, pm, p3, c1, cm, c3, (pm == 0 ? 0 : cm / pm), wins, total, claim
            }
        }'
