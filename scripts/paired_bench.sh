#!/bin/sh
# Alternating parent/change pairs of one perfbench workload. Pair i runs
# both binaries with `--seed i --trace 0`, the parent first on even i and
# the change first on odd i, and prints each run's end-to-end metrics
# beside `attempted`, `failed` and `correct`. Then, per metric: the
# parent and change medians, change / parent, and on how many pairs the
# change was better (higher for `*_rps`, lower for everything else).
#
#   scripts/paired_bench.sh <parent-bench> <change-bench> <workload> <pairs> <seconds>
#
# Build `bench` in each tree first (`cargo build --release --offline
# --manifest-path perfbench/Cargo.toml`) and copy
# `perfbench/target/release/bench` aside: the binary needs nothing from
# its tree at run time. Run nothing else meanwhile.
set -eu
[ $# -eq 5 ] || {
    echo "usage: $0 <parent-bench> <change-bench> <workload> <pairs> <seconds>" >&2
    exit 2
}
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5
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
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    i=$((i + 1))
done

echo
echo "metric parent_median change_median change/parent change_better"
awk '$3 != "correct" && $3 != "attempted" && $3 != "failed"' "$runs" |
    sort -k3,3 -k2,2 -k4,4g |
    awk '
        function median(side, key,    n) {
            n = count[side, key]
            return (vals[side, key, int((n + 1) / 2)] + vals[side, key, int(n / 2) + 1]) / 2
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
                wins = 0
                total = 0
                for (p in pairs) {
                    if (!(((p, "parent", key) in at) && ((p, "change", key) in at))) continue
                    total++
                    a = at[p, "parent", key]
                    b = at[p, "change", key]
                    if (key ~ /_rps$/ ? b > a : b < a) wins++
                }
                pm = median("parent", key)
                cm = median("change", key)
                printf "%s %.4g %.4g %.3f %d/%d\n", key, pm, cm, (pm == 0 ? 0 : cm / pm), wins, total
            }
        }'
