#!/bin/sh
# README's quickstart flow through kvmatch_cli at a small n: every command
# exits 0, each query finds its own window at distance 0, and a misspelled
# flag is refused with exit 2.
#
#   tests/cli_quickstart.sh path/to/kvmatch_cli
set -eu
cli="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"

"$cli" generate --out data.bin --n 20000
"$cli" build --data data.bin --index index.kvm
"$cli" info --index index.kvm
"$cli" query --data data.bin --index index.kvm \
  --qoffset 5000 --qlen 512 --type cnsm-ed --epsilon 3.0 --alpha 1.5 \
  --beta 2.0 | tee query.out
grep -q 'offset=5000 *dist=0.0000' query.out

"$cli" catalog-ingest --store catalog.kvm --data data.bin --name sensor1
"$cli" catalog-info --store catalog.kvm --json | tee info.json
grep -q '"name":"sensor1","points":20000' info.json
cat > queries.txt <<'QUERIES'
series=sensor1 type=rsm-ed  qoffset=1000 qlen=256 epsilon=2.0
series=sensor1 type=cnsm-ed qoffset=5000 qlen=200 epsilon=3.0 alpha=1.5 beta=3.0
series=sensor1 type=rsm-dtw qoffset=300  qlen=128 epsilon=2.5 rho=6
series=sensor1 type=cnsm-ed qoffset=2500 qlen=256 alpha=1.5 beta=3.0 k=5
QUERIES
"$cli" batch-query --store catalog.kvm --queries queries.txt --threads 4 \
  --limit 100 | tee batch.out
test "$(grep -c 'matches in' batch.out)" -eq 4
for offset in 1000 5000 300 2500; do
  grep -q "offset=$offset *dist=0.0000" batch.out
done

status=0
"$cli" query --data data.bin --index index.kvm --qlen 512 --epsilonn 3 \
  2> typo.err || status=$?
test "$status" -eq 2
grep -q 'unknown flag, or one missing its value: --epsilonn' typo.err
