#!/bin/sh
# Runs every adversarial probe under --run on both engines and checks
# that neither ends in a signal: the exit status is 0 or 1, a status of
# 1 comes with an "error:" diagnostic, and stdout and stderr are
# identical across engines once the engine= tag is dropped.
#
# Usage: check_engines.sh <deadmember> <probe-dir> <scratch-dir>
set -u
DMM=$1
DIR=$2
OUT=$3
status=0
for f in "$DIR"/*.mcc; do
  for e in tree vm; do
    "$DMM" --run --engine=$e "$f" > "$OUT/adv_$e.out" 2> "$OUT/adv_$e.err"
    s=$?
    echo $s > "$OUT/adv_$e.status"
    if [ $s -ne 0 ] && [ $s -ne 1 ]; then
      echo "FAIL $f ($e): exit status $s"
      status=1
    fi
    if [ $s -eq 1 ] && ! grep -q 'error:' "$OUT/adv_$e.err"; then
      echo "FAIL $f ($e): exit 1 without a diagnostic"
      status=1
    fi
    sed 's/ engine=[a-z]*$//' "$OUT/adv_$e.err" > "$OUT/adv_$e.err.cmp"
  done
  for k in out err.cmp status; do
    if ! cmp -s "$OUT/adv_tree.$k" "$OUT/adv_vm.$k"; then
      echo "FAIL $f: engines differ in $k"
      status=1
    fi
  done
  echo "$f: exit $(cat "$OUT/adv_vm.status")"
done
exit $status
