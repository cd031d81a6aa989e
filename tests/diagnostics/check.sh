#!/bin/sh
# Compiles every case in this directory and compares the frontend's
# stderr and exit status with the case's .expected file, byte for byte.
# Case NAME is NAME.mcc, or the buffers NAME.*.mcc compiled together in
# name order. A .expected file is the case's stderr followed by the line
# "exit <status>".
#
# Usage: check.sh <deadmember> <case-dir> <scratch-dir>
set -u
DMM=$1
DIR=$2
OUT=$3
status=0
cd "$DIR" || exit 1
for expected in *.expected; do
  name=${expected%.expected}
  if [ -f "$name.mcc" ]; then files=$name.mcc; else files=$(ls "$name".*.mcc); fi
  # shellcheck disable=SC2086 # one argument per buffer
  "$DMM" $files > /dev/null 2> "$OUT/diag_$name.err"
  echo "exit $?" >> "$OUT/diag_$name.err"
  if ! cmp -s "$expected" "$OUT/diag_$name.err"; then
    echo "FAIL $name:"
    diff "$expected" "$OUT/diag_$name.err"
    status=1
  fi
done
exit $status
