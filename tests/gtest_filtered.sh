#!/usr/bin/env bash
# Run a gtest binary under a --gtest_filter, failing first if any of the
# filter's ':'-separated patterns selects no test. gtest itself passes a
# filter that matches nothing, so a renamed or moved case would otherwise
# drop out of a filtered run silently.
#
#   tests/gtest_filtered.sh BINARY FILTER [GTEST_ARGS...]
#
# e.g. tests/gtest_filtered.sh build/tests/notify_test '*Failover*:*Killed*' \
#        --gtest_repeat=3
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [GTEST_ARGS...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

IFS=':' read -ra patterns <<< "$filter"
for pattern in "${patterns[@]}"; do
  # --gtest_list_tests prints "Suite." lines and indented test names.
  listed=$("$bin" --gtest_list_tests --gtest_filter="$pattern")
  if ! grep -q '^  ' <<< "$listed"; then
    echo "$bin: filter pattern '$pattern' selects no test" >&2
    exit 1
  fi
done
exec "$bin" --gtest_filter="$filter" "$@"
