#!/usr/bin/env bash
# Tier-1 verification gate. Everything here runs fully offline: the
# workspace has zero external dependencies. Wall-clock measurement lives
# in the servebench package (servebench/README.md), which this script
# builds and self-tests so an API change cannot silently break it.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (debug test run only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all --check

run cargo clippy --workspace --all-targets --offline -- -D warnings

run cargo test --workspace --offline -q

# Fault-injection smoke: every saboteur mode is caught, rolled back, and
# value-preserving — on generated programs and on the whole nofib suite.
run cargo test -p fj-testkit -p fj-nofib saboteur --offline -q

# Chaos smoke: the seeded client saboteur (slow-loris, torn frames,
# garbage, oversize, floods) against a live server — honest clients must
# get correct answers and the service counters must reconcile exactly.
run cargo test -p fj-server --test chaos --offline -q

# Fuzz-farm smoke: a fixed-seed, time-budgeted pass over the full route
# matrix (strict/resilient/cached/machine/VM) must agree on every case.
# The binary exists because the test run above built it.
run ./target/debug/fj fuzz --seed 1 --count 300 --time-budget-ms 10000

# Fuzz self-test: a sabotaged strict pipeline must make the farm FAIL
# and leave a shrunk on-disk repro naming the failing route pair.
FUZZ_SAB_DIR="$(mktemp -d)"
echo '==> ./target/debug/fj fuzz --seed 1 --count 64 --sabotage swap-case-alts:0   (must fail)'
if ./target/debug/fj fuzz --seed 1 --count 64 --sabotage swap-case-alts:0 \
     --corpus "$FUZZ_SAB_DIR" >/dev/null 2>&1; then
  echo "verify: sabotaged fuzz run unexpectedly passed" >&2
  exit 1
fi
ls "$FUZZ_SAB_DIR"/*.fj >/dev/null 2>&1 || {
  echo "verify: sabotaged fuzz run wrote no repro" >&2
  exit 1
}
grep -q '^-- routes: ' "$FUZZ_SAB_DIR"/*.fj || {
  echo "verify: fuzz repro names no route pair" >&2
  exit 1
}
rm -rf "$FUZZ_SAB_DIR"

if [[ "$QUICK" -eq 0 ]]; then
  # A debug-assertions pass over the VM in release mode: the optimized
  # build keeps its internal invariant checks honest.
  echo '==> RUSTFLAGS="-C debug-assertions=on" cargo test -p fj-vm --release --offline -q'
  env RUSTFLAGS="-C debug-assertions=on" cargo test -p fj-vm --release --offline -q
  # Fusion-disabled oracle pass: with superinstructions off, the plain
  # instruction stream must still match the substitution machine on
  # every program, every value, and every counter.
  echo '==> FJ_VM_FUSE=0 cargo test -p fj-vm --test differential --offline -q'
  env FJ_VM_FUSE=0 cargo test -p fj-vm --test differential --offline -q
  echo '==> FJ_VM_FUSE=0 cargo test -p fj-nofib --test vm_differential --offline -q'
  env FJ_VM_FUSE=0 cargo test -p fj-nofib --test vm_differential --offline -q
  run cargo build --workspace --release --offline
  # The benchmark is a workspace of its own that compiles against the
  # fj-core and fj-server APIs; its self-test checks every oracle and
  # the stats reconciliation on a short run of each workload.
  run cargo run --release --offline --manifest-path servebench/Cargo.toml -- --self-test
  # The headline acceptance check: the report must render, and the
  # join-points pipeline must win on the contification-sensitive rows
  # (asserted in detail by the fj-nofib test suite; this is the smoke
  # pass over the real binary). Building the report runs every nofib
  # program on both the substitution machine and the bytecode VM and
  # asserts they agree on the value and the allocation counters.
  run ./target/release/fj report >/dev/null

  # Serve smoke: start the compile service on an ephemeral port, compile
  # the same program twice over raw TCP, and require the second response
  # to be flagged as a cache hit before a clean shutdown.
  SERVE_LOG="$(mktemp)"
  echo '==> ./target/release/fj serve --port 0   (smoke)'
  ./target/release/fj serve --port 0 > "$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    grep -q 'listening on' "$SERVE_LOG" 2>/dev/null && break
    sleep 0.1
  done
  SERVE_ADDR="$(sed -n 's/^fj serve: listening on //p' "$SERVE_LOG" | head -1)"
  [[ -n "$SERVE_ADDR" ]] || { echo "verify: fj serve never bound" >&2; exit 1; }
  SERVE_HOST="${SERVE_ADDR%:*}"
  SERVE_PORT="${SERVE_ADDR##*:}"
  REQ='{"op": "compile", "program": "def main : Int = 21 * 2;"}'
  exec 3<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
  printf '%s\n' "$REQ" >&3; read -r FIRST <&3
  printf '%s\n' "$REQ" >&3; read -r SECOND <&3
  # Hostile-input smoke on the same connection: a garbage frame must map
  # to an in-protocol `proto` error, and the connection must keep serving.
  printf '%s\n' '}}not json at all{{' >&3; read -r GARBAGE <&3
  printf '%s\n' "$REQ" >&3; read -r AFTER <&3
  # Large-frame smoke: a ~264 KiB compile request (below the 1 MiB frame
  # limit) whose program hides a long comment full of escapes and
  # multi-byte text. It must compile to the same term as the bare
  # program, which then comes back as a cache hit with its fingerprint.
  BIG_PAD="$(head -c 270000 /dev/zero | tr '\0' 'x')"
  BIG_REQ="{\"op\": \"compile\", \"program\": \"-- é \\\"${BIG_PAD}\\\\\\ndef main : Int = 6 * 7;\"}"
  SMALL_REQ='{"op": "compile", "program": "def main : Int = 6 * 7;"}'
  (( ${#BIG_REQ} >= 262144 && ${#BIG_REQ} < 1048576 )) || { echo "verify: large frame is ${#BIG_REQ} bytes" >&2; exit 1; }
  printf '%s\n' "$BIG_REQ" >&3; read -r BIG <&3
  printf '%s\n' "$SMALL_REQ" >&3; read -r SMALL <&3
  # Two connections at once: requests interleaved across them must each
  # be answered on their own connection, in the order sent there.
  exec 4<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
  RUN='{"op": "run", "program": "def main : Int = %d + %d;"}\n'
  printf "$RUN" 1 1 >&3; printf "$RUN" 2 2 >&4; printf "$RUN" 3 3 >&3; printf "$RUN" 4 4 >&4
  read -r TWO_2 <&4; read -r TWO_1 <&3; read -r TWO_4 <&4; read -r TWO_3 <&3
  exec 4>&-
  printf '%s\n' '{"op": "stats"}' >&3; read -r STATS <&3
  printf '%s\n' '{"op": "shutdown"}' >&3; read -r BYE <&3
  exec 3>&-
  echo "$FIRST"  | grep -q '"cache": "miss"' || { echo "verify: first serve compile was not a miss: $FIRST" >&2; exit 1; }
  echo "$SECOND" | grep -q '"cache": "hit"'  || { echo "verify: second serve compile was not a hit: $SECOND" >&2; exit 1; }
  echo "$GARBAGE" | grep -q '"tag": "proto"' || { echo "verify: garbage frame was not a proto error: $GARBAGE" >&2; exit 1; }
  echo "$AFTER"  | grep -q '"cache": "hit"'  || { echo "verify: connection dead after garbage frame: $AFTER" >&2; exit 1; }
  echo "$BIG"    | grep -q '"ok": true, "cache": "miss"' || { echo "verify: large frame did not compile: ${BIG:0:300}" >&2; exit 1; }
  echo "$BIG"    | grep -q '"size_after": 1,' || { echo "verify: large frame compiled to the wrong term: $BIG" >&2; exit 1; }
  BIG_FP="$(echo "$BIG" | sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p')"
  [[ -n "$BIG_FP" ]] && echo "$SMALL" | grep -q "\"cache\": \"hit\", \"fingerprint\": \"$BIG_FP\"" || { echo "verify: large frame and bare program disagree: $BIG / $SMALL" >&2; exit 1; }
  for N in 1 2 3 4; do
    TWO="TWO_$N"
    echo "${!TWO}" | grep -q "\"value\": \"$(( 2 * N ))\"" || { echo "verify: request $N of the two-connection smoke got: ${!TWO}" >&2; exit 1; }
  done
  echo "$STATS"  | grep -q '"service"'       || { echo "verify: stats lacks the service block: $STATS" >&2; exit 1; }
  stat_field() { echo "$STATS" | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p"; }
  # The `stats` request is itself received but not yet answered.
  (( $(stat_field received) == $(stat_field completed) + $(stat_field failed) + $(stat_field shed) + 1 )) \
    || { echo "verify: served counters do not reconcile: $STATS" >&2; exit 1; }
  echo "$BYE"    | grep -q '"shutting_down": true' || { echo "verify: serve shutdown failed: $BYE" >&2; exit 1; }
  wait "$SERVE_PID"
  trap - EXIT
  rm -f "$SERVE_LOG"

  # Warm-restart smoke: with --cache-dir, a compile served by one server
  # process must come back as a disk-backed cache hit after a full
  # restart over the same directory — the persistent tier survives the
  # process, and the stats block must admit where the hit came from.
  RESTART_DIR="$(mktemp -d)"
  RESTART_REQ='{"op": "compile", "program": "def main : Int = 21 * 2;"}'
  for ROUND in cold warm; do
    SERVE_LOG="$(mktemp)"
    echo "==> ./target/release/fj serve --port 0 --cache-dir $RESTART_DIR   ($ROUND restart smoke)"
    ./target/release/fj serve --port 0 --cache-dir "$RESTART_DIR" > "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
    for _ in $(seq 50); do
      grep -q 'listening on' "$SERVE_LOG" 2>/dev/null && break
      sleep 0.1
    done
    SERVE_ADDR="$(sed -n 's/^fj serve: listening on //p' "$SERVE_LOG" | head -1)"
    [[ -n "$SERVE_ADDR" ]] || { echo "verify: fj serve --cache-dir never bound ($ROUND)" >&2; exit 1; }
    exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
    printf '%s\n' "$RESTART_REQ" >&3; read -r REPLY <&3
    printf '%s\n' '{"op": "stats"}' >&3; read -r STATS <&3
    printf '%s\n' '{"op": "shutdown"}' >&3; read -r BYE <&3
    exec 3>&-
    if [[ "$ROUND" == cold ]]; then
      echo "$REPLY" | grep -q '"cache": "miss"' || { echo "verify: cold restart-smoke compile was not a miss: $REPLY" >&2; exit 1; }
    else
      echo "$REPLY" | grep -q '"cache": "hit"' || { echo "verify: restarted server did not hit the disk tier: $REPLY" >&2; exit 1; }
      echo "$STATS" | grep -q '"enabled": true, "hits": 1' || { echo "verify: restart stats shows no disk hit: $STATS" >&2; exit 1; }
    fi
    echo "$STATS" | grep -q '"disk"' || { echo "verify: stats lacks the disk block: $STATS" >&2; exit 1; }
    echo "$BYE" | grep -q '"shutting_down": true' || { echo "verify: restart-smoke shutdown failed ($ROUND): $BYE" >&2; exit 1; }
    wait "$SERVE_PID"
    trap - EXIT
    rm -f "$SERVE_LOG"
  done
  ls "$RESTART_DIR"/*.fjc >/dev/null 2>&1 || {
    echo "verify: --cache-dir wrote no persistent entries" >&2
    exit 1
  }
  rm -rf "$RESTART_DIR"
fi

echo "verify: all checks passed"
