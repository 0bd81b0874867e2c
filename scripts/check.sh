#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/check.sh
#
# Runs entirely offline (vendored deps; see crates/vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --manifest-path perfbench/Cargo.toml (seed determinism)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke (submit-cancel-durable, 4 s: real-TCP recovery + oracle)"
result=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload submit-cancel-durable --seed 1 --seconds 4 --trace 0 | tail -n 1)
echo "$result"
if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
    echo "perfbench smoke: expected \"correct\": true and \"failed\": 0" >&2
    exit 1
fi

echo "==> perfbench smoke (status-warm, 4 s: the read path, auth-cache hits, rider spills)"
result=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload status-warm --seed 1 --seconds 4 --trace 0 | tail -n 1)
echo "$result"
if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
    echo "perfbench smoke: expected \"correct\": true and \"failed\": 0" >&2
    exit 1
fi

echo "==> harness t10 (callout resilience phase tables)"
cargo run -p gridauthz-bench --bin harness --release -- t10

echo "==> harness t11 (TCP front-end scaling, auth cache, allocations)"
cargo run -p gridauthz-bench --bin harness --release -- t11

echo "==> harness t12 (admission control: overload sweep, shed rate, p99)"
cargo run -p gridauthz-bench --bin harness --release -- t12

echo "==> harness t13 (protocol torture: seeded adversarial storms, small sweep)"
TORTURE_SEEDS=6 cargo run -p gridauthz-bench --bin harness --release -- t13

echo "==> harness t14 (crash-point matrix smoke, recovery scaling, journal overhead)"
CRASH_SEEDS=6 cargo run -p gridauthz-bench --bin harness --release -- t14

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "all checks passed"
