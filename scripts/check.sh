#!/usr/bin/env bash
# Full local gate: formatting, lints and rustdoc warnings as errors, and
# the whole-workspace test suite. CI and pre-commit should both run
# exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy -q --workspace --all-targets -- -D warnings
# Rustdoc warnings as errors: an intra-doc link to a renamed or deleted
# item fails the gate instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
cargo test --workspace -q
# The solver and the engines again in the release profile, the one the
# benchmark runs: no overflow checks (integer arithmetic wraps) and no
# `debug_assert!`. The dense-vs-reference equalities and the over-commit
# error must hold there too.
cargo test --release -q -p dmra-core -p dmra-sim
# The telemetry compile-out configuration must keep building: every
# dmra-obs dependent forwards a `telemetry` feature, and this catches a
# crate growing an unconditional dependency on instrumented APIs.
cargo build -q --workspace --no-default-features

# Flight-recorder + /metrics smoke: run the dynamic simulator with a JSONL
# flight record and a live metrics endpoint, scrape the endpoint mid-run
# over bash's /dev/tcp (no curl in the gate), then validate the record's
# schema. The long horizon keeps the run alive for a few seconds so the
# scrape genuinely happens while epochs are still being recorded.
cargo build -q -p dmra-cli
record="$(mktemp /tmp/dmra-smoke-XXXXXX.jsonl)"
stderr_log="$(mktemp /tmp/dmra-smoke-XXXXXX.log)"
proto_record="$(mktemp /tmp/dmra-smoke-proto-XXXXXX.jsonl)"
trap 'rm -f "$record" "$stderr_log" "$proto_record"' EXIT
./target/debug/dmra dynamic --rate 120 --epochs 8000 \
    --record "$record" --metrics-addr 127.0.0.1:0 \
    >/dev/null 2>"$stderr_log" &
smoke_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|.*serving metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$stderr_log" | head -n1)"
    [[ -n "$addr" ]] && break
    kill -0 "$smoke_pid" 2>/dev/null || { echo "smoke run exited before binding the metrics server" >&2; cat "$stderr_log" >&2; exit 1; }
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "metrics server address never appeared on stderr" >&2; cat "$stderr_log" >&2; exit 1; }

scrape=""
for _ in $(seq 1 20); do
    scrape="$(exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}" \
        && printf 'GET /metrics HTTP/1.0\r\nHost: %s\r\n\r\n' "$addr" >&3 \
        && cat <&3; exec 3<&- 3>&-)" || scrape=""
    grep -q '^# TYPE ' <<<"$scrape" && break
    sleep 0.1
done
grep -q '^HTTP/1.0 200 OK' <<<"$scrape" || { echo "metrics scrape did not return 200" >&2; exit 1; }
grep -q '^# TYPE dmra_' <<<"$scrape" || { echo "metrics scrape carried no dmra_ series" >&2; exit 1; }
grep -Eq '^dmra_sim_epochs(_total)? [1-9]' <<<"$scrape" || { echo "mid-run scrape saw no epoch progress" >&2; exit 1; }

wait "$smoke_pid" || { echo "smoke run failed" >&2; cat "$stderr_log" >&2; exit 1; }
[[ -s "$record" ]] || { echo "flight record $record is empty" >&2; exit 1; }
bad=$(grep -cv '^{"schema": "dmra-flight/1", "stream": "sim.epoch", "index": [0-9]*, "det": {.*}, "aux": {.*}}$' "$record" || true)
[[ "$bad" -eq 0 ]] || { echo "$bad flight-record lines failed schema validation" >&2; head -n3 "$record" >&2; exit 1; }
[[ "$(wc -l <"$record")" -eq 8000 ]] || { echo "expected 8000 flight records, got $(wc -l <"$record")" >&2; exit 1; }
grep -q '"digest": ' "$record" || { echo "flight records carry no outcome digest" >&2; exit 1; }
echo "flight-recorder smoke OK ($(wc -l <"$record") records, scraped $addr mid-run)"

# Protocol-engine smoke: the message-passing engine under 10% loss still
# writes a schema-valid flight record — per-epoch `sim.epoch` lines (with
# the degradation aux fields) interleaved with the round engine's
# per-round `proto.round` lines, both through the process-global slot.
./target/debug/dmra dynamic --engine proto --drop 10 --rate 20 --epochs 40 \
    --record "$proto_record" >/dev/null
[[ -s "$proto_record" ]] || { echo "proto flight record $proto_record is empty" >&2; exit 1; }
bad=$(grep -cv '^{"schema": "dmra-flight/1", "stream": "\(sim\.epoch\|proto\.round\)", "index": [0-9]*, "det": {.*}, "aux": {.*}}$' "$proto_record" || true)
[[ "$bad" -eq 0 ]] || { echo "$bad proto flight-record lines failed schema validation" >&2; head -n3 "$proto_record" >&2; exit 1; }
[[ "$(grep -c '"stream": "sim.epoch"' "$proto_record")" -eq 40 ]] || { echo "expected 40 sim.epoch records in the proto run" >&2; exit 1; }
grep -q '"stream": "proto.round"' "$proto_record" || { echo "proto run recorded no proto.round stream" >&2; exit 1; }
grep -q '"proto_dropped":' "$proto_record" || { echo "proto epochs carry no degradation aux fields" >&2; exit 1; }
grep -q '"oracle_profit_gap":' "$proto_record" || { echo "proto epochs carry no oracle gap" >&2; exit 1; }
echo "proto-engine smoke OK ($(wc -l <"$proto_record") records)"

# Repository benchmark: `perfbench/` is a workspace of its own, so the
# workspace build and tests above never compile it. Build and unit-test
# it here, then run every workload for one second and require the
# correctness gate to pass: outcomes must match the golden table and no
# epoch may fail its checks.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in paper_arrivals paper_mobility metro_mobility; do
    line="$(cargo run -q --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1)"
    grep -q '"golden": "match"' <<<"$line" || { echo "perfbench $workload: golden mismatch: $line" >&2; exit 1; }
    grep -q '"failed": 0[,}]' <<<"$line" || { echo "perfbench $workload: failed epochs: $line" >&2; exit 1; }
done
echo "perfbench smoke OK (3 workloads, golden match, 0 failed)"
