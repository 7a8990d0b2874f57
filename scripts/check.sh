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
# The engine-equality integration tests in the same profile: both
# simulators' set-up and epoch paths must stay bit-identical to their
# scratch specifications in the build perfbench times. The engine pins
# fold both simulators' det projections — the sticky mobility policy
# included, which perfbench never runs — against recorded constants.
cargo test --release -q -p dmra --test incremental --test mobility_incremental --test engine_pins
# The solver equalities in the same profile: dense against reference at
# paper scale, the random-scenario proptest and protocol equivalence.
# The match loop perfbench times is the branch-free keyed one, so its
# equality with the reference must hold in the build that runs it. The
# conformance pins of every allocator's decisions run here too: the
# `figures` binary runs DCSP and NonCo through the shared
# deferred-acceptance loop in this profile, where its `Cru`/`RrbCount`
# subtraction wraps instead of panicking.
cargo test --release -q -p dmra --test parallelism --test decomposition --test equivalence --test conformance

# Flight-recorder + /metrics smoke: run the dynamic simulator with a JSONL
# flight record and a live metrics endpoint, scrape the endpoint mid-run
# over bash's /dev/tcp (no curl in the gate), then validate the record's
# schema. The long horizon keeps the run alive for a few seconds so the
# scrape genuinely happens while epochs are still being recorded.
cargo build -q -p dmra-cli
record="$(mktemp /tmp/dmra-smoke-XXXXXX.jsonl)"
stderr_log="$(mktemp /tmp/dmra-smoke-XXXXXX.log)"
proto_record="$(mktemp /tmp/dmra-smoke-proto-XXXXXX.jsonl)"
figures_dir="$(mktemp -d /tmp/dmra-figures-XXXXXX)"
trap 'rm -f "$record" "$stderr_log" "$proto_record"; rm -rf "$figures_dir"' EXIT
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

# Figures smoke: an experiment job writes its CSV, an unknown job fails
# instead of being skipped, and an unknown flag (a mistyped `--quick`)
# fails instead of falling back to the paper-scale settings.
cargo build -q --release -p dmra-bench
figures="$PWD/target/release/figures"
(cd "$figures_dir" && "$figures" --quick --quiet proto_degradation)
[[ -s "$figures_dir/results/proto_degradation.csv" ]] || { echo "figures proto_degradation wrote no CSV" >&2; exit 1; }
if (cd "$figures_dir" && "$figures" --quiet no_such_job 2>/dev/null); then
    echo "figures accepted an unknown job" >&2; exit 1
fi
typo_dir="$figures_dir/typo"
mkdir "$typo_dir"
if (cd "$typo_dir" && "$figures" --quik proto_degradation 2>/dev/null); then
    echo "figures accepted the unknown flag --quik" >&2; exit 1
fi
[[ ! -e "$typo_dir/results/proto_degradation.csv" ]] || { echo "figures --quik wrote a CSV" >&2; exit 1; }
echo "figures smoke OK (proto_degradation CSV written, unknown job and flag rejected)"

# Repository benchmark: `perfbench/` is a workspace of its own, so the
# workspace build and tests above never compile it. Build and unit-test
# it here, then run every workload for one second and require the
# correctness gate to pass: outcomes must match the golden table and no
# epoch may fail its checks. `--locked` fails the gate when a dependency
# change would rewrite perfbench/Cargo.lock instead of editing it.
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
# `--trace 1` adds the layer replay, which rebuilds every epoch through
# `DeploymentContext::epoch_instance` and counts a row that differs from
# the engine's as a failed epoch.
for workload in paper_arrivals paper_mobility metro_mobility; do
    for trace in 0 1; do
        line="$(cargo run -q --offline --locked --release --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace "$trace")"
        grep -q '"golden": "match"' <<<"$line" || { echo "perfbench $workload --trace $trace: golden mismatch: $line" >&2; exit 1; }
        grep -q '"failed": 0[,}]' <<<"$line" || { echo "perfbench $workload --trace $trace: failed epochs: $line" >&2; exit 1; }
    done
done
echo "perfbench smoke OK (3 workloads × --trace 0/1, golden match, 0 failed)"
