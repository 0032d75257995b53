#!/bin/sh
# Workspace gate: formatting, release build, project lints, tests.
# Run from the repository root. Any failing step aborts the run.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --release"
cargo build --workspace --release

echo "== lbq-check (json, diffed against committed baseline)"
# Exit codes: 0 clean, 1 fresh findings beyond the baseline, 2 the
# analyzer itself failed (parse/IO/CLI error) — distinguish them so a
# broken analyzer is never mistaken for a lint regression.
rc=0
cargo run --release -q -p lbq-check -- --format json --baseline lbq-check.baseline.json || rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ci: lbq-check itself failed (parse/IO error) — fix the analyzer or the source it chokes on" >&2
    exit 2
elif [ "$rc" -ne 0 ]; then
    echo "ci: lbq-check found violations beyond lbq-check.baseline.json (listed above)" >&2
    exit 1
fi

echo "== miri (optional: runs when the component is installed)"
if rustup component list --installed 2>/dev/null | grep -q "^miri"; then
    cargo miri test -p lbq-geom -q
else
    echo "ci: miri not installed; skipping (rustup component add miri)"
fi

echo "== thread sanitizer (optional: needs nightly + rust-src)"
if rustc --version | grep -q nightly \
    && rustup component list --installed 2>/dev/null | grep -q "^rust-src"; then
    RUSTFLAGS="-Zsanitizer=thread" cargo test -Zbuild-std -q -p lbq-serve --test stress \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "ci: not a nightly toolchain with rust-src; skipping TSan stage"
fi

echo "== cargo test"
# --no-fail-fast: when the known-intermittent lbq-obs recorder test
# fires, every crate after it still runs and reports.
cargo test --workspace -q --no-fail-fast

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== release-build tests (serve stress, cold-path zero-allocation)"
cargo test --release -q -p lbq-serve --test stress
# Debug builds clone each region into an invariant trap, so only the
# release run asserts retrieve_influence_set_in allocation-free.
cargo test --release -q -p lbq-core --test zero_alloc

echo "== examples (text tracing + profile tables)"
for ex in quickstart moving_client city_window geofence_region; do
    out="$(LBQ_TRACE=text cargo run --release -q -p lbq-core --example "$ex" 2>/dev/null)"
    echo "$out" | grep -q "== lbq-obs profile ==" || {
        echo "ci: example $ex did not print a profile table" >&2
        exit 1
    }
done
out="$(cargo run --release -q -p lbq-serve --example moving_fleet 2>/dev/null)"
echo "$out" | grep -q "== lbq-obs profile ==" || {
    echo "ci: example moving_fleet did not print a profile table" >&2
    exit 1
}

echo "== lbq-benchmark --quick (standalone package: API drift + answer check)"
# benchmark/ is a package of its own with path dependencies on crates/*;
# the workspace build above never compiles it. Build and smoke it here
# so a lbq-net/lbq-serve API change that breaks it (say, dropping a
# NetConfig field report.rs prints) fails ci.sh rather than the driver.
# Exits non-zero on a failed request or a wrong answer.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick >/dev/null

echo "== loopback_fleet (byte-identical network serving + hotspot tiers)"
out="$(cargo run --release -q -p lbq-net --example loopback_fleet 2>/dev/null)"
echo "$out" | grep -q "byte-identical" || {
    echo "ci: loopback_fleet did not report byte-identical responses" >&2
    exit 1
}
echo "$out" | grep -q "hot-voronoi" || {
    echo "ci: loopback_fleet hotspot phase did not report the hot-voronoi tier" >&2
    exit 1
}
echo "$out" | grep -q "== lbq-obs profile ==" || {
    echo "ci: loopback_fleet did not print a profile table" >&2
    exit 1
}

echo "== serve hot-tier equivalence tests"
cargo test --release -q -p lbq-serve --test hot

echo "== moving_fleet under the snapshot exporter"
snap="$(mktemp -u).jsonl"
LBQ_OBS_SNAPSHOT="$snap,200ms" cargo run --release -q -p lbq-serve --example moving_fleet >/dev/null 2>&1
grep -q '"type":"snapshot"' "$snap" && grep -q '"type":"snapshot-end"' "$snap" || {
    echo "ci: moving_fleet exported no complete snapshot block to $snap" >&2
    exit 1
}
grep -q '"type":"heatmap"' "$snap" || {
    echo "ci: moving_fleet snapshots carry no heatmap line" >&2
    exit 1
}
rm -f "$snap"

echo "== moving_client jsonl trace"
trace="$(mktemp)"
LBQ_TRACE=jsonl cargo run --release -q -p lbq-core --example moving_client 2>"$trace" >/dev/null
for name in rtree-tpnn nn-influence-set tpnn-iteration client-cache-hit client-cache-miss; do
    grep -q "\"name\":\"$name\"" "$trace" || {
        echo "ci: jsonl trace is missing \"$name\" records" >&2
        rm -f "$trace"
        exit 1
    }
done
rm -f "$trace"

echo "ci: ok"
