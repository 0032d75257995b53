#!/bin/sh
# Workspace gate: formatting, release build, clippy, project lints, tests.
# Run from the repository root. Any failing step aborts the run.
#
#   ./ci.sh             the full gate
#   ./ci.sh --soak N    only the workspace tests, N times in a row;
#                       stops at the first red run
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "--soak" ]; then
    runs="${2:?usage: ci.sh --soak N}"
    i=1
    while [ "$i" -le "$runs" ]; do
        echo "== soak run $i/$runs: cargo test"
        cargo test --workspace -q --no-fail-fast || {
            echo "ci: soak run $i/$runs failed" >&2
            exit 1
        }
        i=$((i + 1))
    done
    echo "ci: soak ok ($runs runs)"
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo clippy (warnings are errors)"
# Runs before the tests so a lint error fails fast. Tests are linted
# too; clippy.toml lets them unwrap, expect and panic.
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== lbq-check"
cargo run --release -q -p lbq-check

# Optional stages that could not run are named in the last line, so a
# green run never hides a check that did not happen.
skipped=""

echo "== miri (optional: runs when the component is installed)"
if rustup component list --installed 2>/dev/null | grep -q "^miri"; then
    cargo miri test -p lbq-geom -q
else
    echo "ci: miri not installed; skipping (rustup component add miri)"
    skipped="${skipped:+$skipped, }miri"
fi

echo "== thread sanitizer (optional: needs nightly + rust-src)"
if rustc --version | grep -q nightly \
    && rustup component list --installed 2>/dev/null | grep -q "^rust-src"; then
    RUSTFLAGS="-Zsanitizer=thread" cargo test -Zbuild-std -q -p lbq-serve --test stress \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "ci: not a nightly toolchain with rust-src; skipping TSan stage"
    skipped="${skipped:+$skipped, }tsan"
fi

echo "== cargo test"
# --no-fail-fast: a red crate does not hide the verdicts of the crates
# after it.
cargo test --workspace -q --no-fail-fast

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== release-build tests (serve stress, cold-path zero-allocation)"
cargo test --release -q -p lbq-serve --test stress
# Debug builds clone each region into an invariant trap, so only the
# release run asserts knn_region_in and retrieve_influence_set_in
# allocation-free.
cargo test --release -q -p lbq-core --test zero_alloc

echo "== experiments --all --quick (Section 6 figures pinned byte for byte)"
# Every figure's NA/PA, area and count at quick scale. The output is
# deterministic; a change that moves a figure regenerates
# experiments_quick.txt and says why in CHANGES.md. The binary's stderr
# (a panic message, say) is kept and shown when the diff fails.
err="$(mktemp)"
cargo run --release -q -p lbq-bench --bin experiments -- --all --quick 2>"$err" \
    | diff -u experiments_quick.txt - || {
    echo "ci: experiments --all --quick differs from experiments_quick.txt; its stderr:" >&2
    cat "$err" >&2
    rm -f "$err"
    exit 1
}

echo "== experiments --all (full-scale figures against experiments_full.txt, ~70 s)"
# The archive EXPERIMENTS.md quotes. Same rule as the quick stage: a
# change that moves a figure regenerates experiments_full.txt.
cargo run --release -q -p lbq-bench --bin experiments -- --all 2>"$err" \
    | diff -u experiments_full.txt - || {
    echo "ci: experiments --all differs from experiments_full.txt; its stderr:" >&2
    cat "$err" >&2
    rm -f "$err"
    exit 1
}
rm -f "$err"

echo "== examples (profile tables)"
for ex in quickstart moving_client city_window; do
    out="$(cargo run --release -q -p lbq-core --example "$ex" 2>/dev/null)"
    echo "$out" | grep -q "== lbq-obs profile ==" || {
        echo "ci: example $ex did not print a profile table" >&2
        exit 1
    }
    if [ "$ex" = moving_client ]; then
        # The kernel (rtree) and simulator (client) instrumentation
        # must reach the global-counter table.
        for name in rtree-node-accesses client-cache-hits; do
            echo "$out" | grep -q "^$name " || {
                echo "ci: moving_client's global counters lack a $name row" >&2
                exit 1
            }
        done
    fi
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

echo "== benchmark tests compile (API drift in benchmark/tests)"
# Compiles, does not run: the benchmark's tests call workspace API
# (EngineConfig::with_workers, say) that the stage above never builds.
# Running them waits on the debug-build overflow in loadgen.rs that
# turns contract.rs red (ROADMAP item 7a).
cargo test --no-run -q --manifest-path benchmark/Cargo.toml

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

if [ -n "$skipped" ]; then
    echo "ci: ok (skipped: $skipped)"
else
    echo "ci: ok"
fi
