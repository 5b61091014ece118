# Developer entry points. `just` is optional — every recipe is one
# cargo command, and `.cargo/config.toml` provides the same commands as
# `cargo repro-check` / `cargo bench-smoke` when `just` is absent.

# Run the CI gate and the engine criterion smoke.
bench: repro-check bench-smoke

# Recompute the experiment matrix and gate the headline numbers.
repro-check:
    cargo run --release -p vcfr-bench --bin repro -- check

# Criterion smoke of the cycle engine: the per-instruction hot loop plus
# superblock formation and fast-path replay (docs/superblocks.md).
bench-smoke:
    cargo bench -p vcfr-bench --bench components -- engine

# Simulator suite: every vcfr-sim test, including the engine-kind
# differential suite, checkpoint round trips and the superblock
# equivalence grid (fast path on vs off, byte-identical results; see
# docs/superblocks.md).
sim-smoke:
    cargo test --release -p vcfr-sim

# Determinism harness plus the goldens: 42 RunSpec cells (engines x
# modes x rerand x faults), each re-run on two workers, with
# superblocks off, with the telemetry tap, in the daemon's checkpointed
# chunks, through a mid-run restore and through an in-process daemon,
# every canonical manifest byte-identical; then the golden digests of
# every randomized layout, engine run and mid-run checkpoint (see
# docs/architecture.md, "Determinism invariants"). The one command that
# proves no byte moved.
determinism:
    cargo test --release --test determinism --test engine_golden

# Service smoke: start the batch daemon, submit two jobs, SIGKILL it
# mid-run, restart, and byte-compare the resumed manifests against an
# uninterrupted run (see docs/service.md).
serve-smoke:
    cargo test --release -p vcfr-cli --test serve_smoke

# Fleet smoke: coordinator + two worker daemons run a sharded matrix
# and fault campaign, one worker is SIGKILLed mid-campaign, its chunks
# resume from checkpoints elsewhere, and the merged manifest tree is
# byte-identical to a single-daemon run (see docs/fleet.md).
fleet-smoke:
    cargo test --release -p vcfr-cli --test fleet_smoke

# Doc CI: every relative markdown link in README.md, EXPERIMENTS.md,
# ROADMAP.md, DESIGN.md, CHANGELOG.md and docs/*.md must resolve.
docs-check:
    cargo test -p vcfr --test docs_check

# Every end-to-end smoke in one go.
smoke: determinism serve-smoke fleet-smoke sim-smoke docs-check

# Full test suite across the workspace.
test:
    cargo test --workspace
