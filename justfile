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

# Observability smoke: manifests byte-identical across thread counts,
# parse round trip, and audit identity (see docs/observability.md).
obs-smoke:
    cargo run --release -p vcfr-bench --bin repro -- obs-smoke

# Fault-injection smoke: seeded 1-app campaign, determinism across
# thread counts, audits, VCFR > baseline coverage
# (see docs/fault-injection.md).
faults-smoke:
    cargo run --release -p vcfr-bench --bin repro -- faults-smoke

# Service smoke: start the batch daemon, submit two jobs, SIGKILL it
# mid-run, restart, and byte-compare the resumed manifests against an
# uninterrupted run (see docs/service.md).
serve-smoke:
    cargo test --release -p vcfr-cli --test serve_smoke

# Telemetry smoke: manifests and checkpoints byte-identical with the
# progress-event tap on vs off, across worker-thread counts
# (see docs/observability.md).
telemetry-smoke:
    cargo run --release -p vcfr-bench --bin repro -- telemetry-smoke

# Multicore smoke: VCFR core + baseline sibling over the shared L2,
# rerand epochs firing mid-run on one core only, manifests
# byte-identical across worker-thread counts, outputs equal to solo
# baseline runs (see docs/architecture.md).
multicore-smoke:
    cargo run --release -p vcfr-bench --bin repro -- multicore-smoke

# Fleet smoke: coordinator + two worker daemons run a sharded matrix
# and fault campaign, one worker is SIGKILLed mid-campaign, its chunks
# resume from checkpoints elsewhere, and the merged manifest tree is
# byte-identical to a single-daemon run (see docs/fleet.md).
fleet-smoke:
    cargo test --release -p vcfr-cli --test fleet_smoke

# Security smoke: a tiny 2-point entropy frontier (coverage-guided
# gadget fuzzing + slowdown + fault coverage), manifests byte-identical
# across worker-thread counts (see docs/security.md).
security-smoke:
    cargo run --release -p vcfr-bench --bin repro -- frontier-smoke

# Doc CI: every relative markdown link in README.md, EXPERIMENTS.md,
# ROADMAP.md, DESIGN.md, CHANGELOG.md and docs/*.md must resolve.
docs-check:
    cargo test -p vcfr --test docs_check

# Every end-to-end smoke in one go.
smoke: obs-smoke faults-smoke serve-smoke fleet-smoke sim-smoke telemetry-smoke multicore-smoke security-smoke docs-check

# Full test suite across the workspace.
test:
    cargo test --workspace
