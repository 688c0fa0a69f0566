#!/bin/sh
# The one way to build this workspace without a registry: writes the
# git-ignored .cargo/config.toml that turns the network off and patches the
# four crates.io dependencies onto the tracked stand-ins (stubs/ for the
# test and bench harnesses, e2e/stubs/ for the two the engine crates link).
# After it, plain `cargo build`, `cargo test`, `cargo bench` work from the
# repository root. Cargo.lock then names stand-in versions and stays
# untracked. Delete .cargo/ to go back to the registry.
#
# e2e/ carries its own [patch] table and must be built from a checkout
# without .cargo/config.toml (cargo rejects the same patch declared twice):
#   git archive HEAD | tar -x -C <dir> && cargo build --release --offline \
#       --manifest-path <dir>/e2e/Cargo.toml
set -eu
root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
mkdir -p "$root/.cargo"
cat > "$root/.cargo/config.toml" <<'TOML'
[net]
offline = true

[patch.crates-io]
rand = { path = "e2e/stubs/rand" }
parking_lot = { path = "e2e/stubs/parking_lot" }
proptest = { path = "stubs/proptest" }
criterion = { path = "stubs/criterion" }
TOML
echo "wrote $root/.cargo/config.toml"
