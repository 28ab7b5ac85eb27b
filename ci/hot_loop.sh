#!/usr/bin/env bash
# The engine's per-op helpers must compile into the monomorphized event
# loop that calls them (`simnet::pdes::run_until_blocked`,
# `post_send_partitioned` and `leader_phase`). The loop is instantiated
# in the caller's crate, so a non-generic helper of `simnet` inlines
# there only through `#[inline]`, and LLVM may still leave a hinted one
# out of line (DESIGN §8, "Monomorphized dispatch"). This fails, naming
# each helper, when the executable BIN defines one as a function of its
# own.
#
#   bash ci/hot_loop.sh target/release/repro
set -euo pipefail

bin="${1:?usage: ci/hot_loop.sh BIN}"

# The per-op path, as `nm -C` names its functions. `Peer::resolve` is
# small enough to inline unhinted only without its ring wrap, so it is
# listed with the eight helpers it sits under.
helpers=(
    '<columbia_simnet::program::ProgramSet as columbia_simnet::program::Programs>::op'
    'columbia_simnet::program::SpmdOp::resolve'
    'columbia_simnet::program::Peer::resolve'
    '<columbia_simnet::fabric::CachedFabric as columbia_simnet::fabric::Fabric>::pt2pt_time'
    'columbia_simnet::fabric::CachedFabric::costs'
    '<columbia_simnet::fault::FaultyFabric<F> as columbia_simnet::fabric::Fabric>::pt2pt_time'
    'columbia_simnet::fault::FaultPlan::drops_for_message'
    'columbia_simnet::mailbox::next_index'
    'columbia_simnet::engine::charge_send'
)

# Defined functions only (text symbols, weak ones included), one name a
# line with the address and type stripped.
functions=$(nm -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { sub(/^[^ ]+ [^ ]+ /, ""); print }')
if [ -z "$functions" ]; then
    echo "hot_loop.sh: nm found no functions in $bin" >&2
    exit 1
fi

status=0
for helper in "${helpers[@]}"; do
    copies=$(grep -cxF -- "$helper" <<< "$functions" || true)
    if [ "$copies" -gt 0 ]; then
        echo "out of line in $bin: $helper (definitions: $copies)" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "every per-op helper of the event loop is inlined in $bin"
fi
exit "$status"
