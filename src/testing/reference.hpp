// The sequential reference interpreter: the value semantics of a routine
// with no distribution, no versions and no copies. Every mapped array is
// one plain n-element vector; writes stamp it, reads fold it into the
// order-independent checksum, live regions and kills zero it
// (runtime/expected.hpp has the value definitions). It walks the CFG the
// same way the runtime does — one rng draw per Branch, the same
// loop-trip rules, the same intents per Call — so a correct compiled run
// reproduces its read signature exactly. driver::run_oracle runs it.
#pragma once

#include "ir/program.hpp"
#include "remap/build.hpp"
#include "runtime/machine.hpp"

namespace hpfc::testing {

/// Runs the reference semantics of `program` along the path that
/// `options.seed` selects. Fills the report's signature, reads, writes,
/// ranks, backend ("seq": it never threads), threads and exec_ms; every
/// communication counter stays zero.
runtime::RunReport run_reference(const ir::Program& program,
                                 const remap::Analysis& analysis,
                                 const runtime::RunOptions& options = {});

}  // namespace hpfc::testing
