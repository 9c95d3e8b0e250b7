// runner.hpp — umbrella header for scenario registrations.
//
// A scenario translation unit includes this and writes:
//
//   REGISTER_SCENARIO(fig6_ber, "bench", "Fig. 6 — BER vs Eb/N0") {
//     auto spec = ctx.spec().dt(0.2e-9).axis("ebn0_db", {...});
//     auto rows = ctx.pool.map<Row>(spec.point_count(), [&](std::size_t i) {
//       ...deterministic per-point work keyed on spec.point(i)...
//     });
//     ctx.sink.series(...); ctx.sink.metric(...);
//     return 0;
//   }
#pragma once

#include "runner/registry.hpp"
#include "runner/scenario.hpp"
#include "runner/sink.hpp"
