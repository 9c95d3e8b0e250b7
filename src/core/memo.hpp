/// @file memo.hpp
/// @brief Content-addressed memoization of warm intermediates.
///
/// characterize_itd is the repo's canonical "expensive intermediate": six
/// scenario-level call sites re-measure the identical default cell (AC
/// sweep + ~13 transient integrations) every run. This layer memoizes it
/// under the same content-key discipline as the serve result cache: the
/// FNV-1a hash of the canonical {code_version, sizing, options} document
/// (core/canonical.hpp), so any result-affecting knob — or a code-version
/// bump — mis-hits nothing and a repeat hits exactly.
///
/// Two storage levels:
///   * an in-process map holding the characterization struct itself —
///     a hit returns the very bits the cold call produced;
///   * optionally, when UWBAMS_CACHE names a directory, a disk level
///     shared with `uwbams_serve` (serve::ResultCache: entry_<key>.json,
///     tmp+rename). Serialization renders doubles as %.17g, which
///     round-trips every finite double exactly, so a disk hit is
///     bit-identical too.
///
/// Per-trial Monte-Carlo characterizations (distinct mismatch seeds,
/// borrowed AC workspaces) do NOT route through here: their keys never
/// repeat, and a borrowed workspace is per-task solver state the canonical
/// form refuses to hash.
/// A second memoizable intermediate rides the same machinery: channel
/// realization draws. Linking this TU installs the provider hook of
/// uwb::draw_realizations (uwb cannot link core, so the wiring is a
/// function pointer), after which every (class, params, seed, count) draw
/// batch is served from the in-process map and, under UWBAMS_CACHE, from
/// the disk store — warm draws are byte-identical to cold ones because the
/// %.17g serialization round-trips every finite double exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "uwb/channel.hpp"

namespace uwbams::core::memo {

/// Content key of one characterization call:
/// {code_version, kind, options, sizing} canonical.
/// @throws std::invalid_argument when options.ac_workspace is set.
std::uint64_t characterize_content_key(const spice::ItdSizing& sizing,
                                       const CharacterizeOptions& options);

/// characterize_itd with memoization (see file comment). Falls back to a
/// plain call when options borrows an AC workspace.
ItdCharacterization characterize_itd_cached(
    const spice::ItdSizing& sizing = {},
    const CharacterizeOptions& options = {});

/// Cache serialization of a characterization (schema
/// "uwbams-characterize-result-v1"); exposed for the round-trip tests.
std::string characterization_to_json(const ItdCharacterization& ch);
ItdCharacterization characterization_from_json(const std::string& text);

/// Content key of one channel-draw batch:
/// {code_version, kind, class, params, seed, count} canonical.
std::uint64_t channel_draws_content_key(
    uwb::ChannelClass cls, const uwb::SalehValenzuelaParams& params,
    std::uint64_t seed, int count);

/// uwb::draw_realizations_uncached with memoization — the body behind the
/// provider hook this TU installs.
std::vector<uwb::ChannelRealization> channel_draws_cached(
    uwb::ChannelClass cls, const uwb::SalehValenzuelaParams& params,
    std::uint64_t seed, int count);

/// Cache serialization of a draw batch (schema "uwbams-channel-draws-v1");
/// exposed for the round-trip tests.
std::string channel_draws_to_json(
    const std::vector<uwb::ChannelRealization>& draws);
std::vector<uwb::ChannelRealization> channel_draws_from_json(
    const std::string& text);

/// Process-wide memo statistics (tests assert hit/miss behavior). The
/// channel_* counters track the channel-draw level separately so the
/// characterization assertions stay exact.
struct Stats {
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t channel_mem_hits = 0;
  std::uint64_t channel_disk_hits = 0;
  std::uint64_t channel_misses = 0;
};
Stats stats();
/// Clears the in-process level and zeroes stats (tests only; the disk
/// level, if any, is untouched).
void reset_for_tests();

}  // namespace uwbams::core::memo
