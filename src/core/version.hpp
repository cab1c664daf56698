// Build and on-disk format identification.
//
// The durable store (src/store) writes versioned binary artifacts; when a
// snapshot refuses to load in the field the first question is "which library
// and which format wrote it?". `rolediet version` prints all of these, and
// the store embeds the format constants in every file it writes so a
// mismatch is a diagnosable error instead of a checksum mystery.
#pragma once

#include <cstdint>
#include <string_view>

namespace rolediet::core {

/// Library release, kept in lockstep with the CMake project() version.
inline constexpr std::string_view kLibraryVersion = "1.0.0";

/// Compiled build flavor (assertions on or off).
#ifdef NDEBUG
inline constexpr std::string_view kBuildType = "release";
#else
inline constexpr std::string_view kBuildType = "debug";
#endif

/// On-disk format revision of engine snapshots (store/snapshot.hpp). Bump on
/// a change of layout or of meaning: 2 has 1's layout, but its pair caches
/// omit norm-decided pairs, which a reader of 1 would take as complete.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// On-disk format revision of WAL segments (store/wal.hpp).
inline constexpr std::uint32_t kWalFormatVersion = 1;

}  // namespace rolediet::core
