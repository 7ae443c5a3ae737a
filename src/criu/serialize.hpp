// Binary serialization of checkpoint images — the on-the-wire / on-disk
// format (CRIU's equivalent of its protobuf image files).
//
// No replicated run goes through it. Images travel as in-memory records
// (the backup buffers them, it never re-parses), and recovery does not
// write image files: BackupAgent::recover charges the paper's image build
// (§IV) as a modeled cost (image_build_base / image_build_per_mb). The
// format serves cold migration (examples/live_migration) and is the
// canonical byte form the determinism tests compare images in: a
// little-endian TLV layout with a magic/version header and per-section
// length framing, so a truncated or corrupted image is detected rather
// than half-applied.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "criu/image.hpp"

namespace nlc::criu {

inline constexpr std::uint32_t kImageMagic = 0x4E4C4349;  // "NLCI"
inline constexpr std::uint16_t kImageVersion = 2;  // v2: per-page wire_size

/// Serializes `img` into a self-contained byte buffer.
std::vector<std::byte> serialize_image(const CheckpointImage& img);

/// Parses a buffer produced by serialize_image. Throws InvariantError on
/// magic/version mismatch, truncation, or framing corruption.
CheckpointImage deserialize_image(std::span<const std::byte> data);

}  // namespace nlc::criu
