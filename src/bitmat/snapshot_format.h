#ifndef LBR_BITMAT_SNAPSHOT_FORMAT_H_
#define LBR_BITMAT_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace lbr {

/// Structured failure taxonomy for snapshot open/materialize. Every
/// corrupted-input path throws SnapshotError with one of these codes and no
/// partially constructed Database escapes (fail-closed contract of
/// DESIGN.md §11).
enum class SnapshotErrorCode : uint32_t {
  kIo = 0,          ///< open/stat/mmap/write failure (errno detail in what()).
  kBadMagic = 1,    ///< Not a snapshot file.
  kBadVersion = 2,  ///< Snapshot format version unknown to this build.
  kTruncated = 3,   ///< A section or extent extends past the file end.
  kChecksum = 4,    ///< A section/directory/extent checksum mismatched.
  kCorrupt = 5,     ///< Structurally invalid metadata (bad offsets/sizes).
};

const char* SnapshotErrorCodeName(SnapshotErrorCode code);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& msg)
      : std::runtime_error(std::string("snapshot: ") +
                           SnapshotErrorCodeName(code) + ": " + msg),
        code_(code) {}
  SnapshotErrorCode code() const { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// On-disk snapshot layout (version 2, little-endian, DESIGN.md §11):
///
///   [SnapHeader | SectionEntry x num_sections | u64 header checksum]
///   dict section     — Dictionary::WriteTo bytes (verified at open)
///   stats section    — PredicateStats::WriteTo bytes (verified at open)
///   rowdir section   — concatenated RowDirEntry arrays, one array per
///                      (predicate, orientation); per-slice checksum verified
///                      lazily at every materialization
///   meta section     — index dims + per-predicate counts, non-empty-row
///                      bitvectors and SliceDir records (verified at
///                      open)
///   extents section  — page-aligned per-(predicate, orientation) payload
///                      word runs; per-slice checksum verified lazily
///
/// Rows are stored as raw payload words in the extents plus a fixed-size
/// directory entry, so a materialized slice is a vector of zero-copy
/// CompressedRow *views* into the mapped extent — both kPositions and kRuns
/// payloads are position-independent 4-byte word arrays, usable in place.
inline constexpr char kSnapMagic[8] = {'L', 'B', 'R', 'S', 'N', 'P', '0', '1'};
inline constexpr uint32_t kSnapVersion = 2;

enum SnapSectionKind : uint32_t {
  kSnapSectionDict = 1,
  kSnapSectionStats = 2,
  kSnapSectionRowDir = 3,
  kSnapSectionMeta = 4,
  kSnapSectionExtents = 5,
};
inline constexpr uint32_t kSnapNumSections = 5;

#pragma pack(push, 1)
struct SnapHeader {
  char magic[8];
  uint32_t version;
  uint32_t page_size;
  uint64_t file_size;
  uint32_t num_sections;
  uint32_t reserved;
};

struct SnapSectionEntry {
  uint32_t kind;
  uint32_t reserved;
  uint64_t offset;  ///< Absolute file offset.
  uint64_t size;    ///< Bytes.
  uint64_t crc;     ///< SnapChecksum of the section bytes; 0 = verified elsewhere.
};

/// One non-empty row of a slice: fixed 24 bytes so a directory is readable
/// in place from the map at any index.
struct SnapRowDirEntry {
  uint32_t id;                 ///< Row id (subject or object).
  uint32_t count;              ///< Set bits (CompressedRow::Count()).
  uint64_t payload_off_words;  ///< Offset in words from the extent start.
  uint32_t payload_words;      ///< Payload length in words.
  uint8_t encoding;            ///< CompressedRow::Encoding.
  uint8_t first_bit;           ///< kRuns leading-run value.
  uint16_t reserved;
};

/// Meta-section record locating one (predicate, orientation) slice: its row
/// directory inside the rowdir section and its page-aligned payload extent
/// inside the extents section. Offsets are section-relative so the meta blob
/// can be built before the final file layout is known.
struct SnapSliceLocEntry {
  uint64_t dir_off;       ///< Bytes from the rowdir section start.
  uint32_t dir_rows;      ///< Directory entries (non-empty rows).
  uint32_t reserved;
  uint64_t extent_off;    ///< Bytes from the extents section start.
  uint64_t extent_words;  ///< Extent payload length in 4-byte words.
  uint64_t dir_crc;       ///< SnapChecksum of the directory bytes.
  uint64_t extent_crc;    ///< SnapChecksum of the extent payload bytes.
};
#pragma pack(pop)

static_assert(sizeof(SnapHeader) == 32, "SnapHeader layout");
static_assert(sizeof(SnapSectionEntry) == 32, "SnapSectionEntry layout");
static_assert(sizeof(SnapRowDirEntry) == 24, "SnapRowDirEntry layout");
static_assert(sizeof(SnapSliceLocEntry) == 48, "SnapSliceLocEntry layout");

inline constexpr uint64_t kSnapHeaderBytes =
    sizeof(SnapHeader) + kSnapNumSections * sizeof(SnapSectionEntry) + 8;

/// The snapshot checksum (format v2): a 4-lane, 64-bit, word-at-a-time
/// hash with the structure of xxHash64, so lazy slice verification runs at
/// memory bandwidth instead of one multiply per byte.
///
///  - 32-byte stripes feed four independent lanes (instruction-level
///    parallelism); each lane absorbs one 8-byte word per round,
///    `acc = rotl(acc + w * P2, 31) * P1`.
///  - The lanes merge one by one, `h = (h ^ Round(0, v)) * P1 + P4`; then
///    the length is added; then the tail folds in as 8-byte words, one
///    4-byte word and single bytes; a final xor-shift/multiply avalanche
///    mixes the result.
///
/// Single-word guarantee: every step above is a bijection in the running
/// state *and* in the word it absorbs (P1, P2, P5 are odd, rotations and
/// xor-shifts are invertible). So for a fixed length, changing any one
/// aligned 8-byte word (or the 4-byte or single-byte tail chunk) always
/// changes the checksum: every single-bit flip is detected, not just with
/// high probability. Multi-word damage collides with probability ~2^-64.
///
/// One function covers every integrity check of the format: the writer,
/// the header and eager sections at open, lazy per-slice verification,
/// `verify_extents`, `VerifySlices` and paranoid reads. Words are read in
/// host order; the format is little-endian like the rest of the layout.
namespace snap_checksum {
inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
inline uint64_t Round(uint64_t acc, uint64_t w) {
  return Rotl(acc + w * kP2, 31) * kP1;
}
inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
}  // namespace snap_checksum

inline uint64_t SnapChecksum(const void* data, size_t len) {
  using namespace snap_checksum;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h = kP5;
  if (len >= 32) {
    uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= limit);
    h = 0;
    for (uint64_t v : {v1, v2, v3, v4}) h = (h ^ Round(0, v)) * kP1 + kP4;
  }
  h += static_cast<uint64_t>(len);
  for (; p + 8 <= end; p += 8) {
    h ^= Round(0, Load64(p));
    h = Rotl(h, 27) * kP1 + kP4;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Load32(p)) * kP1;
    h = Rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kP5;
    h = Rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Reads a packed struct out of a byte buffer without alignment UB.
template <typename T>
inline T ReadPod(const uint8_t* base, uint64_t offset) {
  T out;
  std::memcpy(&out, base + offset, sizeof(T));
  return out;
}

/// Implemented in core/snapshot.cc; granted friend access to TripleIndex so
/// the writer can walk slices and the reader can install the mapped
/// backing without widening the public index API.
class SnapshotIO;

}  // namespace lbr

#endif  // LBR_BITMAT_SNAPSHOT_FORMAT_H_
