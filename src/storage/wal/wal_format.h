// On-disk format of the redo-only write-ahead log (ARIES-lite, physical
// page-image redo — no undo: every record is the *complete* after-image
// set of one atomic logical operation, so replaying any durable prefix
// of the log reproduces a consistent tree; see docs/STORAGE.md §WAL).
//
// An LSN is a byte offset into the (conceptually infinite) log stream:
// record N's LSN is where its first byte lands, and the LSN space keeps
// growing monotonically across checkpoint truncations (each fresh log
// file records its base LSN in the file header). Page headers in the
// buffer pool carry the *end* LSN of the last record that captured
// them — the value the log-before-flush invariant compares against the
// durable LSN.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/types.h"

namespace burtree {

/// "BURTWAL1" — first 8 bytes of every log file.
inline constexpr uint64_t kWalFileMagic = 0x314C41575452'5542ull;
/// "RWAL" — first 4 bytes of every record; a zeroed or garbage tail
/// fails this check before the CRC is even computed.
inline constexpr uint32_t kWalRecordMagic = 0x4C415752u;

inline constexpr size_t kWalFileHeaderSize = 24;
inline constexpr size_t kWalRecordHeaderSize = 48;
/// Fixed-size logical-operation payload (oid + rect), present iff
/// logical != kNone.
inline constexpr size_t kWalLogicalPayloadSize = 8 + 4 * 8;

enum class WalRecordType : uint8_t {
  kOp = 1,          ///< after-images of one atomic logical operation
  kCheckpoint = 2,  ///< all pages flushed+synced; log restarts here
};

/// Logical annotations for the one compound operation redo-only images
/// cannot make atomic: the coupled escalated update, which removes the
/// entry under a leaf latch and re-inserts it in a *separate* latch
/// scope. The removal record carries kPendingInsert(token, oid, rect);
/// the re-insert record carries kCompletedInsert(token). Recovery
/// logically re-inserts every pending token without a completion, so a
/// crash between the two phases never loses the object.
enum class WalLogicalKind : uint8_t {
  kNone = 0,
  kPendingInsert = 1,
  kCompletedInsert = 2,
};

/// One additional pending re-insert note riding on a record (see
/// WalRecord::pending): several entries removed in ONE atomic mutation
/// each need their own kPendingInsert-style note in that same record so
/// a crash before their re-inserts complete cannot lose them. No
/// current writer adds notes; the format and replay keep the list so
/// logs written by earlier versions, which carry them, still recover.
struct WalPendingNote {
  uint64_t token = 0;
  ObjectId oid = kInvalidObjectId;
  Rect rect;
};

/// On-disk size of one WalPendingNote (token + oid + rect).
inline constexpr size_t kWalPendingNoteSize = 8 + 8 + 4 * 8;

/// One run of changed bytes inside a delta image.
struct WalExtent {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// After-image of one page: either the full page bytes or a *delta* —
/// the byte extents that changed since the page's previous logged image
/// (diffed against the frame's shadow copy of that image). Replay
/// applies a delta on top of the store's current bytes, which the
/// log-before-flush invariant guarantees is some earlier logged state of
/// the same page, so the ordered blind-write sequence reconverges on the
/// final state no matter which prefix of it was flushed. The first image
/// of a freshly allocated page is always full (slot reuse must wipe the
/// previous incarnation's bytes at replay).
struct WalPageImage {
  PageId id = kInvalidPageId;
  bool delta = false;
  /// Delta form only: ascending, non-overlapping, within page_size.
  std::vector<WalExtent> extents;
  /// Full: exactly page_size bytes. Delta: the extents' payloads,
  /// concatenated in order (sum of extent lengths).
  std::vector<uint8_t> bytes;
};

/// Diffs `now` against `base` (both `page_size` bytes) in 16-byte blocks
/// and fills `out` with the smaller encoding: a delta of the changed
/// extents, or the full image when the delta would not be smaller.
void DiffWalPageImage(const uint8_t* base, const uint8_t* now,
                      size_t page_size, PageId id, WalPageImage* out);

struct WalRecord {
  WalRecordType type = WalRecordType::kOp;

  /// Root metadata, set only by records whose operation changed the root
  /// (and by every checkpoint record). Recovery adopts the last one seen.
  bool has_root = false;
  PageId root = kInvalidPageId;
  Level root_level = 0;

  WalLogicalKind logical = WalLogicalKind::kNone;
  uint64_t token = 0;
  ObjectId oid = kInvalidObjectId;
  Rect rect;

  /// Extra pending-insert notes (see WalPendingNote), orthogonal to
  /// `logical`: a record may carry a kCompletedInsert AND a pending
  /// list. Replay treats each note exactly like a kPendingInsert. At
  /// most 255 per record (u8 count in the header's former reserved
  /// byte).
  std::vector<WalPendingNote> pending;

  /// After-images, applied in order during replay (within one record the
  /// capture order equals the mutation order). A page re-dirtied within
  /// one operation appears multiple times — later images are deltas
  /// against the earlier ones, so ordered application reconverges.
  std::vector<WalPageImage> images;
};

/// Layout of one record (little-endian, fixed 48-byte header):
///   [ 0] u32 magic            = kWalRecordMagic
///   [ 4] u32 crc32            over bytes [16, 48 + body_len)
///   [ 8] u64 lsn              must equal the record's file position LSN
///   [16] u32 body_len         bytes following the header
///   [20] u8  type, u8 has_root, u8 logical_kind, u8 pending_count
///   [24] u64 root  (page id widened)
///   [32] u32 root_level, u32 page_count
///   [40] u64 token
///   [48] body: [oid u64 + rect 4*f64]? then pending_count *
///        (u64 token + u64 oid + rect 4*f64), then page_count images, each
///        u64 id_and_flags (bit 32 = delta), then either the full page
///        (page_size bytes) or u32 extent_count + extent_count *
///        (u32 offset + u32 length) + the concatenated extent payloads
/// The CRC deliberately excludes the lsn field so a record can be
/// encoded before its LSN is assigned (PatchWalRecordLsn); the lsn is
/// instead validated positionally — replay knows where the record sits.
size_t WalRecordEncodedSize(const WalRecord& rec, size_t page_size);

/// Appends the encoded record (lsn field = `lsn`) to `out`. Every full
/// image must hold exactly `page_size` bytes.
void EncodeWalRecord(const WalRecord& rec, size_t page_size, uint64_t lsn,
                     std::vector<uint8_t>* out);

/// Span-based variant for the hot append path: encodes `rec`'s header
/// and logical fields with `images[0, image_count)` as the image set
/// (`rec.images` is ignored), letting callers reuse image storage across
/// records without reshaping a WalRecord.
void EncodeWalRecord(const WalRecord& rec, const WalPageImage* images,
                     size_t image_count, size_t page_size, uint64_t lsn,
                     std::vector<uint8_t>* out);

/// Rewrites the lsn field of an already encoded record in place (the CRC
/// does not cover it — see above).
void PatchWalRecordLsn(uint8_t* encoded, uint64_t lsn);

enum class WalDecodeResult {
  kOk,
  kTorn,     ///< truncated mid-record / zeroed tail — expected after a crash
  kCorrupt,  ///< framing present but CRC or positional-lsn check failed
};

/// Decodes one record at `in` (expected stream position `lsn`). On kOk
/// fills `out` and `*consumed`; otherwise replay must stop here.
WalDecodeResult DecodeWalRecord(const uint8_t* in, size_t len,
                                size_t page_size, uint64_t lsn,
                                WalRecord* out, size_t* consumed);

/// File header: u64 magic, u32 version (=1), u32 page_size, u64 base_lsn
/// (the LSN of the byte right after this header).
void EncodeWalFileHeader(size_t page_size, uint64_t base_lsn,
                         uint8_t out[kWalFileHeaderSize]);
Status DecodeWalFileHeader(const uint8_t* in, size_t len, size_t* page_size,
                           uint64_t* base_lsn);

/// CRC-32C (Castagnoli, reflected poly 0x82F63B78) — the SSE4.2 crc32
/// instruction when the CPU has it, a lookup table otherwise. Both
/// compute the same function, so a log written on one machine verifies
/// on any other.
uint32_t WalCrc32(const uint8_t* data, size_t len);

}  // namespace burtree
