#include "storage/wal/wal_format.h"

#include <algorithm>
#include <array>
#include <cstring>
#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

#include "common/logging.h"

namespace burtree {

namespace {

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

double GetF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Bit 32 of an image's id field: the image is a delta, not a full page.
constexpr uint64_t kWalImageDeltaFlag = 1ull << 32;

size_t ImageLen(const WalPageImage& img, size_t page_size) {
  if (!img.delta) return 8 + page_size;
  return 8 + 4 + img.extents.size() * 8 + img.bytes.size();
}

size_t BodyLen(const WalRecord& rec, const WalPageImage* images,
               size_t image_count, size_t page_size) {
  size_t n = 0;
  if (rec.logical != WalLogicalKind::kNone) n += kWalLogicalPayloadSize;
  n += rec.pending.size() * kWalPendingNoteSize;
  for (size_t i = 0; i < image_count; ++i) {
    n += ImageLen(images[i], page_size);
  }
  return n;
}

#if defined(__x86_64__)
/// One crc32 instruction per 8 bytes; only called after the runtime
/// __builtin_cpu_supports check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cHw(uint32_t crc,
                                                    const uint8_t* p,
                                                    size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p);
    ++p;
    --n;
  }
  return c32;
}
#endif

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t len) {
#if defined(__x86_64__)
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return Crc32cHw(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
#endif
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

size_t WalRecordEncodedSize(const WalRecord& rec, size_t page_size) {
  return kWalRecordHeaderSize +
         BodyLen(rec, rec.images.data(), rec.images.size(), page_size);
}

void EncodeWalRecord(const WalRecord& rec, size_t page_size, uint64_t lsn,
                     std::vector<uint8_t>* out) {
  EncodeWalRecord(rec, rec.images.data(), rec.images.size(), page_size, lsn,
                  out);
}

void EncodeWalRecord(const WalRecord& rec, const WalPageImage* images,
                     size_t image_count, size_t page_size, uint64_t lsn,
                     std::vector<uint8_t>* out) {
  const size_t body_len = BodyLen(rec, images, image_count, page_size);
  const size_t start = out->size();
  // One resize, then raw pointer writes: this runs once per operation,
  // and a field-by-field vector append costs several hundred cycles of
  // bookkeeping for a ~100-byte record.
  out->resize(start + kWalRecordHeaderSize + body_len);
  uint8_t* p = out->data() + start;
  const auto put32 = [&p](uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  const auto put64 = [&p](uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };
  const auto putf64 = [&p](double v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };

  BURTREE_CHECK(rec.pending.size() <= 255);
  put32(kWalRecordMagic);
  put32(0);  // crc placeholder
  put64(lsn);
  put32(static_cast<uint32_t>(body_len));
  *p++ = static_cast<uint8_t>(rec.type);
  *p++ = rec.has_root ? 1 : 0;
  *p++ = static_cast<uint8_t>(rec.logical);
  *p++ = static_cast<uint8_t>(rec.pending.size());
  put64(static_cast<uint64_t>(rec.root));
  put32(rec.root_level);
  put32(static_cast<uint32_t>(image_count));
  put64(rec.token);

  if (rec.logical != WalLogicalKind::kNone) {
    put64(rec.oid);
    putf64(rec.rect.min_x);
    putf64(rec.rect.min_y);
    putf64(rec.rect.max_x);
    putf64(rec.rect.max_y);
  }
  for (const WalPendingNote& note : rec.pending) {
    put64(note.token);
    put64(note.oid);
    putf64(note.rect.min_x);
    putf64(note.rect.min_y);
    putf64(note.rect.max_x);
    putf64(note.rect.max_y);
  }
  for (size_t i = 0; i < image_count; ++i) {
    const WalPageImage& img = images[i];
    if (!img.delta) {
      BURTREE_CHECK(img.bytes.size() == page_size);
      put64(static_cast<uint64_t>(img.id));
      std::memcpy(p, img.bytes.data(), page_size);
      p += page_size;
      continue;
    }
    put64(static_cast<uint64_t>(img.id) | kWalImageDeltaFlag);
    put32(static_cast<uint32_t>(img.extents.size()));
    size_t payload = 0;
    for (const WalExtent& e : img.extents) {
      BURTREE_CHECK(e.length > 0 &&
                    e.offset + static_cast<size_t>(e.length) <= page_size);
      put32(e.offset);
      put32(e.length);
      payload += e.length;
    }
    BURTREE_CHECK(payload == img.bytes.size());
    // A page re-dirtied without a byte change diffs to a delta with no
    // extents, whose empty payload may have a null data(): memcpy's
    // source must be non-null even for zero bytes.
    if (payload > 0) std::memcpy(p, img.bytes.data(), payload);
    p += payload;
  }
  BURTREE_DCHECK(p == out->data() + out->size());

  // CRC over everything after the lsn field (offsets 16..end).
  uint8_t* base = out->data() + start;
  const uint32_t crc =
      WalCrc32(base + 16, kWalRecordHeaderSize - 16 + body_len);
  std::memcpy(base + 4, &crc, 4);
}

void PatchWalRecordLsn(uint8_t* encoded, uint64_t lsn) {
  std::memcpy(encoded + 8, &lsn, 8);
}

WalDecodeResult DecodeWalRecord(const uint8_t* in, size_t len,
                                size_t page_size, uint64_t lsn,
                                WalRecord* out, size_t* consumed) {
  if (len < kWalRecordHeaderSize) return WalDecodeResult::kTorn;
  if (GetU32(in) != kWalRecordMagic) return WalDecodeResult::kTorn;
  const size_t body_len = GetU32(in + 16);
  // An op record holds at most page_count full pages plus the logical
  // payload; anything absurd is framing corruption, not a huge record.
  if (body_len > (1u << 30)) return WalDecodeResult::kCorrupt;
  if (len < kWalRecordHeaderSize + body_len) return WalDecodeResult::kTorn;
  const uint32_t crc = GetU32(in + 4);
  if (WalCrc32(in + 16, kWalRecordHeaderSize - 16 + body_len) != crc) {
    return WalDecodeResult::kCorrupt;
  }
  if (GetU64(in + 8) != lsn) return WalDecodeResult::kCorrupt;

  const uint8_t type = in[20];
  if (type != static_cast<uint8_t>(WalRecordType::kOp) &&
      type != static_cast<uint8_t>(WalRecordType::kCheckpoint)) {
    return WalDecodeResult::kCorrupt;
  }
  const uint8_t logical = in[22];
  if (logical > static_cast<uint8_t>(WalLogicalKind::kCompletedInsert)) {
    return WalDecodeResult::kCorrupt;
  }

  WalRecord rec;
  rec.type = static_cast<WalRecordType>(type);
  rec.has_root = in[21] != 0;
  rec.logical = static_cast<WalLogicalKind>(logical);
  rec.root = static_cast<PageId>(GetU64(in + 24));
  rec.root_level = GetU32(in + 32);
  const uint32_t page_count = GetU32(in + 36);
  rec.token = GetU64(in + 40);

  // Image lengths vary (full vs delta): walk the body with bounds checks
  // instead of a closed-form length formula. The CRC already passed, so
  // any inconsistency below is framing corruption.
  const uint8_t* p = in + kWalRecordHeaderSize;
  const uint8_t* end = in + kWalRecordHeaderSize + body_len;
  if (rec.logical != WalLogicalKind::kNone) {
    if (static_cast<size_t>(end - p) < kWalLogicalPayloadSize) {
      return WalDecodeResult::kCorrupt;
    }
    rec.oid = GetU64(p);
    rec.rect = Rect(GetF64(p + 8), GetF64(p + 16), GetF64(p + 24),
                    GetF64(p + 32));
    p += kWalLogicalPayloadSize;
  }
  const uint8_t pending_count = in[23];
  if (static_cast<size_t>(end - p) < pending_count * kWalPendingNoteSize) {
    return WalDecodeResult::kCorrupt;
  }
  rec.pending.reserve(pending_count);
  for (uint8_t i = 0; i < pending_count; ++i) {
    WalPendingNote note;
    note.token = GetU64(p);
    note.oid = GetU64(p + 8);
    note.rect = Rect(GetF64(p + 16), GetF64(p + 24), GetF64(p + 32),
                     GetF64(p + 40));
    p += kWalPendingNoteSize;
    rec.pending.push_back(note);
  }
  rec.images.reserve(page_count);
  for (uint32_t i = 0; i < page_count; ++i) {
    if (static_cast<size_t>(end - p) < 8) return WalDecodeResult::kCorrupt;
    const uint64_t id_and_flags = GetU64(p);
    p += 8;
    WalPageImage img;
    img.id = static_cast<PageId>(id_and_flags);
    img.delta = (id_and_flags & kWalImageDeltaFlag) != 0;
    if (id_and_flags & ~(kWalImageDeltaFlag | 0xFFFFFFFFull)) {
      return WalDecodeResult::kCorrupt;
    }
    if (!img.delta) {
      if (static_cast<size_t>(end - p) < page_size) {
        return WalDecodeResult::kCorrupt;
      }
      img.bytes.assign(p, p + page_size);
      p += page_size;
    } else {
      if (static_cast<size_t>(end - p) < 4) return WalDecodeResult::kCorrupt;
      const uint32_t extent_count = GetU32(p);
      p += 4;
      // Non-overlapping one-byte-minimum extents: more than page_size of
      // them cannot be legitimate.
      if (extent_count > page_size) return WalDecodeResult::kCorrupt;
      if (static_cast<size_t>(end - p) < extent_count * 8ull) {
        return WalDecodeResult::kCorrupt;
      }
      size_t payload = 0;
      size_t prev_end = 0;
      img.extents.reserve(extent_count);
      for (uint32_t e = 0; e < extent_count; ++e) {
        WalExtent ext{GetU32(p), GetU32(p + 4)};
        p += 8;
        if (ext.length == 0 || ext.offset < prev_end ||
            ext.offset + static_cast<size_t>(ext.length) > page_size) {
          return WalDecodeResult::kCorrupt;
        }
        prev_end = ext.offset + ext.length;
        payload += ext.length;
        img.extents.push_back(ext);
      }
      if (static_cast<size_t>(end - p) < payload) {
        return WalDecodeResult::kCorrupt;
      }
      img.bytes.assign(p, p + payload);
      p += payload;
    }
    rec.images.push_back(std::move(img));
  }
  if (p != end) return WalDecodeResult::kCorrupt;
  *out = std::move(rec);
  *consumed = kWalRecordHeaderSize + body_len;
  return WalDecodeResult::kOk;
}

namespace {

/// 16-byte block equality — the diff scan runs on every dirty unpin, and
/// a libc memcmp call per block is most of its cost. SSE2 is part of the
/// x86-64 baseline so the vector compare needs no runtime dispatch. Tail
/// blocks (page_size not a multiple of 16) fall back to memcmp.
inline bool BlockEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  if (n == 16) {
#if defined(__x86_64__) || defined(_M_X64)
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    return _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) == 0xFFFF;
#else
    uint64_t a0, a1, b0, b1;
    std::memcpy(&a0, a, 8);
    std::memcpy(&a1, a + 8, 8);
    std::memcpy(&b0, b, 8);
    std::memcpy(&b1, b + 8, 8);
    return ((a0 ^ b0) | (a1 ^ b1)) == 0;
#endif
  }
  return std::memcmp(a, b, n) == 0;
}

}  // namespace

void DiffWalPageImage(const uint8_t* base, const uint8_t* now,
                      size_t page_size, PageId id, WalPageImage* out) {
  constexpr size_t kBlock = 16;
  out->id = id;
  out->delta = false;
  out->extents.clear();
  out->bytes.clear();
  size_t payload = 0;
  size_t i = 0;
  while (i < page_size) {
    size_t n = std::min(kBlock, page_size - i);
    if (BlockEqual(base + i, now + i, n)) {
      i += n;
      continue;
    }
    const size_t start = i;
    i += n;
    while (i < page_size) {
      n = std::min(kBlock, page_size - i);
      if (BlockEqual(base + i, now + i, n)) break;
      i += n;
    }
    out->extents.push_back(WalExtent{static_cast<uint32_t>(start),
                                     static_cast<uint32_t>(i - start)});
    payload += i - start;
  }
  // Delta beats full only if its encoding is actually smaller.
  if (4 + out->extents.size() * 8 + payload >= page_size) {
    out->extents.clear();
    out->bytes.assign(now, now + page_size);
    return;
  }
  out->delta = true;
  out->bytes.reserve(payload);
  for (const WalExtent& e : out->extents) {
    out->bytes.insert(out->bytes.end(), now + e.offset,
                      now + e.offset + e.length);
  }
}

void EncodeWalFileHeader(size_t page_size, uint64_t base_lsn,
                         uint8_t out[kWalFileHeaderSize]) {
  const uint64_t magic = kWalFileMagic;
  const uint32_t version = 1;
  const uint32_t ps = static_cast<uint32_t>(page_size);
  std::memcpy(out, &magic, 8);
  std::memcpy(out + 8, &version, 4);
  std::memcpy(out + 12, &ps, 4);
  std::memcpy(out + 16, &base_lsn, 8);
}

Status DecodeWalFileHeader(const uint8_t* in, size_t len, size_t* page_size,
                           uint64_t* base_lsn) {
  if (len < kWalFileHeaderSize) {
    return Status::IoError("WAL file shorter than its header");
  }
  if (GetU64(in) != kWalFileMagic) {
    return Status::IoError("bad WAL file magic");
  }
  if (GetU32(in + 8) != 1) {
    return Status::IoError("unsupported WAL version");
  }
  *page_size = GetU32(in + 12);
  if (*page_size == 0) return Status::IoError("WAL header page_size is 0");
  *base_lsn = GetU64(in + 16);
  return Status::OK();
}

}  // namespace burtree
