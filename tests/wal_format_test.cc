// Property/fuzz tests for the WAL record serialization (storage/wal/
// wal_format.h): seeded random records must round-trip bit-exactly;
// every possible truncation of a valid stream must decode as kTorn (the
// post-crash tail case replay stops at); and any single bit flip in the
// CRC-covered region must decode as kCorrupt, never as a different
// valid record.
#include "storage/wal/wal_format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

WalRecord RandomRecord(Rng& rng, size_t page_size) {
  WalRecord rec;
  rec.type = rng.NextBool(0.9) ? WalRecordType::kOp
                               : WalRecordType::kCheckpoint;
  if (rng.NextBool(0.3)) {
    rec.has_root = true;
    rec.root = static_cast<PageId>(rng.NextBelow(1 << 20));
    rec.root_level = static_cast<Level>(rng.NextBelow(12));
  }
  switch (rng.NextBelow(3)) {
    case 0:
      break;
    case 1: {
      rec.logical = WalLogicalKind::kPendingInsert;
      rec.token = rng.Next();
      rec.oid = rng.Next();
      const double x = rng.NextDouble();
      const double y = rng.NextDouble();
      rec.rect = Rect(x, y, x + rng.NextDouble(), y + rng.NextDouble());
      break;
    }
    default:
      rec.logical = WalLogicalKind::kCompletedInsert;
      rec.token = rng.Next();
      break;
  }
  const size_t pages = rng.NextBelow(5);
  for (size_t i = 0; i < pages; ++i) {
    WalPageImage img;
    img.id = static_cast<PageId>(rng.NextBelow(1 << 16));
    if (rng.NextBool(0.5)) {
      // Delta image: 1-4 ascending, non-overlapping extents.
      img.delta = true;
      const size_t extents = 1 + rng.NextBelow(4);
      size_t off = 0;
      for (size_t e = 0; e < extents && off + 2 <= page_size; ++e) {
        const size_t start = off + rng.NextBelow((page_size - off) / 2 + 1);
        if (start >= page_size) break;
        const size_t len = 1 + rng.NextBelow(page_size - start);
        img.extents.push_back(WalExtent{static_cast<uint32_t>(start),
                                        static_cast<uint32_t>(len)});
        off = start + len;
      }
      size_t payload = 0;
      for (const WalExtent& e : img.extents) payload += e.length;
      img.bytes.resize(payload);
    } else {
      img.bytes.resize(page_size);
    }
    for (auto& b : img.bytes) b = static_cast<uint8_t>(rng.Next());
    rec.images.push_back(std::move(img));
  }
  return rec;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.has_root, b.has_root);
  if (a.has_root) {
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.root_level, b.root_level);
  }
  EXPECT_EQ(a.logical, b.logical);
  if (a.logical != WalLogicalKind::kNone) {
    EXPECT_EQ(a.token, b.token);
  }
  if (a.logical == WalLogicalKind::kPendingInsert) {
    EXPECT_EQ(a.oid, b.oid);
    EXPECT_EQ(std::memcmp(&a.rect, &b.rect, sizeof(Rect)), 0);
  }
  ASSERT_EQ(a.images.size(), b.images.size());
  for (size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i].id, b.images[i].id);
    EXPECT_EQ(a.images[i].delta, b.images[i].delta);
    ASSERT_EQ(a.images[i].extents.size(), b.images[i].extents.size());
    for (size_t e = 0; e < a.images[i].extents.size(); ++e) {
      EXPECT_EQ(a.images[i].extents[e].offset, b.images[i].extents[e].offset);
      EXPECT_EQ(a.images[i].extents[e].length, b.images[i].extents[e].length);
    }
    EXPECT_EQ(a.images[i].bytes, b.images[i].bytes);
  }
}

TEST(WalFormatTest, FuzzRoundTrip) {
  Rng rng(20030901);
  for (int iter = 0; iter < 500; ++iter) {
    const WalRecord rec = RandomRecord(rng, kPageSize);
    const uint64_t lsn = rng.Next() >> 1;
    std::vector<uint8_t> bytes;
    EncodeWalRecord(rec, kPageSize, lsn, &bytes);
    ASSERT_EQ(bytes.size(), WalRecordEncodedSize(rec, kPageSize));

    WalRecord out;
    size_t consumed = 0;
    ASSERT_EQ(DecodeWalRecord(bytes.data(), bytes.size(), kPageSize, lsn,
                              &out, &consumed),
              WalDecodeResult::kOk);
    EXPECT_EQ(consumed, bytes.size());
    ExpectRecordsEqual(rec, out);
  }
}

TEST(WalFormatTest, FuzzRoundTripOfConcatenatedStream) {
  // Records decode back-to-back the way Replay walks the file: each
  // record's positional lsn is the stream offset of its first byte.
  Rng rng(7);
  std::vector<uint8_t> stream;
  std::vector<WalRecord> recs;
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 20; ++i) {
    recs.push_back(RandomRecord(rng, kPageSize));
    lsns.push_back(stream.size());
    EncodeWalRecord(recs.back(), kPageSize, lsns.back(), &stream);
  }
  size_t off = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    WalRecord out;
    size_t consumed = 0;
    ASSERT_EQ(DecodeWalRecord(stream.data() + off, stream.size() - off,
                              kPageSize, off, &out, &consumed),
              WalDecodeResult::kOk);
    ExpectRecordsEqual(recs[i], out);
    off += consumed;
  }
  EXPECT_EQ(off, stream.size());
}

TEST(WalFormatTest, EveryTruncationPointDecodesAsTorn) {
  Rng rng(42);
  const WalRecord rec = RandomRecord(rng, kPageSize);
  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, kPageSize, /*lsn=*/0, &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeWalRecord(bytes.data(), len, kPageSize, /*lsn=*/0,
                              &out, &consumed),
              WalDecodeResult::kTorn)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(WalFormatTest, ZeroedTailDecodesAsTorn) {
  // A crashed append often leaves preallocated/zeroed bytes where the
  // next record would go; the magic check classifies them as torn.
  std::vector<uint8_t> zeros(kWalRecordHeaderSize + 64, 0);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeWalRecord(zeros.data(), zeros.size(), kPageSize,
                            /*lsn=*/0, &out, &consumed),
            WalDecodeResult::kTorn);
}

TEST(WalFormatTest, EveryBitFlipInCrcRegionDecodesAsCorruptOrTorn) {
  Rng rng(1234);
  WalRecord rec = RandomRecord(rng, kPageSize);
  if (rec.images.empty()) {
    WalPageImage img;
    img.id = 7;
    img.bytes.assign(kPageSize, 0xA5);
    rec.images.push_back(std::move(img));
  }
  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, kPageSize, /*lsn=*/0, &bytes);

  // Flip one bit at a time. The magic word (bytes [0,4)) turns the
  // record unrecognizable -> kTorn; anything else framed -> kCorrupt.
  // The lsn field ([8,16)) is excluded from the CRC but validated
  // positionally, so flips there must also fail. Sample every byte but
  // stride the page bodies to keep the test fast.
  for (size_t byte = 0; byte < bytes.size();
       byte += (byte < 64 ? 1 : 37)) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mut = bytes;
      mut[byte] = static_cast<uint8_t>(mut[byte] ^ (1u << bit));
      WalRecord out;
      size_t consumed = 0;
      const WalDecodeResult r = DecodeWalRecord(
          mut.data(), mut.size(), kPageSize, /*lsn=*/0, &out, &consumed);
      EXPECT_NE(r, WalDecodeResult::kOk)
          << "bit flip at byte " << byte << " bit " << bit
          << " decoded as a valid record";
    }
  }
}

TEST(WalFormatTest, PatchLsnKeepsCrcValid) {
  Rng rng(99);
  const WalRecord rec = RandomRecord(rng, kPageSize);
  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, kPageSize, /*lsn=*/0, &bytes);
  PatchWalRecordLsn(bytes.data(), 123456789);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeWalRecord(bytes.data(), bytes.size(), kPageSize,
                            /*lsn=*/123456789, &out, &consumed),
            WalDecodeResult::kOk);
  // ...and the positional check still rejects the wrong stream offset.
  EXPECT_EQ(DecodeWalRecord(bytes.data(), bytes.size(), kPageSize,
                            /*lsn=*/0, &out, &consumed),
            WalDecodeResult::kCorrupt);
}

TEST(WalFormatTest, DiffedDeltaAppliesBackToTheAfterImage) {
  // DiffWalPageImage(base, now) must produce extents+payload that, laid
  // over base, reproduce now exactly — including the all-equal case
  // (empty delta) and a full-fallback when most of the page changed.
  Rng rng(555);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> base(kPageSize), now(kPageSize);
    for (auto& b : base) b = static_cast<uint8_t>(rng.Next());
    now = base;
    // Mutate between 0 bytes and the whole page.
    const size_t muts = rng.NextBelow(kPageSize + 1);
    for (size_t m = 0; m < muts; ++m) {
      now[rng.NextBelow(kPageSize)] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    WalPageImage img;
    DiffWalPageImage(base.data(), now.data(), kPageSize, /*id=*/9, &img);
    std::vector<uint8_t> applied = base;
    if (!img.delta) {
      ASSERT_EQ(img.bytes.size(), kPageSize);
      applied = img.bytes;
    } else {
      const uint8_t* src = img.bytes.data();
      size_t prev_end = 0;
      for (const WalExtent& e : img.extents) {
        ASSERT_GE(e.offset, prev_end) << "extents not ascending";
        ASSERT_GT(e.length, 0u);
        ASSERT_LE(e.offset + static_cast<size_t>(e.length), kPageSize);
        prev_end = e.offset + e.length;
        std::memcpy(applied.data() + e.offset, src, e.length);
        src += e.length;
      }
    }
    EXPECT_EQ(applied, now) << "iter " << iter;
  }
}

TEST(WalFormatTest, EmptyDeltaRoundTrips) {
  // A page re-dirtied without a byte change diffs to a delta with zero
  // extents and an empty payload; encoding it must not hand memcpy a
  // null source, and the decoded image must leave the page unchanged.
  Rng rng(4242);
  std::vector<uint8_t> page(kPageSize);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  const std::vector<uint8_t> same = page;
  WalRecord rec;
  rec.images.emplace_back();
  DiffWalPageImage(page.data(), same.data(), kPageSize, /*id=*/3,
                   &rec.images[0]);
  ASSERT_TRUE(rec.images[0].delta);
  EXPECT_TRUE(rec.images[0].extents.empty());

  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, kPageSize, /*lsn=*/64, &bytes);
  ASSERT_EQ(bytes.size(), WalRecordEncodedSize(rec, kPageSize));
  WalRecord out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeWalRecord(bytes.data(), bytes.size(), kPageSize,
                            /*lsn=*/64, &out, &consumed),
            WalDecodeResult::kOk);
  ExpectRecordsEqual(rec, out);
  ASSERT_EQ(out.images.size(), 1u);
  EXPECT_TRUE(out.images[0].extents.empty());

  std::vector<uint8_t> applied = page;
  const uint8_t* src = out.images[0].bytes.data();
  for (const WalExtent& e : out.images[0].extents) {
    std::memcpy(applied.data() + e.offset, src, e.length);
    src += e.length;
  }
  EXPECT_EQ(applied, page);
}

TEST(WalFormatTest, MalformedDeltaExtentsDecodeAsCorrupt) {
  // Hand-build a one-delta-image record, re-CRC each mutation so only
  // the extent validation (not the checksum) can reject it.
  WalRecord rec;
  WalPageImage img;
  img.id = 3;
  img.delta = true;
  img.extents = {WalExtent{8, 16}, WalExtent{64, 8}};
  img.bytes.assign(24, 0xCD);
  rec.images.push_back(img);
  std::vector<uint8_t> good;
  EncodeWalRecord(rec, kPageSize, /*lsn=*/0, &good);

  // Offsets inside the body: header 48, image id 8 bytes, extent count
  // 4 bytes, then (offset,length) pairs.
  const size_t ext0 = kWalRecordHeaderSize + 8 + 4;
  auto recrc = [](std::vector<uint8_t>& b) {
    const uint32_t crc = WalCrc32(b.data() + 16, b.size() - 16);
    std::memcpy(b.data() + 4, &crc, 4);
  };
  auto expect_corrupt = [&](std::vector<uint8_t> mut, const char* what) {
    recrc(mut);
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeWalRecord(mut.data(), mut.size(), kPageSize, /*lsn=*/0,
                              &out, &consumed),
              WalDecodeResult::kCorrupt)
        << what;
  };

  {
    std::vector<uint8_t> mut = good;  // zero-length extent
    const uint32_t zero = 0;
    std::memcpy(mut.data() + ext0 + 4, &zero, 4);
    expect_corrupt(std::move(mut), "zero-length extent");
  }
  {
    std::vector<uint8_t> mut = good;  // extent past page end
    const uint32_t off = kPageSize - 4, len = 8;
    std::memcpy(mut.data() + ext0, &off, 4);
    std::memcpy(mut.data() + ext0 + 4, &len, 4);
    expect_corrupt(std::move(mut), "extent past page end");
  }
  {
    std::vector<uint8_t> mut = good;  // overlapping / descending extents
    const uint32_t off = 4;           // second extent starts before first ends
    std::memcpy(mut.data() + ext0 + 8, &off, 4);
    expect_corrupt(std::move(mut), "overlapping extents");
  }
  {
    std::vector<uint8_t> mut = good;  // absurd extent count
    const uint32_t count = kPageSize + 1;
    std::memcpy(mut.data() + kWalRecordHeaderSize + 8, &count, 4);
    expect_corrupt(std::move(mut), "extent count over page_size");
  }
}

TEST(WalFormatTest, FileHeaderRoundTripAndRejection) {
  uint8_t hdr[kWalFileHeaderSize];
  EncodeWalFileHeader(/*page_size=*/512, /*base_lsn=*/777, hdr);
  size_t page_size = 0;
  uint64_t base_lsn = 0;
  ASSERT_TRUE(
      DecodeWalFileHeader(hdr, sizeof(hdr), &page_size, &base_lsn).ok());
  EXPECT_EQ(page_size, 512u);
  EXPECT_EQ(base_lsn, 777u);

  EXPECT_FALSE(
      DecodeWalFileHeader(hdr, sizeof(hdr) - 1, &page_size, &base_lsn)
          .ok());
  hdr[0] ^= 0xFF;
  EXPECT_FALSE(
      DecodeWalFileHeader(hdr, sizeof(hdr), &page_size, &base_lsn).ok());
}

}  // namespace
}  // namespace burtree
