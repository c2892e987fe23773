// fs::store subsystem tests: the SNAP -> store -> Dataset round-trip
// property (byte-identical to loading the SNAP files directly, quarantine
// census preserved), rejection of truncated and bit-flipped files with the
// structured CorruptStore error, the atomic-conversion failpoints, and the
// resident-page accessors the CLI reports with.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/loader.h"
#include "data/synthetic.h"
#include "store/convert.h"
#include "store/format.h"
#include "store/store.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Writes a synthetic world as SNAP files and returns (checkins, edges).
std::pair<std::string, std::string> write_world(const std::string& dir,
                                                std::uint64_t seed,
                                                std::size_t users = 50) {
  data::SyntheticWorldConfig cfg;
  cfg.user_count = users;
  cfg.poi_count = 120;
  cfg.weeks = 3;
  cfg.seed = seed;
  const data::SyntheticWorld world = data::generate_world(cfg);
  const std::string checkins = dir + "/checkins.txt";
  const std::string edges = dir + "/edges.txt";
  data::save_checkins_snap(world.dataset, checkins, edges);
  return {checkins, edges};
}

void expect_datasets_identical(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.user_count(), b.user_count());
  ASSERT_EQ(a.poi_count(), b.poi_count());
  ASSERT_EQ(a.checkin_count(), b.checkin_count());
  EXPECT_EQ(a.window_begin(), b.window_begin());
  EXPECT_EQ(a.window_end(), b.window_end());
  for (std::size_t i = 0; i < a.poi_count(); ++i) {
    const auto id = static_cast<data::PoiId>(i);
    EXPECT_EQ(a.poi(id).location.lat, b.poi(id).location.lat);
    EXPECT_EQ(a.poi(id).location.lng, b.poi(id).location.lng);
    EXPECT_EQ(a.poi(id).category, b.poi(id).category);
  }
  for (std::size_t i = 0; i < a.checkin_count(); ++i) {
    const data::CheckIn& x = a.checkins()[i];
    const data::CheckIn& y = b.checkins()[i];
    EXPECT_EQ(x.user, y.user) << "row " << i;
    EXPECT_EQ(x.poi, y.poi) << "row " << i;
    EXPECT_EQ(x.time, y.time) << "row " << i;
    EXPECT_EQ(x.location.lat, y.location.lat) << "row " << i;
    EXPECT_EQ(x.location.lng, y.location.lng) << "row " << i;
  }
  EXPECT_EQ(a.friendships().edges(), b.friendships().edges());
}

// ---------- round trip ----------

TEST(Store, RoundTripMatchesDirectLoad) {
  const std::string dir = fresh_dir("fs_store_roundtrip");
  const auto [checkins, edges] = write_world(dir, 21);
  const std::string path = dir + "/world.fsst";

  store::ConvertOptions options;
  options.sigma = 30;
  const store::ConvertStats stats =
      store::convert_snap_to_store(checkins, edges, path, options);
  EXPECT_GT(stats.rows, 0u);
  EXPECT_EQ(stats.file_bytes, std::filesystem::file_size(path));

  const data::Dataset direct = data::load_checkins_snap(checkins, edges);
  const store::MappedStore mapped = store::MappedStore::open(path);
  EXPECT_EQ(mapped.row_count(), direct.checkin_count());
  // Dataset::build re-sorts by (user, time, poi) — a total order over
  // distinct SNAP records — so the (cell, slot)-ordered store materializes
  // the byte-identical Dataset.
  expect_datasets_identical(mapped.to_dataset(), direct);
}

TEST(Store, ConversionIsDeterministic) {
  const std::string dir = fresh_dir("fs_store_determinism");
  const auto [checkins, edges] = write_world(dir, 22);
  store::ConvertOptions options;
  options.sigma = 25;
  store::convert_snap_to_store(checkins, edges, dir + "/a.fsst", options);
  store::convert_snap_to_store(checkins, edges, dir + "/b.fsst", options);
  std::ifstream a(dir + "/a.fsst", std::ios::binary);
  std::ifstream b(dir + "/b.fsst", std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Store, QuarantineCensusSurvivesConversion) {
  const std::string dir = fresh_dir("fs_store_census");
  const auto [checkins, edges] = write_world(dir, 23);
  {
    // Dirty the inputs: a short line, a bad timestamp, an out-of-range
    // coordinate, and a short edge line.
    std::ofstream c(checkins, std::ios::app);
    c << "7\t2010-01-01T00:00:00Z\n";
    c << "7\tnot-a-date\t10.0\t10.0\t3\n";
    c << "7\t2010-01-01T00:00:00Z\t95.0\t10.0\t3\n";
    std::ofstream e(edges, std::ios::app);
    e << "11\n";
  }
  store::ConvertOptions options;
  options.load.strictness = data::Strictness::kPermissive;
  data::LoadReport at_convert;
  store::convert_snap_to_store(checkins, edges, dir + "/dirty.fsst", options,
                               &at_convert);
  EXPECT_EQ(at_convert.short_lines, 1u);
  EXPECT_EQ(at_convert.bad_timestamps, 1u);
  EXPECT_EQ(at_convert.out_of_range_coords, 1u);
  EXPECT_EQ(at_convert.short_edge_lines, 1u);

  const store::MappedStore mapped = store::MappedStore::open(dir + "/dirty.fsst");
  const data::LoadReport persisted = mapped.load_report();
  EXPECT_EQ(persisted.checkin_lines, at_convert.checkin_lines);
  EXPECT_EQ(persisted.accepted_checkins, at_convert.accepted_checkins);
  EXPECT_EQ(persisted.short_lines, at_convert.short_lines);
  EXPECT_EQ(persisted.bad_timestamps, at_convert.bad_timestamps);
  EXPECT_EQ(persisted.bad_numbers, at_convert.bad_numbers);
  EXPECT_EQ(persisted.out_of_range_coords, at_convert.out_of_range_coords);
  EXPECT_EQ(persisted.edge_lines, at_convert.edge_lines);
  EXPECT_EQ(persisted.accepted_edges, at_convert.accepted_edges);
  EXPECT_EQ(persisted.short_edge_lines, at_convert.short_edge_lines);
  EXPECT_EQ(persisted.bad_edge_numbers, at_convert.bad_edge_numbers);
  EXPECT_EQ(persisted.users_below_activity_floor,
            at_convert.users_below_activity_floor);
  EXPECT_EQ(persisted.users_dropped_by_cap, at_convert.users_dropped_by_cap);
}

TEST(Store, StrictConversionThrowsOnDirtyInput) {
  const std::string dir = fresh_dir("fs_store_strict");
  const auto [checkins, edges] = write_world(dir, 24);
  {
    std::ofstream c(checkins, std::ios::app);
    c << "7\tnot-a-date\t10.0\t10.0\t3\n";
  }
  store::ConvertOptions options;  // strict by default
  EXPECT_THROW(store::convert_snap_to_store(checkins, edges,
                                            dir + "/strict.fsst", options),
               ParseError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/strict.fsst"));
}

// ---------- corruption rejection ----------

struct StoreFixture {
  std::string dir;
  std::string path;
  std::size_t file_bytes = 0;

  explicit StoreFixture(const std::string& name, std::uint64_t seed) {
    dir = fresh_dir(name);
    const auto [checkins, edges] = write_world(dir, seed);
    path = dir + "/world.fsst";
    store::ConvertOptions options;
    options.sigma = 30;
    file_bytes = store::convert_snap_to_store(checkins, edges, path, options)
                     .file_bytes;
  }

  void flip_byte(std::size_t offset) const {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  void truncate_to(std::size_t bytes) const {
    std::filesystem::resize_file(path, bytes);
  }
};

void expect_corrupt(const std::string& path,
                    store::Verify verify = store::Verify::kFull) {
  try {
    store::MappedStore::open(path, verify);
    FAIL() << "corrupted store was accepted";
  } catch (const CorruptStore& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStore);
  }
}

TEST(StoreCorruption, TruncationRejected) {
  const StoreFixture fx("fs_store_trunc", 31);
  fx.truncate_to(fx.file_bytes - 8);
  // The exact-size equation fires even header-only: truncation is visible
  // without touching a single payload page.
  expect_corrupt(fx.path, store::Verify::kHeaderOnly);
  expect_corrupt(fx.path, store::Verify::kFull);
}

TEST(StoreCorruption, TruncationBelowHeaderRejected) {
  const StoreFixture fx("fs_store_trunc_hdr", 32);
  fx.truncate_to(64);
  expect_corrupt(fx.path, store::Verify::kHeaderOnly);
}

TEST(StoreCorruption, HeaderBitFlipRejected) {
  // A flip anywhere in the header trips the header CRC (or the magic check
  // before it) — header-only verification is enough.
  const StoreFixture fx("fs_store_flip_hdr", 33);
  fx.flip_byte(40);  // inside the count fields
  expect_corrupt(fx.path, store::Verify::kHeaderOnly);
}

TEST(StoreCorruption, ColumnBitFlipRejected) {
  const StoreFixture fx("fs_store_flip_col", 34);
  fx.flip_byte(store::kHeaderBytes + 13);  // first payload block
  expect_corrupt(fx.path, store::Verify::kFull);
}

TEST(StoreCorruption, ChecksumSectionBitFlipRejected) {
  const StoreFixture fx("fs_store_flip_crc", 35);
  fx.flip_byte(fx.file_bytes - 6);  // inside the CRC section
  expect_corrupt(fx.path, store::Verify::kFull);
}

TEST(StoreCorruption, HeaderOnlySkipsPayloadChecks) {
  // The documented kHeaderOnly contract: a payload flip passes the O(1)
  // header checks and is only caught by full verification.
  const StoreFixture fx("fs_store_headeronly", 36);
  fx.flip_byte(store::kHeaderBytes + 13);
  EXPECT_NO_THROW(store::MappedStore::open(fx.path,
                                           store::Verify::kHeaderOnly));
  expect_corrupt(fx.path, store::Verify::kFull);
}

TEST(StoreCorruption, NotAStoreRejected) {
  const std::string dir = fresh_dir("fs_store_notastore");
  const std::string path = dir + "/garbage.fsst";
  std::ofstream(path) << std::string(4096, 'x');
  expect_corrupt(path, store::Verify::kHeaderOnly);
}

TEST(StoreCorruption, MissingFileIsIoErrorNotCorrupt) {
  EXPECT_THROW(store::MappedStore::open("/nonexistent/nowhere.fsst"), IoError);
}

// ---------- conversion failpoints ----------

TEST(StoreConvert, IoFailpointCleansUpTmp) {
  const std::string dir = fresh_dir("fs_store_fp_io");
  const auto [checkins, edges] = write_world(dir, 41);
  const std::string path = dir + "/world.fsst";
  util::failpoint::activate("store.convert.io",
                            util::failpoint::Action::kError, 1);
  EXPECT_THROW(store::convert_snap_to_store(checkins, edges, path, {}),
               IoError);
  util::failpoint::clear();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The retry converges: same inputs, clean run, valid store.
  store::convert_snap_to_store(checkins, edges, path, {});
  EXPECT_NO_THROW(store::MappedStore::open(path));
}

TEST(StoreConvert, KillFailpointLeavesTmpNeverFinal) {
  const std::string dir = fresh_dir("fs_store_fp_kill");
  const auto [checkins, edges] = write_world(dir, 42);
  const std::string path = dir + "/world.fsst";
  util::failpoint::activate("store.convert.kill",
                            util::failpoint::Action::kError, 1);
  EXPECT_THROW(store::convert_snap_to_store(checkins, edges, path, {}),
               util::failpoint::InjectedKill);
  util::failpoint::clear();
  // A kill after the payload write but before the rename behaves like a real
  // crash: the tmp survives, the final path never appears.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  store::convert_snap_to_store(checkins, edges, path, {});
  EXPECT_NO_THROW(store::MappedStore::open(path));
}

// ---------- resident-page accessors the CLI uses ----------

TEST(Store, ResidentBytesIsBoundedAndReleaseIsSafe) {
  const StoreFixture fx("fs_store_resident", 52);
  const store::MappedStore mapped = store::MappedStore::open(fx.path);
  const std::size_t rounded_up =
      ((mapped.file_bytes() + 4095) / 4096 + 1) * 4096;
  // Full verification touched every page; the census can never exceed the
  // mapping (rounded up to whole pages).
  EXPECT_LE(mapped.resident_bytes(), rounded_up);
  // release_pages is advisory: MADV_DONTNEED drops any privately-faulted
  // copies, but mincore reports *page-cache* residency for file-backed
  // mappings, which the kernel is free to keep. The contract under test is
  // that release never breaks the mapping and the census stays bounded.
  mapped.release_pages();
  EXPECT_LE(mapped.resident_bytes(), rounded_up);
  EXPECT_EQ(mapped.cells().size(), mapped.row_count());  // still readable
  EXPECT_NO_THROW(mapped.to_dataset());
}

TEST(Store, SortFingerprintIsOrderSensitive) {
  const std::vector<std::uint32_t> cells = {1, 2, 3};
  const std::vector<std::uint32_t> slots = {0, 1, 0};
  const std::vector<std::uint32_t> cells_swapped = {2, 1, 3};
  EXPECT_NE(store::sort_fingerprint({cells.data(), 3}, {slots.data(), 3}),
            store::sort_fingerprint({cells_swapped.data(), 3},
                                    {slots.data(), 3}));
}

}  // namespace
}  // namespace fs
