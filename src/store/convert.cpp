#include "store/convert.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <vector>

#include "geo/quadtree.h"
#include "store/format.h"
#include "store/store.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::store {

namespace {

/// Serializes the whole store image in memory first: the stores this
/// converter targets are bounded by the Dataset that was just materialized
/// anyway, and a single contiguous buffer makes the CRC block pass and the
/// exact-size invariant trivial to get right.
std::vector<char> build_image(const data::Dataset& ds,
                              const data::LoadReport& report,
                              const ConvertOptions& options,
                              ConvertStats& stats) {
  const std::size_t n = ds.checkin_count();
  if (n == 0)
    throw ParseError("store convert: dataset has no check-ins");
  const geo::QuadtreeDivision division(ds.poi_coordinates(), options.sigma);
  const geo::TimeSlotting slots(ds.window_begin(), ds.window_end(),
                                options.tau_seconds);

  // Row order: sort indices by (cell, slot, user, time, poi) — a total
  // order over distinct records, so the store bytes are a pure function of
  // the dataset, not of std::sort's internals.
  const std::vector<data::CheckIn>& checkins = ds.checkins();
  // Cells bin the raw check-in coordinate — the same convention CellIndex
  // uses — not the POI's canonical location: SNAP records at one POI can
  // carry slightly different coordinates, and the store's (cell, slot)
  // columns must agree with the attack's own binning.
  std::vector<std::uint32_t> cell_of(n), slot_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] =
        static_cast<std::uint32_t>(division.cell_of(checkins[i].location));
    slot_of[i] = static_cast<std::uint32_t>(slots.slot_of(checkins[i].time));
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (cell_of[a] != cell_of[b]) return cell_of[a] < cell_of[b];
              if (slot_of[a] != slot_of[b]) return slot_of[a] < slot_of[b];
              const data::CheckIn& x = checkins[a];
              const data::CheckIn& y = checkins[b];
              if (x.user != y.user) return x.user < y.user;
              if (x.time != y.time) return x.time < y.time;
              return x.poi < y.poi;
            });

  const std::vector<graph::Edge> edge_list = ds.friendships().edges();
  const StoreLayout layout =
      StoreLayout::compute(n, ds.poi_count(), edge_list.size());
  std::vector<char> image(layout.file_bytes, 0);

  StoreHeader header;
  header.row_count = n;
  header.user_count = ds.user_count();
  header.poi_count = ds.poi_count();
  header.edge_count = edge_list.size();
  header.window_begin = ds.window_begin();
  header.window_end = ds.window_end();
  header.grid_count = division.cell_count();
  header.slot_count = slots.slot_count();
  header.sigma = options.sigma;
  header.tau_seconds = options.tau_seconds;
  const std::uint64_t census[kCensusCounters] = {
      report.checkin_lines, report.accepted_checkins, report.short_lines,
      report.bad_timestamps, report.bad_numbers, report.out_of_range_coords,
      report.edge_lines, report.accepted_edges, report.short_edge_lines,
      report.bad_edge_numbers, report.users_below_activity_floor,
      report.users_dropped_by_cap};
  std::memcpy(header.census, census, sizeof(census));

  const auto col = [&image](std::size_t off) { return image.data() + off; };
  auto* user_col = reinterpret_cast<std::uint32_t*>(col(layout.user_off));
  auto* poi_col = reinterpret_cast<std::uint32_t*>(col(layout.poi_off));
  auto* cell_col = reinterpret_cast<std::uint32_t*>(col(layout.cell_off));
  auto* slot_col = reinterpret_cast<std::uint32_t*>(col(layout.slot_off));
  auto* time_col = reinterpret_cast<std::int64_t*>(col(layout.time_off));
  auto* lat_col = reinterpret_cast<double*>(col(layout.lat_off));
  auto* lng_col = reinterpret_cast<double*>(col(layout.lng_off));
  for (std::size_t i = 0; i < n; ++i) {
    const data::CheckIn& c = checkins[order[i]];
    user_col[i] = c.user;
    poi_col[i] = c.poi;
    cell_col[i] = cell_of[order[i]];
    slot_col[i] = slot_of[order[i]];
    time_col[i] = c.time;
    lat_col[i] = c.location.lat;
    lng_col[i] = c.location.lng;
  }
  header.sort_fingerprint =
      sort_fingerprint({cell_col, n}, {slot_col, n});

  auto* plat = reinterpret_cast<double*>(col(layout.poi_lat_off));
  auto* plng = reinterpret_cast<double*>(col(layout.poi_lng_off));
  auto* pcat = reinterpret_cast<std::uint16_t*>(col(layout.poi_cat_off));
  for (std::size_t i = 0; i < ds.poi_count(); ++i) {
    const data::Poi& p = ds.poi(static_cast<data::PoiId>(i));
    plat[i] = p.location.lat;
    plng[i] = p.location.lng;
    pcat[i] = p.category;
  }
  auto* edge_col = reinterpret_cast<std::uint32_t*>(col(layout.edges_off));
  for (std::size_t i = 0; i < edge_list.size(); ++i) {
    edge_col[2 * i] = edge_list[i].a;
    edge_col[2 * i + 1] = edge_list[i].b;
  }

  // Payload block CRCs, then the CRC over the CRC section itself.
  auto* crcs = reinterpret_cast<std::uint32_t*>(col(layout.crc_off));
  const char* payload = image.data() + kHeaderBytes;
  const std::size_t payload_bytes = layout.payload_end - kHeaderBytes;
  for (std::size_t b = 0; b < layout.block_count; ++b) {
    const std::size_t off = b * kBlockBytes;
    const std::size_t len = std::min(kBlockBytes, payload_bytes - off);
    crcs[b] = util::crc32(payload + off, len);
  }
  crcs[layout.block_count] =
      util::crc32(crcs, layout.block_count * sizeof(std::uint32_t));

  header.header_crc =
      util::crc32(&header, kHeaderBytes - sizeof(std::uint32_t));
  std::memcpy(image.data(), &header, kHeaderBytes);

  stats.rows = n;
  stats.users = ds.user_count();
  stats.pois = ds.poi_count();
  stats.edges = edge_list.size();
  stats.grid_count = division.cell_count();
  stats.slot_count = slots.slot_count();
  stats.file_bytes = layout.file_bytes;
  return image;
}

}  // namespace

ConvertStats write_store(const data::Dataset& ds,
                         const data::LoadReport& report,
                         const std::string& path,
                         const ConvertOptions& options) {
  ConvertStats stats;
  const std::vector<char> image = build_image(ds, report, options, stats);

  // Same atomic discipline as checkpoints/snapshots: all-or-nothing via
  // tmp + rename. The two failpoints bracket the rename: `io` simulates a
  // failed write (clean up the tmp, surface IoError); `kill` simulates a
  // crash after the payload hit disk but before the rename (leave the tmp
  // exactly as a dead process would — the invariant chaos_soak checks is
  // that the *final* path never holds a store that validates).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || util::failpoint::fail("store.convert.io")) {
      out.close();
      std::remove(tmp.c_str());
      throw IoError("store convert: cannot write '" + tmp + "'");
    }
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw IoError("store convert: short write to '" + tmp + "'");
    }
  }
  if (!util::fsync_path(tmp)) {
    std::remove(tmp.c_str());
    throw IoError("store convert: fsync '" + tmp + "' failed");
  }
  if (util::failpoint::fail("store.convert.kill"))
    throw util::failpoint::InjectedKill(
        "store.convert.kill: simulated crash before rename of '" + tmp + "'");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("store convert: rename to '" + path + "' failed");
  }
  util::fsync_parent_dir(path);
  return stats;
}

ConvertStats convert_snap_to_store(const std::string& checkins_path,
                                   const std::string& edges_path,
                                   const std::string& store_path,
                                   const ConvertOptions& options,
                                   data::LoadReport* report) {
  data::LoadReport local;
  data::LoadReport& census = report != nullptr ? *report : local;
  const data::Dataset ds = data::load_checkins_snap(
      checkins_path, edges_path, options.load, &census);
  return write_store(ds, census, store_path, options);
}

}  // namespace fs::store
