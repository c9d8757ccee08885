// Cursor oracle: ReplayBackend::get_value_views reads through one
// waveform::SignalCursor per handle, which pins its decoded block and
// answers from a cached interval. Every answer must equal what
// IndexedWaveform::value_at answers for the same signal and time, on
// random walks that mix steps forward and back, jumps, times before a
// stream's first change, block boundaries and max_time. The stores cover
// the committed golden v4 index (an alias and an 80-bit signal) and a
// sharded dump with a late-starting signal, a cross-scope alias and a
// 100-bit signal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>

#include "trace/vcd_reader.h"
#include "vpi/replay_backend.h"
#include "waveform/indexed_waveform.h"
#include "waveform/sharded_writer.h"

namespace hgdb::vpi {
namespace {

using waveform::IndexedWaveform;

const std::string kGoldenV4 =
    HGDB_TEST_DATA_DIR "/../waveform/fixtures/golden_v4.wvx";

/// Two scopes: `a` holds the clock, an 8-bit counter and a 100-bit bus;
/// `b` holds a flag whose first change is late and an alias of a.count.
std::string two_scope_vcd(size_t cycles) {
  std::string out =
      "$scope module a $end\n$var wire 1 ! clk $end\n"
      "$var wire 8 \" count $end\n$var wire 100 # bus $end\n$upscope $end\n"
      "$scope module b $end\n$var wire 1 $ late $end\n"
      "$var wire 8 \" count_alias $end\n$upscope $end\n"
      "$enddefinitions $end\n";
  std::mt19937_64 rng(5);
  for (size_t t = 0; t < cycles; ++t) {
    out += "#" + std::to_string(2 * t) + "\n0!\n";
    if (t == 0 || rng() % 3 == 0) {
      std::string bits = "b";
      for (int bit = 0; bit < 100; ++bit) bits += (rng() & 1) != 0 ? '1' : '0';
      out += bits + " #\n";
    }
    if (t == 0 || rng() % 2 == 0) {
      std::string bits = "b";
      const uint64_t value = rng() & 0xff;
      for (int bit = 7; bit >= 0; --bit) bits += ((value >> bit) & 1) ? '1' : '0';
      out += bits + " \"\n";
    }
    if (t >= 20 && rng() % 5 == 0) out += (rng() & 1) != 0 ? "1$\n" : "0$\n";
    out += "#" + std::to_string(2 * t + 1) + "\n1!\n";
  }
  return out;
}

/// A random walk over the times a debugger visits.
std::vector<uint64_t> walk(const IndexedWaveform& index,
                           const std::vector<uint64_t>& edges, uint64_t seed,
                           size_t steps) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> times;
  uint64_t t = 0;
  for (size_t i = 0; i < steps; ++i) {
    const size_t signal = rng() % index.signal_count();
    const auto& blocks = index.blocks(signal);
    switch (rng() % 7) {
      case 0: {  // step forward to the next edge
        auto it = std::upper_bound(edges.begin(), edges.end(), t);
        if (it != edges.end()) t = *it;
        break;
      }
      case 1: {  // step back to the previous edge
        auto it = std::lower_bound(edges.begin(), edges.end(), t);
        if (it != edges.begin()) t = *std::prev(it);
        break;
      }
      case 2:  // jump
        t = rng() % (index.max_time() + 1);
        break;
      case 3:  // before the stream's first change
        t = blocks.empty() || blocks.front().start_time == 0
                ? 0
                : rng() % blocks.front().start_time;
        break;
      case 4: {  // around a block boundary
        if (blocks.empty()) break;
        const auto& block = blocks[rng() % blocks.size()];
        const uint64_t at = (rng() & 1) != 0 ? block.start_time : block.end_time;
        t = at == 0 ? 0 : at - 1 + rng() % 3;
        break;
      }
      case 5:  // the end of history
        t = index.max_time();
        break;
      default:  // a small move either way
        t = t + 1 - std::min<uint64_t>(t, rng() % 3);
        break;
    }
    times.push_back(t);
  }
  return times;
}

/// Walks `backend` over `times` and checks every signal's view against
/// value_at on the same store.
void check_walk(ReplayBackend& backend, const IndexedWaveform& index,
                const std::vector<uint64_t>& times) {
  std::vector<uint64_t> handles;
  for (size_t i = 0; i < index.signal_count(); ++i) {
    const auto handle = backend.lookup_signal(index.signal(i).hier_name);
    ASSERT_TRUE(handle.has_value()) << index.signal(i).hier_name;
    handles.push_back(*handle);
  }
  std::vector<const common::BitVector*> views(handles.size());
  for (const uint64_t t : times) {
    backend.engine().set_time(t);
    ASSERT_TRUE(
        backend.get_value_views(handles.data(), handles.size(), views.data()));
    for (size_t i = 0; i < handles.size(); ++i) {
      ASSERT_NE(views[i], nullptr);
      ASSERT_EQ(*views[i], index.value_at(i, t))
          << index.signal(i).hier_name << " at " << t;
    }
  }
  // One cursor per canonical handle, each pinning at most one block.
  std::vector<uint64_t> distinct = handles;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_LE(backend.pinned_blocks(), distinct.size());
}

size_t max_blocks(const IndexedWaveform& index) {
  size_t most = 0;
  for (size_t i = 0; i < index.signal_count(); ++i) {
    most = std::max(most, index.blocks(i).size());
  }
  return most;
}

TEST(CursorOracle, GoldenV4MatchesValueAt) {
  auto index = std::make_shared<IndexedWaveform>(kGoldenV4, 2);
  ASSERT_GT(index->alias_count(), 0u);
  ASSERT_GT(max_blocks(*index), 1u);
  ReplayBackend backend{trace::ReplayEngine(index)};
  const auto edges = backend.engine().edges();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    check_walk(backend, *index, walk(*index, edges, seed, 300));
  }
}

class ShardedCursorOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = ::testing::TempDir() + "hgdb_cursor_oracle_" +
            std::to_string(::getpid());
    {
      std::ofstream out(stem_ + ".vcd");
      out << two_scope_vcd(300);
    }
    waveform::ShardedConvertOptions options;
    options.index.block_capacity = 16;
    shards_ = waveform::convert_vcd_to_sharded_index(
                  stem_ + ".vcd", stem_ + ".wvx", options)
                  .shards;
  }
  void TearDown() override {
    std::remove((stem_ + ".vcd").c_str());
    std::remove((stem_ + ".wvx").c_str());
    for (uint32_t k = 0; k < shards_; ++k) {
      std::remove((stem_ + ".shard" + std::to_string(k) + ".wvx").c_str());
    }
  }

  std::string stem_;
  uint32_t shards_ = 0;
};

TEST_F(ShardedCursorOracle, ShardedDumpMatchesValueAt) {
  auto index = std::make_shared<IndexedWaveform>(stem_ + ".wvx", 3);
  ASSERT_TRUE(index->sharded());
  ASSERT_EQ(index->alias_count(), 1u);
  const auto late = index->signal_index("b.late");
  ASSERT_TRUE(late.has_value());
  ASSERT_GT(index->blocks(*late).front().start_time, 0u);
  ReplayBackend backend{trace::ReplayEngine(index)};
  const auto edges = backend.engine().edges();
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    check_walk(backend, *index, walk(*index, edges, seed, 400));
  }
  // A dense forward sweep and a backward one: every step crosses into
  // the neighbouring interval, and every block boundary is visited.
  std::vector<uint64_t> sweep;
  for (uint64_t t = 0; t <= index->max_time() + 2; ++t) sweep.push_back(t);
  check_walk(backend, *index, sweep);
  std::reverse(sweep.begin(), sweep.end());
  check_walk(backend, *index, sweep);
}

TEST_F(ShardedCursorOracle, PinsFollowTheRetainedSet) {
  auto index = std::make_shared<IndexedWaveform>(stem_ + ".wvx", 3);
  ReplayBackend backend{trace::ReplayEngine(index)};
  backend.engine().set_time(index->max_time() / 2);
  std::vector<uint64_t> handles;
  for (const char* name : {"a.count", "a.bus", "b.late", "b.count_alias"}) {
    handles.push_back(*backend.lookup_signal(name));
  }
  // a.count and its alias share one handle, so one cursor.
  EXPECT_EQ(handles[0], handles[3]);
  // Copying reads keep the value_at path and create no cursor.
  std::vector<common::BitVector> copies(handles.size());
  std::vector<uint8_t> present(handles.size());
  backend.get_values(handles.data(), handles.size(), copies.data(),
                     present.data());
  EXPECT_EQ(backend.pinned_blocks(), 0u);

  std::vector<const common::BitVector*> views(handles.size());
  ASSERT_TRUE(
      backend.get_value_views(handles.data(), handles.size(), views.data()));
  for (size_t i = 0; i < handles.size(); ++i) EXPECT_EQ(*views[i], copies[i]);
  EXPECT_EQ(backend.pinned_blocks(), 3u);
  // The cursors hold their blocks whatever the 3-block cache evicts.
  for (size_t i = 0; i < index->signal_count(); ++i) {
    (void)index->value_at(i, 0);
  }
  EXPECT_EQ(backend.pinned_blocks(), 3u);
  EXPECT_LE(index->cache_stats().peak_resident, index->cache_capacity());

  backend.retain_views(handles.data(), 1);
  EXPECT_EQ(backend.pinned_blocks(), 1u);
  backend.retain_views(nullptr, 0);
  EXPECT_EQ(backend.pinned_blocks(), 0u);
}

TEST(CursorOracle, InMemoryTraceDeclinesViews) {
  const std::string path = ::testing::TempDir() + "hgdb_cursor_vcd_" +
                           std::to_string(::getpid()) + ".vcd";
  {
    std::ofstream out(path);
    out << two_scope_vcd(20);
  }
  ReplayBackend backend{trace::ReplayEngine(trace::parse_vcd_file(path))};
  std::remove(path.c_str());
  const uint64_t handle = *backend.lookup_signal("a.count");
  const common::BitVector* view = nullptr;
  EXPECT_FALSE(backend.get_value_views(&handle, 1, &view));
  EXPECT_EQ(backend.pinned_blocks(), 0u);
}

}  // namespace
}  // namespace hgdb::vpi
