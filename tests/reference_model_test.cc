// Property tests against independent reference models:
//   * DirTable  vs std::map<std::string, Inum>
//   * FileData  vs std::vector<std::byte>
// Randomized operation sequences must keep the implementation and the model
// in lockstep. Parameterized over seeds and (for DirTable) name-space sizes
// so the table is driven through its doublings to a range of sizes, with and
// without deferred reclamation.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/core/dir_table.h"
#include "src/core/file_data.h"
#include "src/core/inode.h"
#include "src/core/reclaimer.h"
#include "src/sim/executor.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

// The children's own tables never insert, so they never retire anything.
Reclaimer g_children;

std::unique_ptr<Inode> MakeInode(Inum ino) {
  return std::make_unique<Inode>(ino, FileType::kFile, Executor::Real().CreateLock(),
                                 g_children);
}

struct DirTableParams {
  uint64_t seed;
  uint32_t names;  // distinct names the sequence draws from
};

class DirTableFuzz : public ::testing::TestWithParam<DirTableParams> {};

TEST_P(DirTableFuzz, MatchesMapModel) {
  Rng rng(GetParam().seed);
  // Even seeds stay pinned throughout, so nothing the table retires is
  // freed before the end; odd seeds free as they go (a due scan after every
  // step, as an AtomFs runs one at the end of every op).
  Reclaimer reclaimer;
  const EpochPin pin(GetParam().seed % 2 == 0);
  DirTable table(reclaimer);
  std::map<std::string, Inum> model;
  Inum next = 100;
  for (int step = 0; step < 3000; ++step) {
    const std::string name = "k" + std::to_string(rng.Below(GetParam().names));
    switch (rng.Below(4)) {
      case 0: {  // insert
        const Inum ino = next++;
        const bool inserted = table.Insert(name, MakeInode(ino));
        const bool model_inserted = model.emplace(name, ino).second;
        ASSERT_EQ(inserted, model_inserted) << "step " << step;
        break;
      }
      case 1: {  // remove
        auto removed = table.Remove(name);
        auto it = model.find(name);
        if (it == model.end()) {
          ASSERT_EQ(removed, nullptr) << "step " << step;
        } else {
          ASSERT_NE(removed, nullptr) << "step " << step;
          ASSERT_EQ(removed->ino, it->second);
          model.erase(it);
        }
        break;
      }
      case 2: {  // find
        Inode* found = table.Find(name);
        auto it = model.find(name);
        if (it == model.end()) {
          ASSERT_EQ(found, nullptr) << "step " << step;
        } else {
          ASSERT_NE(found, nullptr) << "step " << step;
          ASSERT_EQ(found->ino, it->second);
        }
        break;
      }
      default: {  // size + full enumeration
        ASSERT_EQ(table.size(), model.size()) << "step " << step;
        std::map<std::string, Inum> seen;
        table.ForEach([&seen](const std::string& n, const Inode* child) {
          seen.emplace(n, child->ino);
        });
        ASSERT_EQ(seen, model) << "step " << step;
        break;
      }
    }
    reclaimer.ScanIfDue();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DirTableFuzz,
                         ::testing::Values(DirTableParams{1, 64}, DirTableParams{2, 64},
                                           DirTableParams{3, 2}, DirTableParams{4, 7},
                                           DirTableParams{5, 16}, DirTableParams{6, 64},
                                           DirTableParams{7, 257}, DirTableParams{8, 1024}));

class FileDataFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FileDataFuzz, MatchesVectorModel) {
  Rng rng(GetParam());
  FileData file;
  std::vector<std::byte> model;
  // Keep offsets within a few blocks so boundary cases are frequent.
  const uint64_t kMaxOff = 3 * kBlockSize;
  for (int step = 0; step < 1500; ++step) {
    switch (rng.Below(3)) {
      case 0: {  // write
        const uint64_t off = rng.Below(kMaxOff);
        std::vector<std::byte> data(rng.Between(1, 300));
        for (auto& b : data) {
          b = static_cast<std::byte>(rng.Below(256));
        }
        auto written = file.Write(off, data);
        ASSERT_TRUE(written.ok());
        if (off + data.size() > model.size()) {
          model.resize(off + data.size(), std::byte{0});
        }
        std::copy(data.begin(), data.end(), model.begin() + static_cast<ptrdiff_t>(off));
        break;
      }
      case 1: {  // read
        const uint64_t off = rng.Below(kMaxOff + 100);
        std::vector<std::byte> buf(rng.Between(1, 300));
        const size_t n = file.Read(off, buf);
        size_t expect = 0;
        if (off < model.size()) {
          expect = std::min(buf.size(), model.size() - static_cast<size_t>(off));
        }
        ASSERT_EQ(n, expect) << "step " << step;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(buf[i], model[off + i]) << "step " << step << " byte " << i;
        }
        break;
      }
      default: {  // truncate
        const uint64_t size = rng.Below(kMaxOff);
        ASSERT_TRUE(file.Truncate(size).ok());
        model.resize(size, std::byte{0});
        break;
      }
    }
    ASSERT_EQ(file.size(), model.size()) << "step " << step;
  }
  ASSERT_EQ(file.ToBytes(), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileDataFuzz, ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace atomfs
