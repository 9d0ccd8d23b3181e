// A journal path in the temp directory for tests. The live WAL and every
// sidecar a journal at that path can own (src/journal/checkpoint.h) are
// removed on construction and on destruction, so a test that recovers
// through RecoverJournal never picks up a checkpoint or a previous WAL
// generation left behind by an earlier aborted run.

#ifndef ATOMFS_TESTS_TEMP_JOURNAL_H_
#define ATOMFS_TESTS_TEMP_JOURNAL_H_

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "src/journal/checkpoint.h"

namespace atomfs {

class TempJournal {
 public:
  explicit TempJournal(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    RemoveAll();
  }
  ~TempJournal() { RemoveAll(); }
  TempJournal(const TempJournal&) = delete;
  TempJournal& operator=(const TempJournal&) = delete;

  const std::string& path() const { return path_; }

  // The live WAL's bytes (empty if it does not exist).
  std::string Contents() const { return ReadFile(path_); }
  // Cuts the live WAL down to its first `bytes` bytes: the file a crash
  // mid-append leaves behind. Sweeps over growing cut points rewrite the
  // file from the saved full log with WriteFile instead.
  void Truncate(size_t bytes) const { WriteFile(path_, Contents().substr(0, bytes)); }

  static std::string ReadFile(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

 private:
  void RemoveAll() const {
    for (const std::string& p :
         {path_, PrevWalPath(path_), CheckpointPath(path_), PrevCheckpointPath(path_),
          TmpCheckpointPath(path_)}) {
      std::remove(p.c_str());
    }
  }

  std::string path_;
};

}  // namespace atomfs

#endif  // ATOMFS_TESTS_TEMP_JOURNAL_H_
