// Ablation: directory size vs. lookup rate (DESIGN.md design knob).
// AtomFS stores directory entries in a hash table of chained buckets that
// doubles whenever the entries outnumber the buckets, so a lookup inspects
// about one entry however large the directory grows. Measures
// single-threaded stat throughput in one directory of 64 to 16,384 entries
// (real time, real executor); the rate should stay flat.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/atom_fs.h"
#include "src/util/rand.h"
#include "src/util/stats.h"

int main() {
  using namespace atomfs;
  constexpr int kLookups = 200000;

  std::printf("Ablation: directory size, %d stat lookups per size\n\n", kLookups);
  std::printf("%10s %16s %14s\n", "entries", "lookups/sec", "vs 64 entries");
  double base = 0;
  for (int files : {64, 256, 1024, 4096, 16384}) {
    AtomFs fs;
    fs.Mkdir("/big");
    for (int i = 0; i < files; ++i) {
      fs.Mknod("/big/f" + std::to_string(i));
    }
    Rng rng(7);
    // Pre-generate paths so string formatting stays out of the timed loop.
    std::vector<std::string> paths;
    paths.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      paths.push_back("/big/f" + std::to_string(rng.Below(files)));
    }
    WallTimer timer;
    for (int i = 0; i < kLookups; ++i) {
      auto attr = fs.Stat(paths[static_cast<size_t>(i) & 1023]);
      if (!attr.ok()) {
        std::fprintf(stderr, "lookup failed\n");
        return 1;
      }
    }
    const double rate = kLookups / timer.ElapsedSeconds();
    if (files == 64) {
      base = rate;
    }
    std::printf("%10d %16.0f %13.2fx\n", files, rate, rate / base);
  }
  std::printf("\nExpected shape: flat. With a fixed bucket count the rate would fall as\n");
  std::printf("chains lengthen; the growing table keeps every chain about one entry long.\n");
  return 0;
}
