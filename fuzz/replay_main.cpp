// Corpus-replay driver for the fuzz harnesses.
//
// The build image carries gcc only, so the default fuzz build has no
// libFuzzer runtime. Instead each harness links this main(), which feeds
// every file (or every file in every directory) named on the command line
// through LLVMFuzzerTestOneInput — exactly what `./fuzz_json corpus/json`
// under libFuzzer would replay, minus the mutation engine. This makes the
// committed corpora a deterministic regression suite runnable under ctest
// and any sanitizer.
//
// Configure with -DDLION_FUZZ=ON (requires clang) to link libFuzzer
// instead and actually explore.
#ifndef DLION_FUZZ_LIBFUZZER

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

int run_one(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  // A crash/abort inside the harness terminates the process with the
  // offending file already announced, so failures are attributable.
  std::fprintf(stderr, "[replay] %s (%zu bytes)\n", path.string().c_str(),
               bytes.size());
  return LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-file-or-dir>...\n", argv[0]);
    return 2;
  }
  std::size_t executed = 0;
  for (int i = 1; i < argc; ++i) {
    const fs::path target(argv[i]);
    std::error_code ec;
    if (fs::is_directory(target, ec)) {
      // Sorted order: the replay itself is deterministic.
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(target, ec)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const fs::path& f : files) {
        run_one(f);
        ++executed;
      }
    } else if (fs::is_regular_file(target, ec)) {
      run_one(target);
      ++executed;
    } else {
      std::fprintf(stderr, "replay: no such file or directory: %s\n", argv[i]);
      return 2;
    }
  }
  std::printf("replay: %zu input(s), no crashes\n", executed);
  return 0;
}

#endif  // !DLION_FUZZ_LIBFUZZER
