//===- TempPath.h - Scratch directories that tests remove -------*- C++ -*-===//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fresh, empty directory /tmp/parrec-<name>-<pid>, removed with
/// everything in it when the TempPath is destroyed: when the test that
/// declares it ends, or, for a function-local static one (a per-process
/// JIT cache), when the process exits. Suites put their JIT caches and
/// exported files inside one, so a run leaves no /tmp/parrec-* behind.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_TESTS_TEMPPATH_H
#define PARREC_TESTS_TEMPPATH_H

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace parrec {

class TempPath {
public:
  explicit TempPath(const std::string &Name)
      : Path("/tmp/parrec-" + Name + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempPath() {
    std::error_code Ignored; // A destructor must not throw.
    std::filesystem::remove_all(Path, Ignored);
  }

  TempPath(const TempPath &) = delete;
  TempPath &operator=(const TempPath &) = delete;

  const std::string &str() const { return Path; }

private:
  std::string Path;
};

} // namespace parrec

#endif // PARREC_TESTS_TEMPPATH_H
