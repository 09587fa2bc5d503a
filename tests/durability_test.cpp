// The durability points of the persistent backends.
//
// Every store mutation writes through to the medium before it returns, so
// the only deferred step is the msync/fsync that makes the page cache
// durable against an OS crash.  What is certified here:
//  * dirty-flag skip — flush() with nothing written issues no syscall
//    (regression for the fsyncs()/msyncs() counters);
//  * flush error paths — an injected fsync/msync failure surfaces as
//    util::IoError with mirror and medium still coherent;
//  * compaction error path — the fsync of a log compaction's rewrite goes
//    through the same seam, and its failure leaves the live log untouched
//    and no path.tmp behind;
//  * compaction durability — the flush() after a compaction fsyncs the log's
//    directory too, and retries it when that fsync fails.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>

#include "ckpt/checkpoint_store.hpp"
#include "ckpt/log_backend.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/storage_backend.hpp"
#include "helpers.hpp"
#include "util/mapped_file.hpp"

namespace rdtgc {
namespace {

using ckpt::CheckpointStore;
using ckpt::LogStructuredBackend;
using ckpt::MmapFileBackend;
using ckpt::OpenMode;
using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using test::ScratchDir;

// ---- Dirty-flag flush skip (regression) -----------------------------------

TEST(DirtyFlag, LogFlushSkipsFsyncWhenClean) {
  ScratchDir dir("dirty_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  LogStructuredBackend log(0, config.file(0), OpenMode::kFresh, 64,
                           0.5);
  causality::DependencyVector dv(4);

  log.put(0, dv, 0, 1);
  log.flush();
  const std::uint64_t after_first = log.fsyncs();
  EXPECT_GE(after_first, 1u);

  log.flush();  // nothing written since: no syscall
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first);

  log.collect(0);  // any mutation re-arms the flag
  log.flush();
  EXPECT_EQ(log.fsyncs(), after_first + 1);
}

TEST(DirtyFlag, MmapFlushSkipsMsyncWhenClean) {
  ScratchDir dir("dirty_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  MmapFileBackend mmap(0, config.file(0), OpenMode::kFresh, 4);
  causality::DependencyVector dv(4);

  mmap.put(0, dv, 0, 1);
  mmap.flush();
  const std::uint64_t after_first = mmap.msyncs();
  EXPECT_GE(after_first, 1u);

  mmap.flush();  // segment unchanged and already marked clean: no msync
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first);

  mmap.collect(0);
  mmap.flush();
  EXPECT_EQ(mmap.msyncs(), after_first + 1);
}

// ---- Injected flush failures ----------------------------------------------

TEST(FlushErrors, LogFsyncFailureSurfacesAsIoErrorAndKeepsStateCoherent) {
  ScratchDir dir("err_log");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  const std::string path = config.file(0);
  {
    LogStructuredBackend log(0, path, OpenMode::kFresh, 64, 0.5);
    causality::DependencyVector dv(4);
    log.put(0, dv, 0, 1);

    util::set_io_fsync_for_test(+[](int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(log.flush(), util::IoError);
    util::set_io_fsync_for_test(nullptr);

    // The mirror is untouched and the log stays dirty: the retry issues a
    // real fsync and succeeds.
    EXPECT_EQ(log.count(), 1u);
    EXPECT_TRUE(log.contains(0));
    const std::uint64_t before_retry = log.fsyncs();
    log.flush();
    EXPECT_EQ(log.fsyncs(), before_retry + 1);
  }
  LogStructuredBackend reopened(0, path, OpenMode::kAttach, 64, 0.5);
  ASSERT_EQ(reopened.recover(), 1u);
  EXPECT_TRUE(reopened.contains(0));
}

TEST(FlushErrors, MmapMsyncFailureSurfacesAsIoErrorAndRollsTheCleanFlagBack) {
  ScratchDir dir("err_mmap");
  StorageConfig config;
  config.kind = StorageBackendKind::kMmapFile;
  config.directory = dir.path();
  const std::string path = config.file(0);
  {
    MmapFileBackend mmap(0, path, OpenMode::kFresh, 4);
    causality::DependencyVector dv(4);
    mmap.put(0, dv, 0, 1);

    util::set_io_msync_for_test(+[](void*, std::size_t, int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(mmap.flush(), util::IoError);
    util::set_io_msync_for_test(nullptr);
    EXPECT_EQ(mmap.count(), 1u);  // mirror coherent after the failure
  }
  {
    // The failed flush must NOT have left a clean flag the medium never
    // got: the reopen sees an unclean segment (contents still recover —
    // the page cache survived this in-process "crash").
    MmapFileBackend reopened(0, path, OpenMode::kAttach, 4);
    ASSERT_EQ(reopened.recover(), 1u);
    EXPECT_FALSE(reopened.recovered_clean());
    reopened.flush();
  }
  MmapFileBackend clean(0, path, OpenMode::kAttach, 4);
  ASSERT_EQ(clean.recover(), 1u);
  EXPECT_TRUE(clean.recovered_clean());
}

/// Compaction rewrites the live set into path.tmp, fsyncs it and renames it
/// over the log.  When that fsync fails, the collect that triggered the
/// compaction throws IoError before the rename: the live log stays the
/// uncompacted one, already holding that collect's record, so a reattach
/// replays it to the reference state — and the next compaction succeeds.
TEST(FlushErrors, LogCompactionFsyncFailureLeavesTheLiveLogUntouched) {
  ScratchDir dir("err_compact");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  const std::string path = config.file(0);
  constexpr std::size_t kMinRecords = 8;
  CheckpointStore reference(0);
  {
    LogStructuredBackend log(0, path, OpenMode::kFresh, kMinRecords, 0.5);
    causality::DependencyVector dv(4);
    for (CheckpointIndex g = 0; g < 6; ++g) {
      dv.at(0) = g;
      log.put(g, dv, g, 1);
      reference.put(g, dv, g, 1);
    }
    log.collect(0);  // 7 records, 5 live: below the compaction trigger
    reference.collect(0);
    ASSERT_EQ(log.compactions(), 0u);
    struct stat before {};
    ASSERT_EQ(::stat(path.c_str(), &before), 0);

    // 8 records, 4 live: this collect compacts, and its fsync fails.
    util::set_io_fsync_for_test(+[](int) {
      errno = EIO;
      return -1;
    });
    EXPECT_THROW(log.collect(1), util::IoError);
    util::set_io_fsync_for_test(nullptr);
    reference.collect(1);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "the failed rewrite was left behind";
    // The collect was applied before the compaction threw: retrying it
    // would be a contract violation, not a recovery.
    EXPECT_FALSE(log.contains(1));

    struct stat after {};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino) << "the rewrite was renamed in";
    EXPECT_EQ(log.compactions(), 0u);
    EXPECT_EQ(log.baseline_records(), 0u);
    EXPECT_EQ(log.log_records(), 8u);
    test::expect_stores_equal(reference, log);
  }
  LogStructuredBackend reopened(0, path, OpenMode::kAttach, kMinRecords, 0.5);
  ASSERT_EQ(reopened.recover(), reference.count());
  EXPECT_EQ(reopened.log_records(), 8u);
  test::expect_stores_equal(reference, reopened);

  reopened.collect(2);  // 9 records, 3 live: compacts, fault cleared
  reference.collect(2);
  EXPECT_EQ(reopened.compactions(), 1u);
  test::expect_stores_equal(reference, reopened);
}

/// Seam that counts every fsync, tells directory fsyncs apart, and fails
/// the directory ones on demand.
struct FsyncProbe {
  static inline int calls = 0;
  static inline int dir_calls = 0;
  static inline bool fail_dir = false;

  static int fsync(int fd) {
    ++calls;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode)) {
      ++dir_calls;
      if (fail_dir) {
        errno = EIO;
        return -1;
      }
    }
    return ::fsync(fd);
  }
  static void reset() { calls = dir_calls = 0; }

  FsyncProbe() {
    reset();
    fail_dir = false;
    util::set_io_fsync_for_test(&FsyncProbe::fsync);
  }
  ~FsyncProbe() { util::set_io_fsync_for_test(nullptr); }
};

/// A compaction renames its rewrite over the log; the next flush() must make
/// that rename durable by fsyncing the directory after the file, and a
/// failed directory fsync must stay pending until a later flush() succeeds.
TEST(FlushErrors, LogFlushAfterCompactionFsyncsTheDirectoryAndRetriesIt) {
  ScratchDir dir("flush_dir");
  StorageConfig config;
  config.kind = StorageBackendKind::kLogStructured;
  config.directory = dir.path();
  LogStructuredBackend log(0, config.file(0), OpenMode::kFresh, 8, 0.5);
  causality::DependencyVector dv(4);
  for (CheckpointIndex g = 0; g < 6; ++g) {
    dv.at(0) = g;
    log.put(g, dv, g, 1);
  }
  log.collect(0);
  log.flush();

  FsyncProbe probe;
  log.collect(1);  // 8 records, 4 live: compacts
  ASSERT_EQ(log.compactions(), 1u);
  EXPECT_EQ(FsyncProbe::calls, 1) << "the rewrite's fsync";
  EXPECT_EQ(FsyncProbe::dir_calls, 0);

  FsyncProbe::reset();
  const std::uint64_t before = log.fsyncs();
  log.flush();
  EXPECT_EQ(FsyncProbe::calls, 2) << "one for the file, one for the directory";
  EXPECT_EQ(FsyncProbe::dir_calls, 1);
  EXPECT_EQ(log.fsyncs(), before + 2);
  FsyncProbe::reset();
  log.flush();  // nothing left to make durable
  EXPECT_EQ(FsyncProbe::calls, 0);

  // 4 live + 2 puts + 2 collects = 8 records, 4 live: compacts again.
  for (CheckpointIndex g = 6; g < 8; ++g) {
    dv.at(0) = g;
    log.put(g, dv, g, 1);
  }
  log.collect(2);
  log.collect(3);
  ASSERT_EQ(log.compactions(), 2u);
  FsyncProbe::fail_dir = true;
  FsyncProbe::reset();
  EXPECT_THROW(log.flush(), util::IoError);
  EXPECT_EQ(FsyncProbe::calls, 2);
  EXPECT_EQ(FsyncProbe::dir_calls, 1);

  FsyncProbe::fail_dir = false;
  FsyncProbe::reset();
  log.flush();  // the file is clean; only the directory fsync is retried
  EXPECT_EQ(FsyncProbe::calls, 1);
  EXPECT_EQ(FsyncProbe::dir_calls, 1);
  FsyncProbe::reset();
  log.flush();
  EXPECT_EQ(FsyncProbe::calls, 0);
}

}  // namespace
}  // namespace rdtgc
