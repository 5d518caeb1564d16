// Persistent brick-store robustness: serialization round-trips, the
// content-address contract, and — via fs::FaultFs — every failure mode in
// the store's degradation policy. Each injected fault must end in a
// classified graceful outcome (recompile / quarantine / memory-only),
// never a crash, a hang, or a wrong result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "brick/cache.hpp"
#include "brick/library_gen.hpp"
#include "brick/serialize.hpp"
#include "brick/store.hpp"
#include "tech/process.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"

namespace limsynth::brick {
namespace {

std::string temp_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

CompiledBrick make_compiled(int words = 16, int bits = 8) {
  const tech::Process process = tech::default_process();
  BrickSpec spec;
  spec.words = words;
  spec.bits = bits;
  CompiledBrick cb;
  cb.brick = compile_brick(spec, process);
  cb.estimate = estimate_brick(cb.brick);
  cb.libcell = make_brick_libcell(cb.brick);
  return cb;
}

std::string fingerprint_of(const CompiledBrick& cb) {
  return brick_fingerprint(cb.brick.spec, cb.brick.process);
}

std::string encoded(const CompiledBrick& cb) {
  std::string out;
  encode_compiled_brick(cb, &out);
  return out;
}

/// Names in `dir`/quarantine, sorted, for asserting the reason suffix.
std::vector<std::string> quarantine_names(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;  // a missing quarantine dir lists as empty
  for (const auto& e :
       std::filesystem::directory_iterator(dir + "/quarantine", ec))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Serialize, RoundTripIsBitExact) {
  const CompiledBrick cb = make_compiled();
  const std::string bytes = encoded(cb);
  ASSERT_FALSE(bytes.empty());

  CompiledBrick back;
  ASSERT_TRUE(decode_compiled_brick(bytes, &back));
  // Doubles travel as raw IEEE-754 bits, so re-encoding the decoded value
  // must reproduce the exact original bytes — the strongest round-trip
  // statement without enumerating every field.
  EXPECT_EQ(encoded(back), bytes);
  // Spot checks on fields downstream stages actually consume.
  EXPECT_EQ(back.brick.spec.words, cb.brick.spec.words);
  EXPECT_EQ(back.brick.process.name, cb.brick.process.name);
  EXPECT_EQ(back.estimate.read_delay, cb.estimate.read_delay);
  EXPECT_EQ(back.estimate.bank_area, cb.estimate.bank_area);
  EXPECT_EQ(back.libcell.name, cb.libcell.name);
}

TEST(Serialize, RejectsTruncationCorruptionAndTrailingGarbage) {
  const CompiledBrick cb = make_compiled();
  const std::string bytes = encoded(cb);

  CompiledBrick sink;
  EXPECT_FALSE(decode_compiled_brick(std::string(), &sink));
  // Every strict prefix must be rejected, not misread. Stepping keeps the
  // loop fast while still hitting every region of the layout.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 97)
    EXPECT_FALSE(decode_compiled_brick(bytes.substr(0, cut), &sink))
        << "prefix of " << cut << " bytes decoded";
  EXPECT_FALSE(decode_compiled_brick(bytes + '\0', &sink));
}

TEST(Store, EntryNameFoldsSchemaVersionIntoTheAddress) {
  const std::string fp = "bitcell=sram8t;words=16;bits=8";
  const std::string expected =
      jsonl::to_hex(jsonl::fnv1a(
          fp + ";schema=" + std::to_string(kBrickSchemaVersion))) +
      ".brick";
  EXPECT_EQ(BrickStore::entry_name(fp), expected);
  // Distinct fingerprints get distinct entries.
  EXPECT_NE(BrickStore::entry_name(fp), BrickStore::entry_name(fp + "x"));
}

TEST(Store, SaveThenLoadAcrossStoreInstances) {
  const std::string dir = temp_dir("store_roundtrip");
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  {
    BrickStore store({dir});
    EXPECT_TRUE(store.usable());
    EXPECT_TRUE(store.save(fp, cb));
    EXPECT_EQ(store.stats().saves, 1u);
  }
  // A fresh instance (a new process, in production) sees the entry.
  BrickStore reader({dir});
  const auto loaded = reader.load(fp);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(encoded(*loaded), encoded(cb));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.load("no=such;brick"), nullptr);
  EXPECT_EQ(reader.stats().disk_misses, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Store, TornWriteIsCaughtByCrcAndQuarantined) {
  const std::string dir = temp_dir("store_torn");
  fs::FaultFs faulty(fs::Fs::real());
  BrickStore store({dir}, faulty);
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);

  // The disk lies: save() reports success but persists half the entry.
  faulty.torn_write_bytes = 100;
  EXPECT_TRUE(store.save(fp, cb));
  EXPECT_EQ(store.load(fp), nullptr);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.disk_misses, 1u);
  const auto names = quarantine_names(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("truncated"), std::string::npos) << names[0];

  // The name is free again: a clean rewrite fully recovers.
  EXPECT_TRUE(store.save(fp, cb));
  EXPECT_NE(store.load(fp), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Store, BitRotIsCaughtByCrcAndQuarantined) {
  const std::string dir = temp_dir("store_bitrot");
  fs::FaultFs faulty(fs::Fs::real());
  BrickStore store({dir}, faulty);
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  ASSERT_TRUE(store.save(fp, cb));

  // Flip one payload bit on the next read (past the 28-byte header).
  faulty.corrupt_read_bit = 28 * 8 + 123;
  EXPECT_EQ(store.load(fp), nullptr);
  EXPECT_EQ(store.stats().quarantined, 1u);
  const auto names = quarantine_names(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("crc-mismatch"), std::string::npos) << names[0];
  std::filesystem::remove_all(dir);
}

TEST(Store, TruncatedReadQuarantines) {
  const std::string dir = temp_dir("store_truncated");
  fs::FaultFs faulty(fs::Fs::real());
  BrickStore store({dir}, faulty);
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  ASSERT_TRUE(store.save(fp, cb));

  faulty.truncate_read_to = 10;  // shorter than the header
  EXPECT_EQ(store.load(fp), nullptr);
  ASSERT_TRUE(store.save(fp, cb));  // quarantining freed the name
  faulty.truncate_read_to = 200;  // header intact, payload cut short
  EXPECT_EQ(store.load(fp), nullptr);
  EXPECT_EQ(store.stats().quarantined, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Store, VersionMismatchedEntryQuarantinesWithoutDecoding) {
  const std::string dir = temp_dir("store_version");
  BrickStore store({dir});
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  ASSERT_TRUE(store.save(fp, cb));

  // Rewrite the entry's header version in place — the state a future
  // schema bump would leave behind if the name didn't already diverge
  // (the header check is the belt-and-braces second guard).
  const std::string path = dir + "/" + BrickStore::entry_name(fp);
  std::string blob;
  ASSERT_TRUE(fs::Fs::real().read_file(path, &blob).ok());
  const std::uint32_t bumped = kBrickSchemaVersion + 1;
  std::memcpy(&blob[8], &bumped, 4);
  ASSERT_TRUE(fs::Fs::real().write_file_atomic(path, blob).ok());

  EXPECT_EQ(store.load(fp), nullptr);
  const auto names = quarantine_names(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("version-mismatch"), std::string::npos) << names[0];
  std::filesystem::remove_all(dir);
}

TEST(Store, ForeignFingerprintQuarantinesAsMismatch) {
  const std::string dir = temp_dir("store_foreign");
  BrickStore store({dir});
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  ASSERT_TRUE(store.save(fp, cb));

  // Plant the valid entry under a DIFFERENT fingerprint's name: a 64-bit
  // collision (or a mixed-up file). The full-fingerprint check inside the
  // payload must refuse it even though every checksum passes.
  const std::string other = fp + ";impostor";
  std::string blob;
  ASSERT_TRUE(
      fs::Fs::real().read_file(dir + "/" + BrickStore::entry_name(fp), &blob)
          .ok());
  ASSERT_TRUE(fs::Fs::real()
                  .write_file_atomic(dir + "/" + BrickStore::entry_name(other),
                                     blob)
                  .ok());
  EXPECT_EQ(store.load(other), nullptr);
  const auto names = quarantine_names(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("fingerprint-mismatch"), std::string::npos)
      << names[0];
  // The original entry is untouched.
  EXPECT_NE(store.load(fp), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Store, UndecodablePayloadWithValidCrcQuarantines) {
  const std::string dir = temp_dir("store_undecodable");
  BrickStore store({dir});
  const std::string fp = "bitcell=sram8t;words=4;bits=4";

  // Hand-build an entry whose header and CRC are perfectly valid but
  // whose body is garbage — only the codec's own bounds checks catch it.
  std::string payload;
  const auto fp_len = static_cast<std::uint32_t>(fp.size());
  payload.append(reinterpret_cast<const char*>(&fp_len), 4);
  payload += fp;
  payload += "not a compiled brick";
  std::string blob("LIMBRKS\n", 8);
  const std::uint32_t version = kBrickSchemaVersion;
  const std::uint64_t size = payload.size();
  const std::uint64_t crc = fs::crc64(payload);
  blob.append(reinterpret_cast<const char*>(&version), 4);
  blob.append(reinterpret_cast<const char*>(&size), 8);
  blob.append(reinterpret_cast<const char*>(&crc), 8);
  blob += payload;
  ASSERT_TRUE(fs::Fs::real()
                  .write_file_atomic(dir + "/" + BrickStore::entry_name(fp),
                                     blob)
                  .ok());

  EXPECT_EQ(store.load(fp), nullptr);
  const auto names = quarantine_names(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("undecodable"), std::string::npos) << names[0];
  std::filesystem::remove_all(dir);
}

TEST(Store, EnospcRetriesThenDisablesWritesButKeepsReads) {
  const std::string dir = temp_dir("store_enospc");
  fs::FaultFs faulty(fs::Fs::real());
  StoreOptions opt{dir};
  opt.max_write_retries = 1;
  opt.retry_backoff_s = 0.0;  // keep the test instant
  opt.max_write_failures = 2;
  BrickStore store(opt, faulty);
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  ASSERT_TRUE(store.save(fp, cb));  // a good entry lands before the disk fills

  // Disk full: each save burns its retry budget (2 attempts), fails, and
  // after max_write_failures hard failures the store stops writing.
  faulty.fail_writes_nospace = 1000;
  EXPECT_FALSE(store.save(fp + ";b", cb));
  EXPECT_FALSE(store.save(fp + ";c", cb));
  StoreStats stats = store.stats();
  EXPECT_EQ(stats.save_failures, 2u);
  EXPECT_TRUE(stats.writes_disabled);

  // Disabled writes are silent no-ops (no retry storm)...
  const std::uint64_t writes_before = faulty.writes;
  EXPECT_FALSE(store.save(fp + ";d", cb));
  EXPECT_EQ(faulty.writes, writes_before);
  // ...but reads keep working: degraded, not dead.
  EXPECT_NE(store.load(fp), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Store, UncreatableDirFallsBackToMemoryOnly) {
  fs::FaultFs faulty(fs::Fs::real());
  faulty.fail_mkdirs = true;
  BrickStore store({temp_dir("store_never_created")}, faulty);
  EXPECT_FALSE(store.usable());
  EXPECT_TRUE(store.stats().disabled);

  // Every operation is a graceful no-op.
  const CompiledBrick cb = make_compiled();
  EXPECT_FALSE(store.save(fingerprint_of(cb), cb));
  EXPECT_EQ(store.load(fingerprint_of(cb)), nullptr);
  EXPECT_EQ(faulty.reads, 0u);
  EXPECT_EQ(faulty.writes, 0u);
}

TEST(Store, ExistingReadOnlyDirServesReadsDropsWrites) {
  // Populate a store, then reopen it through an Fs whose mkdir fails —
  // the "read-only mount" shape: the dir exists but cannot be written.
  const std::string dir = temp_dir("store_readonly");
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);
  {
    BrickStore writer({dir});
    ASSERT_TRUE(writer.save(fp, cb));
  }
  fs::FaultFs faulty(fs::Fs::real());
  faulty.fail_mkdirs = true;
  BrickStore store({dir}, faulty);
  EXPECT_TRUE(store.usable());
  EXPECT_TRUE(store.stats().writes_disabled);
  EXPECT_FALSE(store.stats().disabled);
  EXPECT_NE(store.load(fp), nullptr);        // reads still served
  EXPECT_FALSE(store.save(fp + ";x", cb));   // writes silently dropped
  EXPECT_EQ(store.stats().save_failures, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Store, RacingWriterSkipsViaLockAndViaExistingEntry) {
  const std::string dir = temp_dir("store_race");
  fs::FaultFs faulty(fs::Fs::real());
  BrickStore store({dir}, faulty);
  const CompiledBrick cb = make_compiled();
  const std::string fp = fingerprint_of(cb);

  // Another process holds the entry lock: we skip, it will publish the
  // identical bytes (first-rename-wins converges).
  faulty.fail_locks_busy = 1;
  EXPECT_FALSE(store.save(fp, cb));
  EXPECT_EQ(store.stats().save_skipped, 1u);
  EXPECT_EQ(store.stats().save_failures, 0u);

  // The racer finished before we even locked: save() is satisfied by the
  // existing entry and reports success without writing.
  ASSERT_TRUE(store.save(fp, cb));
  const std::uint64_t writes_before = faulty.writes;
  EXPECT_TRUE(store.save(fp, cb));
  EXPECT_EQ(faulty.writes, writes_before);
  EXPECT_EQ(store.stats().save_skipped, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Store, CacheIntegrationServesColdProcessFromWarmDisk) {
  const std::string dir = temp_dir("store_cache");
  BrickCache cache;  // private instance: the global one is shared state
  cache.attach_store(std::make_shared<BrickStore>(StoreOptions{dir}));
  const tech::Process process = tech::default_process();
  BrickSpec spec;
  spec.words = 32;
  spec.bits = 8;

  const auto first = cache.get(spec, process);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.store()->stats().saves, 1u);
  EXPECT_EQ(cache.store()->stats().disk_hits, 0u);

  // "Restart": drop memory, keep the disk. The next get deserializes
  // instead of compiling, and the result is bit-identical.
  cache.clear();
  const auto second = cache.get(spec, process);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(cache.store()->stats().disk_hits, 1u);
  EXPECT_EQ(cache.misses(), 1u);  // the one miss was served from disk
  EXPECT_EQ(encoded(*second), encoded(*first));
  // Memory tier is warm again: a third get touches neither disk nor
  // compiler.
  cache.get(spec, process);
  EXPECT_EQ(cache.hits(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace limsynth::brick
