#include "campaign/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <tuple>

#include "campaign/jsonval.h"

namespace avd::campaign {

namespace {

using namespace jsonl;

/// fsyncs the directory that contains `path`, making a completed rename
/// inside it durable. Until the directory's entry array is on disk the
/// rename exists only in the page cache: the file's bytes are durable but
/// the name pointing at them is not, and a power loss can roll the
/// directory back to the old entry — or to neither.
bool fsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  return synced && closed;
}

[[nodiscard]] std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

}  // namespace

bool writeFileAtomicDurable(const std::string& path,
                            const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  const char* at = contents.data();
  std::size_t left = contents.size();
  bool wroteAll = true;
  while (left > 0) {
    const ssize_t wrote = ::write(fd, at, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      wroteAll = false;
      break;
    }
    at += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  const bool synced = wroteAll && ::fsync(fd) == 0;
  // close() can surface a deferred write error; on the durable path an
  // unclean close means the bytes' fate is unknown, which is a failure.
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    ::unlink(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    return false;
  }
  return fsyncParentDir(path);
}

// --- events -----------------------------------------------------------------

std::string outcomeDefect(const core::Outcome& outcome) {
  // An impact outside [0, 1] (NaN included) would become the controller's
  // maximum impact and pin every later mutation distance at 1.
  constexpr double kFinite = std::numeric_limits<double>::max();
  const std::tuple<std::string_view, double, double> ranges[] = {
      {"impact", outcome.impact, 1.0},
      {"throughputRps", outcome.throughputRps, kFinite},
      {"avgLatencySec", outcome.avgLatencySec, kFinite},
      {"recoveryLatencySec", outcome.recoveryLatencySec, kFinite},
  };
  for (const auto& [key, value, most] : ranges) {
    if (value >= 0.0 && value <= most) continue;
    char text[32];
    const char* end = std::to_chars(text, text + sizeof(text), value).ptr;
    std::string defect(key);
    defect += ' ';
    defect += std::string_view(text, static_cast<std::size_t>(end - text));
    defect += most == 1.0 ? " outside [0, 1]" : " outside [0, inf)";
    return defect;
  }
  return {};
}

std::string encodeGen(const GenEvent& event) {
  std::string out = "{\"event\":\"gen\",";
  appendKey(out, "test");
  out += std::to_string(event.test);
  out += ',';
  appendKey(out, "point");
  out += '[';
  for (std::size_t i = 0; i < event.point.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(event.point[i]);
  }
  out += "],";
  appendKey(out, "generatedBy");
  appendEscaped(out, event.generatedBy);
  out += ',';
  appendKey(out, "parentImpact");
  appendDouble(out, event.parentImpact);
  out += ',';
  appendKey(out, "pluginIndex");
  out += std::to_string(event.pluginIndex);
  out += '}';
  return out;
}

std::string encodeDone(const DoneEvent& event) {
  std::string out = "{\"event\":\"done\",";
  appendKey(out, "test");
  out += std::to_string(event.test);
  out += ',';
  appendKey(out, "impact");
  appendDouble(out, event.outcome.impact);
  out += ',';
  appendKey(out, "bestImpact");
  appendDouble(out, event.bestImpact);
  out += ',';
  appendKey(out, "throughputRps");
  appendDouble(out, event.outcome.throughputRps);
  out += ',';
  appendKey(out, "avgLatencySec");
  appendDouble(out, event.outcome.avgLatencySec);
  out += ',';
  appendKey(out, "viewChanges");
  out += std::to_string(event.outcome.viewChanges);
  out += ',';
  appendKey(out, "restarts");
  out += std::to_string(event.outcome.restarts);
  out += ',';
  appendKey(out, "recoveryLatencySec");
  appendDouble(out, event.outcome.recoveryLatencySec);
  out += ',';
  appendKey(out, "queueDrops");
  out += std::to_string(event.outcome.queueDrops);
  out += ',';
  appendKey(out, "quotaDrops");
  out += std::to_string(event.outcome.quotaDrops);
  out += ',';
  appendKey(out, "safetyViolated");
  appendBool(out, event.outcome.safetyViolated);
  out += ',';
  // Only emitted when set: every line without a witness keeps the exact
  // pre-twins byte format, so resumed pre-twins journals re-encode
  // byte-identically.
  if (!event.outcome.safetyWitness.empty()) {
    appendKey(out, "safetyWitness");
    appendEscaped(out, event.outcome.safetyWitness);
    out += ',';
  }
  appendKey(out, "failed");
  appendBool(out, event.failed);
  out += ',';
  appendKey(out, "timedOut");
  appendBool(out, event.timedOut);
  out += ',';
  appendKey(out, "error");
  appendEscaped(out, event.error);
  out += '}';
  return out;
}

[[nodiscard]] std::optional<JournalEvent> decodeLine(std::string_view line) {
  const auto event = getString(line, "event");
  if (!event) return std::nullopt;

  if (*event == "gen") {
    GenEvent gen;
    const auto test = getU64(line, "test");
    const auto point = getPoint(line, "point");
    const auto generatedBy = getString(line, "generatedBy");
    const auto parentImpact = getDouble(line, "parentImpact");
    const auto pluginIndex = getI64(line, "pluginIndex");
    if (!test || !point || !generatedBy || !parentImpact || !pluginIndex) {
      return std::nullopt;
    }
    gen.test = *test;
    gen.point = *point;
    gen.generatedBy = *generatedBy;
    gen.parentImpact = *parentImpact;
    gen.pluginIndex = *pluginIndex;
    JournalEvent out;
    out.kind = JournalEvent::Kind::kGen;
    out.gen = std::move(gen);
    return out;
  }

  if (*event == "done") {
    DoneEvent done;
    const auto test = getU64(line, "test");
    const auto impact = getDouble(line, "impact");
    const auto bestImpact = getDouble(line, "bestImpact");
    const auto throughputRps = getDouble(line, "throughputRps");
    const auto avgLatencySec = getDouble(line, "avgLatencySec");
    const auto viewChanges = getU64(line, "viewChanges");
    // Absent in journals written before churn support; default to zero so
    // those campaigns remain resumable.
    const auto restarts = getU64(line, "restarts", 0);
    const auto recoveryLatencySec = getDouble(line, "recoveryLatencySec", 0.0);
    // Absent in journals written before flood support; same treatment.
    const auto queueDrops = getU64(line, "queueDrops", 0);
    const auto quotaDrops = getU64(line, "quotaDrops", 0);
    // Absent on non-violating lines and in pre-twins journals.
    const auto safetyWitness = getString(line, "safetyWitness", "");
    const auto safetyViolated = getBool(line, "safetyViolated");
    const auto failed = getBool(line, "failed");
    const auto timedOut = getBool(line, "timedOut");
    const auto error = getString(line, "error");
    if (!test || !impact || !bestImpact || !throughputRps || !avgLatencySec ||
        !viewChanges || !restarts || !recoveryLatencySec || !queueDrops ||
        !quotaDrops || !safetyWitness || !safetyViolated || !failed ||
        !timedOut || !error) {
      return std::nullopt;
    }
    done.test = *test;
    done.outcome.impact = *impact;
    done.outcome.throughputRps = *throughputRps;
    done.outcome.avgLatencySec = *avgLatencySec;
    done.outcome.viewChanges = *viewChanges;
    done.outcome.restarts = *restarts;
    done.outcome.recoveryLatencySec = *recoveryLatencySec;
    done.outcome.queueDrops = *queueDrops;
    done.outcome.quotaDrops = *quotaDrops;
    done.outcome.safetyViolated = *safetyViolated;
    done.outcome.safetyWitness = *safetyWitness;
    // An unsound outcome is a corrupt line or a lying remote worker.
    if (!outcomeDefect(done.outcome).empty()) return std::nullopt;
    done.bestImpact = *bestImpact;
    done.failed = *failed;
    done.timedOut = *timedOut;
    done.error = *error;
    JournalEvent out;
    out.kind = JournalEvent::Kind::kDone;
    out.done = std::move(done);
    return out;
  }

  return std::nullopt;
}

[[nodiscard]] std::optional<LoadedJournal> loadJournal(const std::string& path) {
  const auto contents = readFile(path);
  if (!contents) return std::nullopt;

  LoadedJournal loaded;
  std::size_t pos = 0;
  while (pos < contents->size()) {
    const std::size_t nl = contents->find('\n', pos);
    if (nl == std::string::npos) {
      // No terminator: the classic torn tail of a killed writer.
      loaded.truncatedTail = true;
      break;
    }
    const std::string_view line(contents->data() + pos, nl - pos);
    const auto event = decodeLine(line);
    if (!event) {
      // A malformed *final* line is a torn tail (a buffered write can carry
      // its newline but not its whole payload); malformed earlier lines
      // mean the journal is corrupt and unsafe to resume from.
      if (contents->find('\n', nl + 1) != std::string::npos) {
        return std::nullopt;
      }
      loaded.truncatedTail = true;
      break;
    }
    loaded.events.push_back(std::move(*event));
    pos = nl + 1;
    loaded.validBytes = pos;
  }
  return loaded;
}

// --- writer -----------------------------------------------------------------

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::close() {
  if (fd_ < 0) return !writeFailed_;
  const bool closed = ::close(fd_) == 0;
  fd_ = -1;
  const bool clean = closed && !writeFailed_;
  writeFailed_ = false;
  return clean;
}

bool JournalWriter::openFresh(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  return fd_ >= 0;
}

bool JournalWriter::openResume(const std::string& path,
                               std::uint64_t keepBytes) {
  close();
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  if (keepBytes < size) {
    std::filesystem::resize_file(path, keepBytes, ec);
    if (ec) return false;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  return fd_ >= 0;
}

bool JournalWriter::append(const std::string& line) {
  if (fd_ < 0) return false;
  // One write() per line (payload + newline in one buffer): a crashed
  // writer leaves at most one torn line, which loadJournal drops as the
  // tail.
  std::string buffer;
  buffer.reserve(line.size() + 1);
  buffer += line;
  buffer += '\n';
  const char* at = buffer.data();
  std::size_t left = buffer.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, at, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      writeFailed_ = true;
      return false;
    }
    at += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool JournalWriter::sync() {
  if (fd_ < 0) return false;
  if (::fsync(fd_) != 0) {
    writeFailed_ = true;
    return false;
  }
  return true;
}

// --- manifest / checkpoint --------------------------------------------------

std::string journalPath(const std::string& dir) {
  return dir + "/journal.jsonl";
}
std::string manifestPath(const std::string& dir) {
  return dir + "/manifest.json";
}
std::string checkpointPath(const std::string& dir) {
  return dir + "/checkpoint.json";
}
std::string classesPath(const std::string& dir) {
  return dir + "/classes.json";
}

bool writeManifest(const std::string& dir, const Manifest& manifest) {
  std::string out = "{\"version\":" + std::to_string(manifest.version) + ",";
  appendKey(out, "system");
  appendEscaped(out, manifest.system);
  out += ',';
  appendKey(out, "mode");
  appendEscaped(out, manifest.mode);
  out += ',';
  appendKey(out, "seed");
  out += std::to_string(manifest.seed);
  out += ',';
  appendKey(out, "totalTests");
  out += std::to_string(manifest.totalTests);
  out += ',';
  appendKey(out, "workers");
  out += std::to_string(manifest.workers);
  out += ',';
  appendKey(out, "checkpointEvery");
  out += std::to_string(manifest.checkpointEvery);
  out += ',';
  appendKey(out, "scenarioTimeoutMs");
  out += std::to_string(manifest.scenarioTimeoutMs);
  out += ',';
  appendKey(out, "minImpact");
  appendDouble(out, manifest.minImpact);
  out += ',';
  appendKey(out, "batch");
  out += std::to_string(manifest.batch);
  out += ',';
  appendKey(out, "spawn");
  out += std::to_string(manifest.spawn);
  out += ',';
  appendKey(out, "heartbeatMs");
  out += std::to_string(manifest.heartbeatMs);
  out += "}\n";
  return writeFileAtomicDurable(manifestPath(dir), out);
}

[[nodiscard]] std::optional<Manifest> loadManifest(const std::string& dir) {
  const auto contents = readFile(manifestPath(dir));
  if (!contents) return std::nullopt;
  Manifest manifest;
  const auto version = getU64(*contents, "version");
  const auto system = getString(*contents, "system");
  const auto seed = getU64(*contents, "seed");
  const auto totalTests = getU64(*contents, "totalTests");
  const auto workers = getU64(*contents, "workers");
  const auto checkpointEvery = getU64(*contents, "checkpointEvery");
  const auto scenarioTimeoutMs = getU64(*contents, "scenarioTimeoutMs");
  // The default version is the only format this binary writes: a
  // directory of a newer format is refused, not misread.
  if (!version || *version != manifest.version || !system || !seed ||
      !totalTests || !workers || !checkpointEvery || !scenarioTimeoutMs) {
    return std::nullopt;
  }
  manifest.system = *system;
  manifest.seed = *seed;
  manifest.totalTests = *totalTests;
  manifest.workers = *workers;
  manifest.checkpointEvery = *checkpointEvery;
  manifest.scenarioTimeoutMs = *scenarioTimeoutMs;
  // The threshold and the fleet fields are absent in older manifests;
  // default to the threshold a resume has always used there and to the
  // single-process mode. A present but malformed value is corruption, not
  // a default.
  const auto minImpact = getDouble(*contents, "minImpact", manifest.minImpact);
  const auto mode = getString(*contents, "mode", manifest.mode);
  const auto batch = getU64(*contents, "batch", manifest.batch);
  const auto spawn = getU64(*contents, "spawn", manifest.spawn);
  const auto heartbeatMs =
      getU64(*contents, "heartbeatMs", manifest.heartbeatMs);
  if (!minImpact || !mode || (*mode != "process" && *mode != "fleet") ||
      !batch || !spawn || !heartbeatMs) {
    return std::nullopt;
  }
  manifest.minImpact = *minImpact;
  manifest.mode = *mode;
  manifest.batch = *batch;
  manifest.spawn = *spawn;
  manifest.heartbeatMs = *heartbeatMs;
  return manifest;
}

bool writeCheckpoint(const std::string& dir, const Checkpoint& checkpoint) {
  std::string out = "{";
  appendKey(out, "generated");
  out += std::to_string(checkpoint.generated);
  out += ',';
  appendKey(out, "completed");
  out += std::to_string(checkpoint.completed);
  out += ',';
  appendKey(out, "maxImpact");
  appendDouble(out, checkpoint.maxImpact);
  out += ',';
  appendKey(out, "respawns");
  out += std::to_string(checkpoint.respawns);
  out += ',';
  appendKey(out, "reassigned");
  out += std::to_string(checkpoint.reassigned);
  out += ',';
  appendKey(out, "workerCrashes");
  out += std::to_string(checkpoint.workerCrashes);
  out += ',';
  appendKey(out, "safetyViolations");
  out += std::to_string(checkpoint.safetyViolations);
  out += "}\n";
  return writeFileAtomicDurable(checkpointPath(dir), out);
}

[[nodiscard]] std::optional<Checkpoint> loadCheckpoint(const std::string& dir) {
  const auto contents = readFile(checkpointPath(dir));
  if (!contents) return std::nullopt;
  Checkpoint checkpoint;
  const auto generated = getU64(*contents, "generated");
  const auto completed = getU64(*contents, "completed");
  const auto maxImpact = getDouble(*contents, "maxImpact");
  if (!generated || !completed || !maxImpact) return std::nullopt;
  checkpoint.generated = *generated;
  checkpoint.completed = *completed;
  checkpoint.maxImpact = *maxImpact;
  // Absent before they were recorded: default zero. Malformed: corruption.
  const auto respawns = getU64(*contents, "respawns", 0);
  const auto reassigned = getU64(*contents, "reassigned", 0);
  const auto workerCrashes = getU64(*contents, "workerCrashes", 0);
  const auto safetyViolations = getU64(*contents, "safetyViolations", 0);
  if (!respawns || !reassigned || !workerCrashes || !safetyViolations) {
    return std::nullopt;
  }
  checkpoint.respawns = *respawns;
  checkpoint.reassigned = *reassigned;
  checkpoint.workerCrashes = *workerCrashes;
  checkpoint.safetyViolations = *safetyViolations;
  return checkpoint;
}

}  // namespace avd::campaign
