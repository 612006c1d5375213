#include "campaign/fleet/protocol.h"

#include "campaign/jsonval.h"

namespace avd::campaign::fleet {

namespace {
using namespace jsonl;
}  // namespace

MessageKind kindOf(std::string_view payload) {
  const auto event = getString(payload, "event");
  if (!event) return MessageKind::kUnknown;
  if (*event == "hello") return MessageKind::kHello;
  if (*event == "welcome") return MessageKind::kWelcome;
  if (*event == "assign") return MessageKind::kAssign;
  if (*event == "done") return MessageKind::kOutcome;
  if (*event == "heartbeat") return MessageKind::kHeartbeat;
  if (*event == "shutdown") return MessageKind::kShutdown;
  return MessageKind::kUnknown;
}

std::string encodeHello(const Hello& hello) {
  std::string out = "{\"event\":\"hello\",";
  appendKey(out, "version");
  out += std::to_string(hello.version);
  out += '}';
  return out;
}

std::string encodeWelcome(const Welcome& welcome) {
  std::string out = "{\"event\":\"welcome\",";
  appendKey(out, "slot");
  out += std::to_string(welcome.slot);
  out += ',';
  appendKey(out, "incarnation");
  out += std::to_string(welcome.incarnation);
  out += ',';
  appendKey(out, "system");
  appendEscaped(out, welcome.system);
  out += ',';
  appendKey(out, "seed");
  out += std::to_string(welcome.seed);
  out += ',';
  appendKey(out, "outDir");
  appendEscaped(out, welcome.outDir);
  out += ',';
  appendKey(out, "heartbeatMs");
  out += std::to_string(welcome.heartbeatMs);
  out += '}';
  return out;
}

std::string encodeAssign(const Assign& assign) {
  std::string out = "{\"event\":\"assign\",";
  appendKey(out, "test");
  out += std::to_string(assign.test);
  out += ',';
  appendKey(out, "point");
  out += '[';
  for (std::size_t i = 0; i < assign.point.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(assign.point[i]);
  }
  out += "]}";
  return out;
}

std::string encodeHeartbeat() { return "{\"event\":\"heartbeat\"}"; }

std::string encodeShutdown() { return "{\"event\":\"shutdown\"}"; }

[[nodiscard]] std::optional<Hello> decodeHello(std::string_view payload) {
  const auto version = getU64(payload, "version");
  if (!version) return std::nullopt;
  Hello hello;
  hello.version = *version;
  return hello;
}

[[nodiscard]] std::optional<Welcome> decodeWelcome(std::string_view payload) {
  const auto slot = getU64(payload, "slot");
  const auto incarnation = getU64(payload, "incarnation");
  const auto system = getString(payload, "system");
  const auto seed = getU64(payload, "seed");
  const auto outDir = getString(payload, "outDir");
  const auto heartbeatMs = getU64(payload, "heartbeatMs");
  if (!slot || !incarnation || !system || !seed || !outDir || !heartbeatMs) {
    return std::nullopt;
  }
  Welcome welcome;
  welcome.slot = *slot;
  welcome.incarnation = *incarnation;
  welcome.system = *system;
  welcome.seed = *seed;
  welcome.outDir = *outDir;
  welcome.heartbeatMs = *heartbeatMs;
  return welcome;
}

[[nodiscard]] std::optional<Assign> decodeAssign(std::string_view payload) {
  const auto test = getU64(payload, "test");
  const auto point = getPoint(payload, "point");
  if (!test || !point) return std::nullopt;
  Assign assign;
  assign.test = *test;
  assign.point = *point;
  return assign;
}

}  // namespace avd::campaign::fleet
