// Seeded violations for R2 `unchecked-parse`. NOT compiled — linted by
// lint_test.cpp under the pretend path src/pbft/parse_fixture.cpp.
#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace fixture {

std::optional<std::uint32_t> parseHeader();  // VIOLATION: no [[nodiscard]]

[[nodiscard]] std::optional<std::uint32_t> parseFooter();  // ok

void skipHeader(avd::util::ByteReader& reader) {
  reader.u32();  // VIOLATION: parse result dropped, cursor still advances
  if (auto tag = reader.u16()) {  // ok: result checked
    (void)tag;
  }
}

}  // namespace fixture
