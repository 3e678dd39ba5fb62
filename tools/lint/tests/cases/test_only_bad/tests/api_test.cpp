// Tests do not count as callers.
#include "lib/api.hpp"

int test_main() {
  return fixture::orphan_free(1) + fixture::Orphan().value() +
         fixture::orphan_template(2) + fixture::self_recursive(3) +
         fixture::waived_free(4) + fixture::bare_waiver(5);
}
