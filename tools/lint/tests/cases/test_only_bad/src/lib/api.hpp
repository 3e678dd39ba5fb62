// Fixture: a header whose public names are reached from tests only.
#pragma once

#include <vector>

namespace fixture {

struct Used {
  int x = 0;
};

class Orphan {
 public:
  Orphan();
  int value() const;
};

int used_free(int v);
int helper(int v);
int orphan_free(int v);

// snnmap-lint: allow(test-only-api) -- kept for a documented reason.
int waived_free(int v);

template <typename T>
T orphan_template(T v) {
  return v;
}

inline int self_recursive(int n) { return n > 0 ? self_recursive(n - 1) : 0; }

// snnmap-lint: allow(test-only-api)
int bare_waiver(int v);

}  // namespace fixture
