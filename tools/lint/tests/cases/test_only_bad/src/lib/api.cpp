#include "lib/api.hpp"

namespace fixture {

Orphan::Orphan() = default;

int Orphan::value() const { return Orphan().value() + 1; }

int helper(int v) { return v * 2; }

int used_free(int v) { return helper(v) + 1; }

int orphan_free(int v) { return orphan_free(v - 1); }

int waived_free(int v) { return v; }

int bare_waiver(int v) { return v; }

}  // namespace fixture
