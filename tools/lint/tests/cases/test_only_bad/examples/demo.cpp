// A comment naming orphan_free or Orphan is not a caller.
#include "lib/api.hpp"

int main() {
  const char* text = "orphan_template";  // nor is a string literal
  fixture::Used used;
  return fixture::used_free(used.x) + (text != nullptr ? 0 : 1);
}
