// YAML-subset configuration parser.
//
// Noxim loads its power model from a YAML file; the paper's Noxim++ keeps that
// mechanism ("users can modify the power values in external loaded YAML
// file").  We reproduce the same workflow with a small, dependency-free
// parser covering the subset those files actually use:
//
//   # comment
//   key: value            (scalar, kept as its text)
//   section:
//     nested_key: 3.14    (one level of two-space indentation)
//
// Keys are exposed flattened as "section.nested_key".  Values stay strings
// here; core/config_io's key table parses each bound key into its type.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace snnmap::util {

/// Flattened key/value view of a YAML-subset document.
class Config {
 public:
  Config() = default;

  /// Parses text; throws std::runtime_error with a line number on malformed
  /// input (tabs, bad indentation, missing ':').
  static Config parse(const std::string& text);

  /// Loads and parses a file; throws std::runtime_error if unreadable.
  static Config load_file(const std::string& path);

  bool contains(const std::string& key) const;

  /// The value's text, or std::nullopt when the key is absent.
  std::optional<std::string> get_string(const std::string& key) const;

  /// Programmatic insertion (used by tests and by presets).
  void set(const std::string& key, const std::string& value);

  /// All flattened keys, sorted (deterministic iteration for dumps).
  std::vector<std::string> keys() const;

  /// Serializes back to the accepted subset (flat "a.b: v" lines).
  std::string dump() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace snnmap::util
